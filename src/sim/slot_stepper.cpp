#include "sim/slot_stepper.hpp"

#include <limits>
#include <stdexcept>

namespace origin::sim {

SlotStepper::SlotStepper(const data::DatasetSpec& spec,
                         std::array<nn::Sequential, data::kNumSensors>* models,
                         const energy::PowerTrace* power, core::Policy* policy,
                         data::SlotSource* source, SimulatorConfig config)
    : spec_(spec),
      models_(models),
      policy_(policy),
      source_(source),
      config_(config) {
  if (!models_) throw std::invalid_argument("SlotStepper: null models");
  if (!power) throw std::invalid_argument("SlotStepper: null power trace");
  if (!policy_) throw std::invalid_argument("SlotStepper: null policy");
  if (!source_) throw std::invalid_argument("SlotStepper: null source");
  total_slots_ = source_->size();
  if (total_slots_ == 0) {
    throw std::invalid_argument("SlotStepper: empty stream");
  }
  if (source_->spec().num_classes() != spec_.num_classes()) {
    throw std::invalid_argument("SlotStepper: stream/spec class mismatch");
  }

  // Fresh nodes, borrowing the deployed networks (the networks carry no
  // cross-run state the simulator observes — attempts only run forward
  // passes).
  nodes_.reserve(data::kNumSensors);
  for (int s = 0; s < data::kNumSensors; ++s) {
    const auto si = static_cast<std::size_t>(s);
    energy::Harvester harvester(power, config_.harvester_efficiency,
                                config_.harvest_scale[si],
                                config_.harvest_offset_s[si]);
    nodes_.emplace_back(static_cast<data::SensorLocation>(s), &(*models_)[si],
                        std::vector<int>{spec_.channels, spec_.window_len},
                        harvester, config_.node);
  }

  policy_->reset();
  policy_->set_trace(config_.trace);
  last_success_s_.fill(-std::numeric_limits<double>::infinity());
  result_.accuracy = AccuracyTracker(spec_.num_classes());
  slot_s_ = spec_.slot_seconds();
}

std::size_t SlotStepper::step_begin(std::vector<ClassifyRequest>& out) {
  if (done()) throw std::logic_error("SlotStepper::step_begin: past the end");
  if (phase_open_) {
    throw std::logic_error("SlotStepper::step_begin: slot already open");
  }
  const std::size_t i = next_slot_;
  const data::SlotSample& slot = source_->slot(i);
  const double t0 = static_cast<double>(i) * slot_s_;
  const double t1 = t0 + slot_s_;

  for (int s = 0; s < data::kNumSensors; ++s) {
    const auto si = static_cast<std::size_t>(s);
    const auto& failure = config_.node_failure_at_s[si];
    if (failure && t0 >= *failure) nodes_[si].fail();
    nodes_[si].accumulate(t0, t1);
  }
  host_.age_votes();

  core::SlotContext& ctx = pending_ctx_;
  ctx = core::SlotContext{};
  ctx.slot = static_cast<int>(i);
  ctx.time_s = t0;
  for (int s = 0; s < data::kNumSensors; ++s) {
    const auto si = static_cast<std::size_t>(s);
    ctx.nodes[si].stored_j = nodes_[si].stored_j();
    ctx.nodes[si].cost_j = nodes_[si].inference_energy_j();
    ctx.nodes[si].vote_age_s = t0 - last_success_s_[si];
    ctx.nodes[si].alive = !nodes_[si].failed();
  }

  pending_plan_ = policy_->plan(ctx);
  pending_hops_ = policy_->last_plan_fallback_hops();
  pending_attempts_.clear();
  pending_requests_ = 0;
  for (int s : pending_plan_) {
    if (s < 0 || s >= data::kNumSensors) {
      throw std::logic_error("SlotStepper: policy planned invalid sensor");
    }
    const auto si = static_cast<std::size_t>(s);
    ++result_.scheduled[si];
    const nn::Tensor& window = slot.window(si);
    PendingAttempt pending;
    pending.sensor = s;
    pending.stored_before = nodes_[si].stored_j();
    const net::NodeCounters counters_before = nodes_[si].counters();
    net::SensorNode::AttemptProbe probe;
    switch (policy_->execution()) {
      case core::ExecutionModel::WaitCompute:
        probe = nodes_[si].probe_wait_compute(window);
        break;
      case core::ExecutionModel::EagerNvp:
        probe = nodes_[si].probe_eager(window);
        break;
      case core::ExecutionModel::Deadline:
        probe = nodes_[si].probe_deadline(window);
        break;
    }
    // Completion/failure cause, derived from the node's own counters so
    // the trace can never disagree with the Fig. 1 statistics.
    const net::NodeCounters& after = nodes_[si].counters();
    pending.completed = probe.completed;
    if (probe.completed) {
      pending.cause = obs::AttemptOutcome::Completed;
    } else if (after.skipped_no_energy > counters_before.skipped_no_energy) {
      pending.cause = obs::AttemptOutcome::SkippedNoEnergy;
    } else if (after.died_midway > counters_before.died_midway) {
      pending.cause = obs::AttemptOutcome::DiedMidway;
    } else {
      pending.cause = obs::AttemptOutcome::InProgress;
    }
    if (probe.completed) {
      pending.request = pending_requests_++;
      out.push_back(ClassifyRequest{s, probe.classify});
    }
    pending_attempts_.push_back(pending);
  }
  pending_label_ = slot.label;
  phase_open_ = true;
  return pending_requests_;
}

SlotStepper::StepOutcome SlotStepper::step_finish(
    const net::Classification* results, std::size_t count) {
  if (!phase_open_) {
    throw std::logic_error("SlotStepper::step_finish: no open slot");
  }
  if (count != pending_requests_) {
    throw std::invalid_argument(
        "SlotStepper::step_finish: result count does not match the "
        "requests step_begin issued");
  }
  phase_open_ = false;
  const std::size_t i = next_slot_;
  const double t0 = static_cast<double>(i) * slot_s_;
  const double t1 = t0 + slot_s_;
  const core::SlotContext& ctx = pending_ctx_;

#if ORIGIN_TRACE_ENABLED
  // The whole trace stream is deferred to here so split and fused
  // stepping emit byte-identical event sequences per slot.
  if (config_.trace) {
    for (int s = 0; s < data::kNumSensors; ++s) {
      const auto si = static_cast<std::size_t>(s);
      config_.trace->energy(static_cast<std::int64_t>(i), t0, s,
                            ctx.nodes[si].stored_j, ctx.nodes[si].cost_j);
    }
    if (!pending_plan_.empty()) {
      config_.trace->schedule(static_cast<std::int64_t>(i), t0, slot_s_,
                              pending_plan_, pending_hops_);
    }
  }
#endif

  std::size_t completed = 0;
  for (const PendingAttempt& pending : pending_attempts_) {
    const int s = pending.sensor;
    const auto si = static_cast<std::size_t>(s);
    std::optional<net::Classification> outcome;
    if (pending.completed) {
      outcome = results[pending.request];
    }
#if ORIGIN_TRACE_ENABLED
    if (config_.trace) {
      config_.trace->attempt(static_cast<std::int64_t>(i), t0, slot_s_, s,
                             pending.cause,
                             outcome ? outcome->predicted_class : -1,
                             outcome ? outcome->confidence : 0.0,
                             pending.stored_before);
    }
#endif
    if (outcome) {
      ++completed;
      last_success_s_[si] = t1;
      host_.update_vote(static_cast<data::SensorLocation>(s), *outcome, t1);
      policy_->on_result(s, *outcome, ctx);
    }
  }

  // Completion bookkeeping (Fig. 1).
  ++result_.completion.slots;
  result_.completion.attempts += pending_plan_.size();
  result_.completion.completions += completed;
  if (!pending_plan_.empty()) {
    if (completed == pending_plan_.size()) {
      ++result_.completion.slots_all_completed;
    }
    if (completed > 0) {
      ++result_.completion.slots_some_completed;
    } else {
      ++result_.completion.slots_none_completed;
    }
  }

  const auto fused = policy_->fuse(host_, ctx);
  const int predicted = fused.value_or(-1);
  ORIGIN_TRACE(config_.trace, output(static_cast<std::int64_t>(i), t0, slot_s_,
                                     predicted, pending_label_));
  result_.outputs.push_back(predicted);
  result_.accuracy.record(pending_label_, predicted);
  if (predicted != previous_output_ && predicted >= 0 && previous_output_ >= 0) {
    ++result_.output_transitions;
  }
  if (predicted >= 0) previous_output_ = predicted;

  ++next_slot_;
  return StepOutcome{i, predicted, pending_label_};
}

SlotStepper::StepOutcome SlotStepper::step() {
  fused_requests_.clear();
  step_begin(fused_requests_);
  fused_results_.clear();
  fused_results_.reserve(fused_requests_.size());
  for (const ClassifyRequest& request : fused_requests_) {
    fused_results_.push_back(net::make_classification(
        nodes_[static_cast<std::size_t>(request.sensor)].model().predict_proba(
            *request.window)));
  }
  return step_finish(fused_results_.data(), fused_results_.size());
}

SimResult SlotStepper::take_result() {
  for (int s = 0; s < data::kNumSensors; ++s) {
    result_.node_counters[static_cast<std::size_t>(s)] =
        nodes_[static_cast<std::size_t>(s)].counters();
  }
  result_.validate(next_slot_);
  return std::move(result_);
}

void SlotStepper::restore_progress(
    std::size_t next_slot,
    const std::array<double, data::kNumSensors>& last_success_s,
    int previous_output) {
  if (next_slot > total_slots_) {
    throw std::invalid_argument("SlotStepper::restore_progress: past the end");
  }
  next_slot_ = next_slot;
  last_success_s_ = last_success_s;
  previous_output_ = previous_output;
  phase_open_ = false;  // a half-open slot never survives a restore
}

}  // namespace origin::sim
