#include "sim/experiment.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "core/ensemble.hpp"
#include "net/message.hpp"

namespace origin::sim {

const char* to_string(ModelSet m) {
  switch (m) {
    case ModelSet::BL2: return "bl2";
    case ModelSet::Relaxed: return "relaxed";
  }
  return "?";
}

const char* to_string(PolicyKind k) {
  switch (k) {
    case PolicyKind::Naive: return "naive";
    case PolicyKind::PlainRR: return "rr";
    case PolicyKind::AAS: return "aas";
    case PolicyKind::AASR: return "aasr";
    case PolicyKind::Origin: return "origin";
  }
  return "?";
}

PolicyKind parse_policy_kind(const std::string& name) {
  for (auto kind : {PolicyKind::Naive, PolicyKind::PlainRR, PolicyKind::AAS,
                    PolicyKind::AASR, PolicyKind::Origin}) {
    if (name == to_string(kind)) return kind;
  }
  throw std::invalid_argument("unknown policy '" + name +
                              "' (naive|rr|aas|aasr|origin)");
}

double calibrate_harvest_scale(double inference_energy_j,
                               const energy::PowerTrace& trace,
                               double efficiency, double slot_s, double ratio) {
  if (inference_energy_j <= 0.0 || efficiency <= 0.0 || slot_s <= 0.0 ||
      ratio <= 0.0) {
    throw std::invalid_argument("calibrate_harvest_scale: non-positive input");
  }
  const double slot_harvest_at_unit_scale =
      efficiency * trace.average_power_w() * slot_s;
  return inference_energy_j / (ratio * slot_harvest_at_unit_scale);
}

Experiment::Experiment(ExperimentConfig config)
    : config_(std::move(config)),
      system_(core::build_system(config_.pipeline)),
      trace_(energy::PowerTrace::generate_wifi_office(config_.trace,
                                                      config_.trace_seed)),
      sim_config_(config_.sim) {
  sim_config_.node.compute = config_.pipeline.profile;
  // Calibrate the harvest so the mean BL-2 inference costs `energy_ratio`
  // slots of average harvest (see ExperimentConfig).
  net::Message result_msg;
  double mean_cost = 0.0;
  for (const auto& sensor : system_.sensors) {
    mean_cost += sensor.bl2_cost.energy_j +
                 sim_config_.node.radio.tx_energy_j(result_msg);
  }
  mean_cost /= static_cast<double>(data::kNumSensors);
  const double scale = calibrate_harvest_scale(
      mean_cost, trace_, sim_config_.harvester_efficiency,
      system_.spec.slot_seconds(), config_.energy_ratio);
  for (auto& s : sim_config_.harvest_scale) s *= scale;
}

data::Stream Experiment::make_stream(const data::UserProfile& user,
                                     std::uint64_t seed_offset,
                                     std::optional<double> snr_db) const {
  data::StreamConfig stream_config;
  stream_config.snr_db = snr_db;
  return data::make_stream(system_.spec, config_.stream_slots, user,
                           config_.stream_seed + seed_offset, stream_config);
}

data::StreamCursor Experiment::make_cursor(const data::UserProfile& user,
                                           std::uint64_t seed_offset,
                                           std::optional<double> snr_db,
                                           int ring_capacity) const {
  data::StreamConfig stream_config;
  stream_config.snr_db = snr_db;
  return data::StreamCursor(system_.spec, config_.stream_slots, user,
                            config_.stream_seed + seed_offset, stream_config,
                            ring_capacity);
}

void Experiment::rebind_cursor(data::StreamCursor& cursor,
                               const data::UserProfile& user,
                               std::uint64_t seed_offset) const {
  cursor.rebind(user, config_.stream_seed + seed_offset);
}

std::unique_ptr<core::Policy> Experiment::make_policy(PolicyKind kind,
                                                      int rr_cycle,
                                                      ModelSet set) const {
  const core::RankTable& ranks =
      set == ModelSet::Relaxed ? system_.ranks_relaxed : system_.ranks;
  const core::ConfidenceMatrix& confidence =
      set == ModelSet::Relaxed ? system_.confidence_relaxed : system_.confidence;
  switch (kind) {
    case PolicyKind::Naive:
      return std::make_unique<core::NaiveAllPolicy>(system_.spec.num_classes());
    case PolicyKind::PlainRR:
      return std::make_unique<core::PlainRRPolicy>(
          core::ExtendedRoundRobin(rr_cycle));
    case PolicyKind::AAS:
      return std::make_unique<core::AASPolicy>(
          core::ExtendedRoundRobin(rr_cycle), ranks);
    case PolicyKind::AASR: {
      auto p = std::make_unique<core::AASRPolicy>(
          core::ExtendedRoundRobin(rr_cycle), ranks);
      p->set_recall_horizon_s(config_.recall_horizon_s);
      return p;
    }
    case PolicyKind::Origin: {
      auto p = std::make_unique<core::OriginPolicy>(
          core::ExtendedRoundRobin(rr_cycle), ranks, confidence);
      p->set_recall_horizon_s(config_.recall_horizon_s);
      return p;
    }
  }
  throw std::invalid_argument("make_policy: unknown kind");
}

SimResult Experiment::run_policy(core::Policy& policy,
                                 const data::Stream& stream, ModelSet set,
                                 obs::FlightLog* trace) const {
  data::StreamSlotSource source(stream);
  return run_policy(policy, source, set, trace);
}

SimResult Experiment::run_policy(core::Policy& policy,
                                 data::SlotSource& source, ModelSet set,
                                 obs::FlightLog* trace) const {
  auto models = set == ModelSet::Relaxed ? system_.relaxed_copy()
                                         : system_.bl2_copy();
  return run_policy(policy, models, source, trace);
}

SimResult Experiment::run_policy(
    core::Policy& policy,
    std::array<nn::Sequential, data::kNumSensors>& models,
    data::SlotSource& source, obs::FlightLog* trace) const {
  SimulatorConfig config = sim_config_;
  config.trace = trace;
  Simulator simulator(system_.spec, &models, &trace_, &policy, config);
  return simulator.run(source);
}

SimResult Experiment::run_fully_powered(core::BaselineKind kind,
                                        const data::Stream& stream) const {
  data::StreamSlotSource source(stream);
  return run_fully_powered(kind, source);
}

SimResult Experiment::run_fully_powered(core::BaselineKind kind,
                                        data::SlotSource& source) const {
  auto models = kind == core::BaselineKind::BL1 ? system_.bl1_copy()
                                                : system_.bl2_copy();
  return run_fully_powered(kind, models, source);
}

SimResult Experiment::run_fully_powered(
    core::BaselineKind kind,
    std::array<nn::Sequential, data::kNumSensors>& models,
    data::SlotSource& source) const {
  // Baseline-1: the original (unpruned) networks on an unconstrained
  // steady supply — every sensor classifies every window.
  //
  // Baseline-2: "a classical battery-powered energy-aware HAR classifier
  // continuously operating at the same average power" (paper abstract):
  // the pruned networks on a steady supply equal to the average harvested
  // power, which sustains one inference per `energy_ratio` slots per
  // sensor. Sensors run on a fixed staggered duty cycle; the host keeps
  // each sensor's most recent result and majority-votes naively
  // (tie-break: fixed sensor priority — chest, ankle, wrist index order).
  //
  // BL-1 is the duty cycle with period 1. Neither schedule depends on a
  // result, so the runner gathers a block of slots, classifies each
  // sensor's due windows as one panel (row b of a panel is bit-identical
  // to a single-sample predict_proba) and then votes slot by slot. A
  // block never exceeds the source's lookback, so every gathered window
  // is still live when its panel runs.
  const bool bl1 = kind == core::BaselineKind::BL1;
  const int period =
      bl1 ? 1 : std::max(1, static_cast<int>(std::lround(config_.energy_ratio)));
  const int stagger = !bl1 && config_.bl2_staggered
                          ? std::max(1, period / data::kNumSensors)
                          : 0;
  const auto due = [&](std::size_t i, int s) {
    return static_cast<int>(i) % period == (s * stagger) % period;
  };
  constexpr std::size_t kMaxBlock = 32;
  const std::size_t block =
      std::max<std::size_t>(1, std::min(kMaxBlock, source.lookback()));
  const int num_classes = system_.spec.num_classes();

  SimResult result;
  result.accuracy = AccuracyTracker(num_classes);
  std::array<std::vector<const nn::Tensor*>, data::kNumSensors> panels;
  std::array<std::vector<float>, data::kNumSensors> probs;
  std::array<std::size_t, data::kNumSensors> row_width{};
  std::vector<int> labels;
  std::vector<core::Ballot> ballots;
  std::array<net::Classification, data::kNumSensors> votes;
  int previous_output = -1;
  for (std::size_t begin = 0; begin < source.size(); begin += block) {
    const std::size_t end = std::min(source.size(), begin + block);
    labels.clear();
    for (auto& panel : panels) panel.clear();
    for (std::size_t i = begin; i < end; ++i) {
      const data::SlotSample& slot = source.slot(i);
      labels.push_back(slot.label);
      for (int s = 0; s < data::kNumSensors; ++s) {
        if (due(i, s)) {
          panels[static_cast<std::size_t>(s)].push_back(
              &slot.window(static_cast<std::size_t>(s)));
        }
      }
    }
    for (std::size_t s = 0; s < data::kNumSensors; ++s) {
      row_width[s] = models[s].predict_proba_batch_into(
          panels[s].data(), panels[s].size(), probs[s]);
    }
    std::array<std::size_t, data::kNumSensors> next_row{};
    for (std::size_t i = begin; i < end; ++i) {
      std::size_t attempted = 0;
      for (int s = 0; s < data::kNumSensors; ++s) {
        const auto si = static_cast<std::size_t>(s);
        if (!due(i, s)) continue;
        const float* row = probs[si].data() + next_row[si]++ * row_width[si];
        votes[si] = net::make_classification(
            std::vector<float>(row, row + row_width[si]));
        ++result.scheduled[si];
        ++attempted;
      }
      // A fully powered sensor completes every attempt.
      ++result.completion.slots;
      result.completion.attempts += attempted;
      result.completion.completions += attempted;
      if (attempted > 0) {
        ++result.completion.slots_all_completed;
        ++result.completion.slots_some_completed;
      }
      ballots.clear();
      for (int s = 0; s < data::kNumSensors; ++s) {
        const auto si = static_cast<std::size_t>(s);
        if (votes[si].valid()) {
          ballots.push_back({votes[si].predicted_class, 1.0,
                             static_cast<double>(s)});
        }
      }
      const int predicted =
          ballots.empty() ? -1
                          : core::majority_vote(ballots, num_classes).value();
      result.outputs.push_back(predicted);
      result.accuracy.record(labels[i - begin], predicted);
      // Same stability rule as SlotStepper::step_finish.
      if (predicted != previous_output && predicted >= 0 &&
          previous_output >= 0) {
        ++result.output_transitions;
      }
      if (predicted >= 0) previous_output = predicted;
    }
  }
  result.validate(source.size());
  return result;
}

}  // namespace origin::sim
