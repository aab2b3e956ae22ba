#include "net/sensor_node.hpp"

#include <stdexcept>

namespace origin::net {

namespace {
nn::Sequential* require_model(nn::Sequential* model) {
  if (!model) throw std::invalid_argument("SensorNode: null model");
  return model;
}
}  // namespace

SensorNode::SensorNode(data::SensorLocation location, nn::Sequential model,
                       const std::vector<int>& input_shape,
                       energy::Harvester harvester,
                       const SensorNodeConfig& config)
    : SensorNode(location, nullptr, input_shape, harvester, config,
                 std::make_unique<nn::Sequential>(std::move(model))) {}

SensorNode::SensorNode(data::SensorLocation location, nn::Sequential* model,
                       const std::vector<int>& input_shape,
                       energy::Harvester harvester,
                       const SensorNodeConfig& config)
    : SensorNode(location, model, input_shape, harvester, config, nullptr) {}

SensorNode::SensorNode(data::SensorLocation location, nn::Sequential* model,
                       const std::vector<int>& input_shape,
                       energy::Harvester harvester,
                       const SensorNodeConfig& config,
                       std::unique_ptr<nn::Sequential> owned)
    : location_(location),
      owned_model_(std::move(owned)),
      model_(require_model(owned_model_ ? owned_model_.get() : model)),
      cost_(nn::estimate_cost(*model_, input_shape, config.compute)),
      harvester_(harvester),
      capacitor_(1.0),  // placeholder, re-built below once cost is known
      nvp_(config.nvp),
      radio_(config.radio),
      trickle_power_w_(config.trickle_power_w) {
  if (config.trickle_power_w < 0.0) {
    throw std::invalid_argument("SensorNode: negative trickle power");
  }
  Message result_msg;
  result_msg.type = MessageType::ClassificationResult;
  total_cost_j_ = cost_.energy_j + radio_.tx_energy_j(result_msg);
  if (config.capacitor_headroom < 1.0) {
    throw std::invalid_argument(
        "SensorNode: capacitor must hold at least one inference");
  }
  capacitor_ = energy::Capacitor(
      config.capacitor_headroom * total_cost_j_,
      config.initial_charge * config.capacitor_headroom * total_cost_j_,
      config.leakage_w);
}

void SensorNode::accumulate(double t0_s, double t1_s) {
  if (t1_s < t0_s) throw std::invalid_argument("SensorNode::accumulate: t1 < t0");
  if (failed_) return;
  const double harvested = harvester_.harvested_j(t0_s, t1_s) +
                           trickle_power_w_ * (t1_s - t0_s);
  counters_.harvested_j += capacitor_.harvest(harvested);
  capacitor_.leak(t1_s - t0_s);
}

bool SensorNode::can_infer() const {
  return !failed_ && capacitor_.stored_j() >= total_cost_j_;
}

SensorNode::AttemptProbe SensorNode::probe_wait_compute(
    const nn::Tensor& window) {
  ++counters_.attempts;
  AttemptProbe probe;
  if (failed_) {
    ++counters_.skipped_no_energy;
    return probe;
  }
  if (!capacitor_.try_draw(total_cost_j_)) {
    ++counters_.skipped_no_energy;
    return probe;
  }
  counters_.consumed_j += total_cost_j_;
  ++counters_.completions;
  probe.completed = true;
  probe.classify = &window;
  return probe;
}

SensorNode::AttemptProbe SensorNode::probe_eager(
    const nn::Tensor& window, double start_threshold_frac) {
  ++counters_.attempts;
  AttemptProbe probe;
  if (failed_) {
    ++counters_.skipped_no_energy;
    return probe;
  }
  if (!nvp_.task_active()) {
    // New task: only begin once a minimal charge exists (a cold processor
    // cannot even boot below this).
    if (capacitor_.stored_j() < start_threshold_frac * total_cost_j_) {
      ++counters_.skipped_no_energy;
      return probe;
    }
    nvp_.begin_task(total_cost_j_);
    pending_window_ = window;
  }
  const double allowance = capacitor_.stored_j();
  const auto advance = nvp_.advance(allowance);
  capacitor_.draw_up_to(advance.consumed_j);
  counters_.consumed_j += advance.consumed_j;
  if (!advance.completed) {
    ++counters_.died_midway;
    if (!nvp_.task_active() || !nvp_.suspended()) {
      // Volatile core: progress (and the captured window) is gone.
      if (!nvp_.config().enabled) {
        nvp_.abort_task();
        pending_window_.reset();
      }
    }
    return probe;
  }
  ++counters_.completions;
  probe.completed = true;
  // A resumed task finishes on its *original* window, which may be stale
  // by now — as on hardware. Park it somewhere that outlives the probe.
  completed_window_ = pending_window_ ? std::move(*pending_window_) : window;
  probe.classify = &completed_window_;
  pending_window_.reset();
  return probe;
}

SensorNode::AttemptProbe SensorNode::probe_deadline(
    const nn::Tensor& window, double start_threshold_frac) {
  ++counters_.attempts;
  AttemptProbe probe;
  if (failed_) {
    ++counters_.skipped_no_energy;
    return probe;
  }
  if (capacitor_.stored_j() < start_threshold_frac * total_cost_j_) {
    ++counters_.skipped_no_energy;
    return probe;
  }
  if (capacitor_.try_draw(total_cost_j_)) {
    counters_.consumed_j += total_cost_j_;
    ++counters_.completions;
    probe.completed = true;
    probe.classify = &window;
    return probe;
  }
  // Started but cannot make the deadline: everything stored burns on
  // partial work that the slot-synchronous ensemble cannot use.
  counters_.consumed_j += capacitor_.draw_up_to(total_cost_j_);
  ++counters_.died_midway;
  return probe;
}

std::optional<Classification> SensorNode::resolve(const AttemptProbe& probe) {
  if (!probe.completed) return std::nullopt;
  return make_classification(model_->predict_proba(*probe.classify));
}

Classification SensorNode::classify(const nn::Tensor& window) {
  return make_classification(model_->predict_proba(window));
}

SensorNodeState SensorNode::snapshot_state() const {
  SensorNodeState state;
  state.stored_j = capacitor_.stored_j();
  state.failed = failed_;
  state.counters = counters_;
  state.nvp = nvp_.state();
  state.pending_window = pending_window_;
  return state;
}

void SensorNode::restore_state(const SensorNodeState& state) {
  capacitor_.restore_stored(state.stored_j);
  failed_ = state.failed;
  counters_ = state.counters;
  nvp_.restore(state.nvp);
  pending_window_ = state.pending_window;
}

}  // namespace origin::net
