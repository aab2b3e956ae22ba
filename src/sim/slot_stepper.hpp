// Slot-granular simulation stepping: the per-slot loop body of
// Simulator::run, extracted into a resumable object so a long-lived
// serving process (src/serve) can advance one user's session a single
// slot at a time, interleaved with thousands of other sessions, instead
// of draining a whole run. Simulator::run is a thin wrapper (construct,
// step until done, take_result), so stepped results are bit-identical to
// batch runs by construction.
#pragma once

#include <array>
#include <cstddef>
#include <optional>
#include <vector>

#include "core/policy.hpp"
#include "data/stream_cursor.hpp"
#include "energy/power_trace.hpp"
#include "net/host.hpp"
#include "net/sensor_node.hpp"
#include "obs/trace.hpp"
#include "sim/metrics.hpp"
#include "sim/simulator.hpp"

namespace origin::sim {

class SlotStepper {
 public:
  /// What one step produced (the slot's fused output and ground truth).
  struct StepOutcome {
    std::size_t slot = 0;
    int predicted = -1;  // -1 = no output this slot
    int label = -1;
  };

  /// Everything is borrowed and must outlive the stepper: `models[i]` is
  /// deployed to sensor i, `power` feeds the harvesters, `policy` is
  /// reset() on construction (fresh-run semantics), `source` yields the
  /// slots. Requires source->size() > 0 and matching class counts; the
  /// size is read once, here.
  SlotStepper(const data::DatasetSpec& spec,
              std::array<nn::Sequential, data::kNumSensors>* models,
              const energy::PowerTrace* power, core::Policy* policy,
              data::SlotSource* source, SimulatorConfig config = {});

  bool done() const { return next_slot_ >= total_slots_; }
  std::size_t next_slot() const { return next_slot_; }
  std::size_t total_slots() const { return total_slots_; }

  /// Advances exactly one slot. Calling past done() is a logic error.
  StepOutcome step();

  /// One classification the open slot still owes: `window` must be run
  /// through sensor `sensor`'s deployed net (by whoever gathers requests
  /// across sessions — see serve::SessionShard). The pointer stays valid
  /// until step_finish().
  struct ClassifyRequest {
    int sensor = -1;
    const nn::Tensor* window = nullptr;
  };

  /// Split-phase stepping, the substrate of cross-session batched
  /// serving. step_begin() runs everything up to the classification
  /// point — harvest accounting, vote aging, the policy plan, and every
  /// attempt's energy/NVP bookkeeping (probe_*) — and appends one
  /// ClassifyRequest per completed attempt. The caller classifies the requests any way it likes (typically
  /// one predict_proba_batch panel per sensor across many sessions) and
  /// hands the results back to step_finish(), which replays the trace
  /// events in fused-step order, feeds the results to the host/policy,
  /// fuses the slot output and advances. step() is exactly
  /// step_begin + per-request predict_proba + step_finish, so the two
  /// paths are bit-identical by construction — classification is a pure
  /// function of (model, window) and nothing before fuse() reads it.
  ///
  /// Returns the number of requests appended. No other stepper call may
  /// intervene between step_begin and step_finish.
  std::size_t step_begin(std::vector<ClassifyRequest>& out);
  /// Completes the open slot. `results[k]` must classify the k-th request
  /// this step_begin appended (count must match exactly).
  StepOutcome step_finish(const net::Classification* results,
                          std::size_t count);

  /// Finalizes the accumulated result: copies the node counters in and
  /// validates one output per simulated slot. Call once, after done().
  SimResult take_result();

  // --- Session-state surface (serve/ snapshot + live summaries). The
  // mutable accessors exist so a snapshot restore can write back the
  // exact state a previous process saved; everything else treats them
  // as read-only.
  net::SensorNode& node(std::size_t i) { return nodes_[i]; }
  const net::SensorNode& node(std::size_t i) const { return nodes_[i]; }
  net::HostDevice& host() { return host_; }
  const net::HostDevice& host() const { return host_; }
  core::Policy& policy() { return *policy_; }
  const core::Policy& policy() const { return *policy_; }
  /// The session's slot source — re-requesting the slot just stepped is
  /// always within the lookback window (serve-tier window capture).
  data::SlotSource& source() { return *source_; }
  SimResult& result() { return result_; }
  const SimResult& result() const { return result_; }
  const std::array<double, data::kNumSensors>& last_success_s() const {
    return last_success_s_;
  }
  int previous_output() const { return previous_output_; }

  /// Fast-forwards the loop bookkeeping to a snapshotted position. Node,
  /// host, policy and result state are restored separately through their
  /// own surfaces; the slot source re-synthesizes deterministically on
  /// the next step, so it carries no state to restore.
  void restore_progress(std::size_t next_slot,
                        const std::array<double, data::kNumSensors>& last_success_s,
                        int previous_output);

 private:
  data::DatasetSpec spec_;
  std::array<nn::Sequential, data::kNumSensors>* models_;
  core::Policy* policy_;
  data::SlotSource* source_;
  SimulatorConfig config_;
  double slot_s_ = 0.0;

  std::vector<net::SensorNode> nodes_;
  net::HostDevice host_;
  std::array<double, data::kNumSensors> last_success_s_{};
  SimResult result_;
  int previous_output_ = -1;
  // Side by side, so the done() polls of a serve tick read one line of
  // each stepper instead of chasing into its source.
  std::size_t next_slot_ = 0;
  std::size_t total_slots_ = 0;

  // Split-phase state, valid between step_begin and step_finish. The
  // trace stream is emitted entirely in step_finish (in fused-step event
  // order), so interleaving many sessions' begin phases cannot reorder a
  // session's own events.
  struct PendingAttempt {
    int sensor = -1;
    bool completed = false;
    std::size_t request = 0;  // index into this step's request range
    obs::AttemptOutcome cause = obs::AttemptOutcome::InProgress;
    double stored_before = 0.0;
  };
  bool phase_open_ = false;
  core::SlotContext pending_ctx_;
  std::vector<int> pending_plan_;
  int pending_hops_ = 0;
  std::vector<PendingAttempt> pending_attempts_;
  std::size_t pending_requests_ = 0;
  int pending_label_ = -1;
  // Fused-step scratch (request/result buffers reused across slots).
  std::vector<ClassifyRequest> fused_requests_;
  std::vector<net::Classification> fused_results_;
};

}  // namespace origin::sim
