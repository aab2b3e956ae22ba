// One energy-harvesting sensor node: IMU window in, classification out —
// when (and only when) the harvested energy allows. Combines the
// classifier, its static energy cost, the capacitor, the harvester binding
// and the NVP core into the unit the scheduling policies reason about.
#pragma once

#include <memory>
#include <optional>

#include "data/activity.hpp"
#include "energy/capacitor.hpp"
#include "energy/harvester.hpp"
#include "energy/nvp.hpp"
#include "net/message.hpp"
#include "net/radio.hpp"
#include "nn/energy_model.hpp"
#include "nn/model.hpp"

namespace origin::net {

struct SensorNodeConfig {
  nn::ComputeProfile compute;
  RadioModel radio;
  energy::NvpConfig nvp;
  /// Battery-assisted (hybrid) operation: a constant trickle charge into
  /// the capacitor on top of the harvest (paper Discussion: Origin also
  /// applies to battery-powered or hybrid systems). 0 = harvest only.
  double trickle_power_w = 0.0;
  /// Capacitor capacity as a multiple of the per-inference energy. A few
  /// inferences of headroom lets the node ride out harvest droughts
  /// between its (sparse) ER-r turns instead of saturating and wasting
  /// burst energy.
  double capacitor_headroom = 6.0;
  /// Initial charge as a fraction of capacity.
  double initial_charge = 0.5;
  double leakage_w = 0.01e-6;
};

struct NodeCounters {
  std::uint64_t attempts = 0;
  std::uint64_t completions = 0;
  std::uint64_t skipped_no_energy = 0;
  std::uint64_t died_midway = 0;
  double harvested_j = 0.0;
  double consumed_j = 0.0;
};

/// The full mutable state of a SensorNode — everything a serving-session
/// snapshot must persist so a restored node continues bit-identically.
/// Static configuration (model, costs, harvester binding) is rebuilt from
/// the serve config, not stored.
struct SensorNodeState {
  double stored_j = 0.0;
  bool failed = false;
  NodeCounters counters;
  energy::NvpState nvp;
  /// Window the in-flight eager task was started on.
  std::optional<nn::Tensor> pending_window;
};

class SensorNode {
 public:
  /// `harvester`'s trace must outlive the node. The model is copied in
  /// (each node owns its deployed network).
  SensorNode(data::SensorLocation location, nn::Sequential model,
             const std::vector<int>& input_shape,
             energy::Harvester harvester, const SensorNodeConfig& config);

  /// Borrowing form for pooled hot paths (the fleet runner constructs
  /// three nodes per job): `model` must outlive the node and not be used
  /// concurrently — inference mutates layer activation caches.
  SensorNode(data::SensorLocation location, nn::Sequential* model,
             const std::vector<int>& input_shape,
             energy::Harvester harvester, const SensorNodeConfig& config);

  data::SensorLocation location() const { return location_; }

  /// Per-inference cost including the result uplink transmission.
  double inference_energy_j() const { return total_cost_j_; }
  const nn::InferenceCost& compute_cost() const { return cost_; }

  /// Integrates harvest, trickle charge and leakage over [t0, t1]. A
  /// failed node accumulates nothing.
  void accumulate(double t0_s, double t1_s);

  /// Hard device failure (reliability experiments): the node stops
  /// harvesting and never completes another inference. Its last recalled
  /// vote ages out at the host naturally.
  void fail() { failed_ = true; }
  bool failed() const { return failed_; }

  bool can_infer() const;
  double stored_j() const { return capacitor_.stored_j(); }
  double capacity_j() const { return capacitor_.capacity_j(); }

  /// Outcome of the bookkeeping half of an attempt (probe_*): whether the
  /// inference completed this call, and — when it did — the window the
  /// caller must classify with this node's model. `classify` stays valid
  /// until the node's next probe; classification is a pure function of
  /// (model, window), so deferring it never changes energy state, counters,
  /// or the result itself.
  struct AttemptProbe {
    bool completed = false;
    const nn::Tensor* classify = nullptr;
  };

  /// The three attempt flavors. Each does the energy / NVP / counter
  /// bookkeeping of one attempt and leaves the model forward pass to the
  /// caller (resolve() runs it on this node; the serve tier batches it
  /// across sessions).
  ///
  /// Wait-compute: runs the inference only if the full energy is
  /// available; otherwise records a skip.
  AttemptProbe probe_wait_compute(const nn::Tensor& window);
  /// Eager: starts/continues regardless of the stored energy (above a
  /// small start threshold), drawing what is there. A volatile core loses
  /// partial progress; an NVP core checkpoints it and resumes on the
  /// *original* window at the next attempt.
  AttemptProbe probe_eager(const nn::Tensor& window,
                           double start_threshold_frac = 0.1);
  /// Deadline (the conventional ensemble of Fig. 1a): the inference must
  /// finish within this slot. If the stored energy is below the start
  /// threshold it "cannot start"; if it starts but the charge runs out the
  /// partial work is discarded — stale results are worthless to a per-slot
  /// ensemble, NVP or not.
  AttemptProbe probe_deadline(const nn::Tensor& window,
                              double start_threshold_frac = 0.1);
  /// Completes a probe in place: classifies probe.classify on this node's
  /// model when the attempt completed.
  std::optional<Classification> resolve(const AttemptProbe& probe);

  /// Inference on a fully-powered bench supply (baselines); no energy
  /// bookkeeping.
  Classification classify(const nn::Tensor& window);

  const NodeCounters& counters() const { return counters_; }
  const energy::NvpCore& nvp() const { return nvp_; }

  /// Snapshot/restore of the node's mutable state (see SensorNodeState).
  /// restore_state overwrites it wholesale; the node must have been built
  /// with the same configuration the snapshot was taken under.
  SensorNodeState snapshot_state() const;
  void restore_state(const SensorNodeState& state);
  nn::Sequential& model() { return *model_; }
  const nn::Sequential& model() const { return *model_; }
  const energy::Harvester& harvester() const { return harvester_; }

 private:
  SensorNode(data::SensorLocation location, nn::Sequential* model,
             const std::vector<int>& input_shape, energy::Harvester harvester,
             const SensorNodeConfig& config,
             std::unique_ptr<nn::Sequential> owned);

  data::SensorLocation location_;
  /// Set when this node owns its network (by-value ctor); the heap slot
  /// keeps model_ stable across moves.
  std::unique_ptr<nn::Sequential> owned_model_;
  nn::Sequential* model_ = nullptr;  // owned_model_.get() or borrowed
  nn::InferenceCost cost_;
  double total_cost_j_ = 0.0;  // compute + result TX
  energy::Harvester harvester_;
  energy::Capacitor capacitor_;
  energy::NvpCore nvp_;
  RadioModel radio_;
  double trickle_power_w_ = 0.0;
  bool failed_ = false;
  NodeCounters counters_;
  /// Window the in-flight eager task was started on (NVP resumes finish
  /// the *original* input, which may be stale by then — as on hardware).
  std::optional<nn::Tensor> pending_window_;
  /// Stable home for the window an eager completion must classify (the
  /// pending window is consumed by the probe; AttemptProbe::classify
  /// points here until the next probe).
  nn::Tensor completed_window_;
};

}  // namespace origin::net
