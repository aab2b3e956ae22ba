// Shared experiment harness: owns one trained system + one harvest trace,
// calibrates the harvest scale against the deployed networks, and exposes
// runners for every policy and baseline. All bench binaries and examples
// are thin wrappers over this class, so every figure is reproduced under
// identical conditions.
#pragma once

#include <memory>
#include <string>

#include "core/baseline.hpp"
#include "core/pipeline.hpp"
#include "core/policy.hpp"
#include "data/dataset.hpp"
#include "energy/power_trace.hpp"
#include "sim/simulator.hpp"

namespace origin::sim {

enum class PolicyKind { Naive, PlainRR, AAS, AASR, Origin };

/// Which deployed networks a harvested-energy run uses: the strict BL-2
/// prune (the paper's §IV-C default) or the ER-r-relaxed prune (§III-D).
enum class ModelSet { BL2, Relaxed };

const char* to_string(PolicyKind k);
const char* to_string(ModelSet m);

/// Inverse of to_string(PolicyKind) for CLI flags; throws
/// std::invalid_argument with the accepted names on an unknown string.
PolicyKind parse_policy_kind(const std::string& name);

struct ExperimentConfig {
  core::PipelineConfig pipeline;
  energy::TraceConfig trace;
  std::uint64_t trace_seed = 0x7EAC3ULL;
  int stream_slots = 4000;
  std::uint64_t stream_seed = 0x57E4ULL;
  /// Calibration target: mean BL-2 per-inference energy divided by the
  /// average per-slot harvest. 6.0 means a node needs ~6 slots of average
  /// harvest per inference — the regime where RR3 mostly fails and RR12
  /// mostly succeeds (Fig. 1's operating point).
  double energy_ratio = 6.0;
  /// Recalled votes older than this are dropped from the AASR/Origin
  /// ensemble (recall is only meaningful within the activity's temporal
  /// continuity; the default covers about a third of the mean dwell).
  double recall_horizon_s = 9.0;
  /// Baseline-2 duty-cycling: the conventional ensemble runs synchronized
  /// rounds (all sensors classify the same incoming window, §II). Set true
  /// for the stronger staggered variant (abl_components).
  bool bl2_staggered = false;
  SimulatorConfig sim;
};

/// Given the per-inference energy and the ambient trace, the antenna scale
/// that makes `ratio` slots of average harvest equal one inference.
double calibrate_harvest_scale(double inference_energy_j,
                               const energy::PowerTrace& trace,
                               double efficiency, double slot_s, double ratio);

class Experiment {
 public:
  explicit Experiment(ExperimentConfig config);

  const ExperimentConfig& config() const { return config_; }
  const core::TrainedSystem& system() const { return system_; }
  core::TrainedSystem& system() { return system_; }
  const energy::PowerTrace& trace() const { return trace_; }
  const data::DatasetSpec& spec() const { return system_.spec; }

  /// SimulatorConfig with the calibrated harvest scale applied.
  const SimulatorConfig& sim_config() const { return sim_config_; }

  /// A continuous test stream; defaults to the experiment's stream seed.
  data::Stream make_stream(const data::UserProfile& user,
                           std::uint64_t seed_offset = 0,
                           std::optional<double> snr_db = std::nullopt) const;

  /// Streaming counterpart of make_stream: a cursor yielding the same
  /// slots bit for bit from a pooled ring (working set O(ring), not
  /// O(slots)).
  data::StreamCursor make_cursor(
      const data::UserProfile& user, std::uint64_t seed_offset = 0,
      std::optional<double> snr_db = std::nullopt,
      int ring_capacity = data::StreamCursor::kDefaultRingCapacity) const;

  /// Re-targets a pooled cursor at another (user, seed_offset) stream,
  /// reusing its ring buffers — the fleet runner's per-job reset.
  void rebind_cursor(data::StreamCursor& cursor, const data::UserProfile& user,
                     std::uint64_t seed_offset = 0) const;

  std::unique_ptr<core::Policy> make_policy(PolicyKind kind, int rr_cycle,
                                            ModelSet set = ModelSet::BL2) const;

  /// Runs `policy` over `stream` on harvested energy with the given model
  /// set (the default matches §IV-C: Origin deploys the BL-2 networks).
  /// `trace`, when given, records the slot-level event stream of the run
  /// (see obs::TraceRecorder).
  SimResult run_policy(core::Policy& policy, const data::Stream& stream,
                       ModelSet set = ModelSet::BL2,
                       obs::TraceRecorder* trace = nullptr) const;

  /// Streaming variant: consumes any SlotSource (e.g. a cursor from
  /// make_cursor). Bit-identical to the Stream overload.
  SimResult run_policy(core::Policy& policy, data::SlotSource& source,
                       ModelSet set = ModelSet::BL2,
                       obs::TraceRecorder* trace = nullptr) const;

  /// Pooled variant: runs on caller-owned deployed networks instead of
  /// copying the system's per call. `models` must match the intended
  /// ModelSet (e.g. system().bl2_copy() reused across jobs) and not be
  /// shared across threads — inference mutates activation caches.
  SimResult run_policy(core::Policy& policy,
                       std::array<nn::Sequential, data::kNumSensors>& models,
                       data::SlotSource& source,
                       obs::TraceRecorder* trace = nullptr) const;

  /// Fully-powered baseline (steady supply, majority voting every slot).
  SimResult run_fully_powered(core::BaselineKind kind,
                              const data::Stream& stream) const;

  /// Streaming variant of the baseline runner.
  SimResult run_fully_powered(core::BaselineKind kind,
                              data::SlotSource& source) const;

  /// Pooled variant: `models` are the deployed networks for `kind`
  /// (bl1_copy()/bl2_copy()), reused across calls by the caller.
  SimResult run_fully_powered(
      core::BaselineKind kind,
      std::array<nn::Sequential, data::kNumSensors>& models,
      data::SlotSource& source) const;

 private:
  ExperimentConfig config_;
  core::TrainedSystem system_;
  energy::PowerTrace trace_;
  SimulatorConfig sim_config_;
};

}  // namespace origin::sim
