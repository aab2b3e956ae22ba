// Fleet driver: shards a population of (user profile, stream seed,
// policy, RR depth) simulation jobs across a work-stealing pool, runs each
// shard against the shared immutable trained system of one Experiment,
// and aggregates through mergeable accumulators.
//
// Determinism contract: a job's result depends only on the job itself,
// the shard layout depends only on the job count and shard size, and
// per-shard accumulators merge in shard-index order — so both the per-job
// results and the aggregate are bit-identical across thread counts.
// Workers reuse pooled scratch (a stream cursor's ring buffers, model
// copies) across jobs, but scratch carries no cross-job state a run
// observes: cursors rebind per job, policies are fresh per job, and model
// weights are never mutated — which scratch served a job never shows in
// its result.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "core/baseline.hpp"
#include "data/user_profile.hpp"
#include "fleet/aggregate.hpp"
#include "fleet/shard.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/experiment.hpp"

namespace origin::fleet {

/// One simulation to run: a user's stream under one scheduling config.
struct FleetJob {
  data::UserProfile user = data::reference_user();
  /// Added to the experiment's stream seed (Experiment::make_stream).
  std::uint64_t seed_offset = 0;
  sim::PolicyKind policy = sim::PolicyKind::Origin;
  int rr_cycle = 12;
  sim::ModelSet set = sim::ModelSet::BL2;
  /// When set, runs this fully-powered baseline instead of `policy`.
  std::optional<core::BaselineKind> baseline;
};

/// The per-run scalars every job reports (full SimResults are kept only
/// on request — they carry per-slot outputs and confusion matrices).
struct FleetJobResult {
  double accuracy = 0.0;      // overall top-1, in [0, 1]
  double success_rate = 0.0;  // attempt success, percent
};

struct FleetRunnerConfig {
  /// Threads running shards, counting the caller of run(); <= 1 runs
  /// every shard on the calling thread.
  unsigned threads = 1;
  /// Jobs per shard (0 -> 1). One job per shard maximizes stealing
  /// granularity and is right for simulation-sized jobs.
  std::size_t shard_size = 1;
  /// Keep every job's full SimResult (indexed by job) in FleetResult.
  bool keep_sim_results = false;
  /// Called after each shard finishes (serialized; any thread). Shard
  /// completion order is nondeterministic — use it for progress only.
  std::function<void(std::size_t shards_done, std::size_t shards_total)>
      progress;
  /// Borrowed event ring (null-object: nullptr disables tracing). Each
  /// shard records into its own log: one Job event per job (track = shard
  /// index, wall time relative to run start) and, to keep trace volume
  /// bounded, the full slot-level simulator trace of job 0 only. The logs
  /// fold into the ring in shard order after the batch, so events arrive
  /// in job order at any thread count.
  obs::FlightRecorder* trace = nullptr;
};

struct FleetResult {
  FleetAccumulator aggregate;            // merged in shard-index order
  std::vector<FleetJobResult> jobs;      // indexed by job
  std::vector<sim::SimResult> sim_results;  // indexed by job, if kept
  std::vector<ShardTiming> shard_timings;   // indexed by shard
  /// Run metrics, merged in shard-index order from per-shard metric
  /// shards. Metrics flagged deterministic (job/attempt counters, the
  /// accuracy and success histograms) are bit-identical across thread
  /// counts — obs::MetricsSnapshot::deterministic_equal; wall-clock ones
  /// (latency histograms, pool counters) are not.
  obs::MetricsSnapshot metrics;
  double wall_seconds = 0.0;

  double users_per_second() const {
    return wall_seconds > 0.0
               ? static_cast<double>(jobs.size()) / wall_seconds
               : 0.0;
  }
};

class FleetRunner {
 public:
  explicit FleetRunner(const sim::Experiment& experiment,
                       FleetRunnerConfig config = {});

  const FleetRunnerConfig& config() const { return config_; }

  /// Runs every job; blocks until done. A job exception cancels
  /// outstanding shards and rethrows here.
  FleetResult run(const std::vector<FleetJob>& jobs) const;

 private:
  const sim::Experiment* experiment_;
  FleetRunnerConfig config_;
};

/// Population builder for multi-user workloads: `users` profiles with
/// gait/placement deviations drawn from splitmix64(root_seed, user index),
/// each simulated over `runs_per_user` independent stream seeds under one
/// scheduling config. Job order: user-major, run-minor.
struct PopulationConfig {
  std::size_t users = 64;
  int runs_per_user = 1;
  std::uint64_t root_seed = 0xF1EE7ULL;
  /// Deviation severity passed to data::random_user (0 = everyone is the
  /// reference user).
  double severity = 0.5;
  sim::PolicyKind policy = sim::PolicyKind::Origin;
  int rr_cycle = 12;
  sim::ModelSet set = sim::ModelSet::BL2;
};

std::vector<FleetJob> make_population(const PopulationConfig& config);

}  // namespace origin::fleet
