#include "fleet/fleet_runner.hpp"

#include <chrono>
#include <mutex>
#include <stdexcept>
#include <utility>

#include "fleet/thread_pool.hpp"
#include "util/rng.hpp"

namespace origin::fleet {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Per-worker reusable state: one stream cursor (the pooled ring of slot
/// buffers) plus lazily created deployed-network copies per model set.
/// A job's result is a pure function of the job spec — which scratch
/// instance serves it never shows in the output — so scratches are handed
/// out by a freelist instead of being rebuilt per job: after warm-up a
/// worker allocates nothing per job.
struct WorkerScratch {
  std::optional<data::StreamCursor> cursor;
  std::optional<std::array<nn::Sequential, data::kNumSensors>> bl1;
  std::optional<std::array<nn::Sequential, data::kNumSensors>> bl2;
  std::optional<std::array<nn::Sequential, data::kNumSensors>> relaxed;
};

class ScratchPool {
 public:
  std::unique_ptr<WorkerScratch> acquire() {
    std::lock_guard<std::mutex> lock(mutex_);
    if (free_.empty()) return std::make_unique<WorkerScratch>();
    auto out = std::move(free_.back());
    free_.pop_back();
    return out;
  }
  void release(std::unique_ptr<WorkerScratch> scratch) {
    std::lock_guard<std::mutex> lock(mutex_);
    free_.push_back(std::move(scratch));
  }

 private:
  std::mutex mutex_;
  std::vector<std::unique_ptr<WorkerScratch>> free_;
};

template <typename Make>
std::array<nn::Sequential, data::kNumSensors>& ensure_models(
    std::optional<std::array<nn::Sequential, data::kNumSensors>>& slot,
    Make make) {
  if (!slot) slot.emplace(make());
  return *slot;
}

}  // namespace

FleetRunner::FleetRunner(const sim::Experiment& experiment,
                         FleetRunnerConfig config)
    : experiment_(&experiment), config_(std::move(config)) {}

FleetResult FleetRunner::run(const std::vector<FleetJob>& jobs) const {
  const auto shards = make_shards(jobs.size(), config_.shard_size);

  // Metric schema for one run: job/attempt counters and the accuracy /
  // success distributions are pure functions of the job list
  // (deterministic, bit-identical at any thread count); latencies and the
  // pool counters are wall-clock and flagged out of bit-identity checks.
  obs::MetricsRegistry registry;
  const auto m_jobs = registry.add_counter("fleet.jobs");
  const auto m_attempts = registry.add_counter("fleet.attempts");
  const auto m_completions = registry.add_counter("fleet.completions");
  const auto m_accuracy_pct = registry.add_histogram(
      "fleet.accuracy_pct", obs::MetricsRegistry::linear_bounds(5.0, 5.0, 20));
  const auto m_success_pct = registry.add_histogram(
      "fleet.success_pct", obs::MetricsRegistry::linear_bounds(5.0, 5.0, 20));
  const auto m_job_seconds = registry.add_histogram(
      "fleet.job_seconds",
      obs::MetricsRegistry::exponential_bounds(1e-3, 2.0, 16), false);
  const auto m_shard_seconds = registry.add_histogram(
      "fleet.shard_seconds",
      obs::MetricsRegistry::exponential_bounds(1e-3, 2.0, 16), false);
  const auto m_steals = registry.add_counter("pool.steals", false);
  const auto m_backoffs = registry.add_counter("pool.backoffs", false);
  const auto m_queue_depth = registry.add_gauge("pool.max_queue_depth");

  FleetResult result;
  result.jobs.resize(jobs.size());
  if (config_.keep_sim_results) result.sim_results.resize(jobs.size());
  result.shard_timings.resize(shards.size());
  std::vector<FleetAccumulator> partials(shards.size());
  // One metrics shard per fleet shard plus a trailing one for the
  // pool-wide counters (merged last, after every worker is quiescent).
  std::vector<obs::MetricsShard> metric_shards;
  metric_shards.reserve(shards.size() + 1);
  for (std::size_t s = 0; s < shards.size() + 1; ++s) {
    metric_shards.push_back(registry.make_shard());
  }

  std::mutex progress_mutex;
  std::size_t shards_done = 0;
  ScratchPool scratch_pool;

  const auto run_start = Clock::now();

  // Every write inside targets a slot owned by this shard alone; only the
  // progress callback needs serialization (the trace recorder locks
  // internally).
  const auto run_shard = [&](std::size_t s) {
    const Shard& shard = shards[s];
    obs::MetricsShard& metrics = metric_shards[s];
    auto scratch = scratch_pool.acquire();
    const auto t0 = Clock::now();
    for (std::size_t j = shard.begin; j < shard.end; ++j) {
      const FleetJob& job = jobs[j];
      const auto job_t0 = Clock::now();
      [[maybe_unused]] const double job_wall_t0 = seconds_since(run_start);
      // Streaming + pooled hot path: re-target the worker's cursor at this
      // job's stream (ring buffers reused, working set O(ring) instead of
      // a materialized O(slots) stream) and borrow the worker's model
      // copies instead of copying the system's per job.
      if (scratch->cursor) {
        experiment_->rebind_cursor(*scratch->cursor, job.user, job.seed_offset);
      } else {
        scratch->cursor.emplace(
            experiment_->make_cursor(job.user, job.seed_offset));
      }
      data::StreamCursor& cursor = *scratch->cursor;
      sim::SimResult sim_result;
      if (job.baseline) {
        auto& models =
            *job.baseline == core::BaselineKind::BL1
                ? ensure_models(scratch->bl1,
                                [&] { return experiment_->system().bl1_copy(); })
                : ensure_models(scratch->bl2, [&] {
                    return experiment_->system().bl2_copy();
                  });
        sim_result =
            experiment_->run_fully_powered(*job.baseline, models, cursor);
      } else {
        auto policy = experiment_->make_policy(job.policy, job.rr_cycle, job.set);
        auto& models =
            job.set == sim::ModelSet::Relaxed
                ? ensure_models(scratch->relaxed,
                                [&] { return experiment_->system().relaxed_copy(); })
                : ensure_models(scratch->bl2, [&] {
                    return experiment_->system().bl2_copy();
                  });
        // Slot-level tracing of job 0 only — the exemplar run; tracing
        // every job would just wrap the ring buffer.
        sim_result = experiment_->run_policy(
            *policy, models, cursor, j == 0 ? config_.trace : nullptr);
      }
      const double job_seconds = seconds_since(job_t0);
      result.jobs[j].accuracy = sim_result.accuracy.overall();
      result.jobs[j].success_rate = sim_result.completion.attempt_success_rate();
      metrics.inc(m_jobs);
      metrics.inc(m_attempts, sim_result.completion.attempts);
      metrics.inc(m_completions, sim_result.completion.completions);
      metrics.observe(m_accuracy_pct, 100.0 * sim_result.accuracy.overall());
      metrics.observe(m_success_pct,
                      sim_result.completion.attempt_success_rate());
      metrics.observe(m_job_seconds, job_seconds);
      ORIGIN_TRACE(config_.trace,
                   job(static_cast<std::int64_t>(j), job_wall_t0, job_seconds,
                       static_cast<int>(shard.index),
                       job.baseline ? core::to_string(*job.baseline)
                                    : sim::to_string(job.policy)));
      partials[s].add(sim_result);
      if (config_.keep_sim_results) {
        result.sim_results[j] = std::move(sim_result);
      }
    }
    const double shard_seconds = seconds_since(t0);
    scratch_pool.release(std::move(scratch));
    metrics.observe(m_shard_seconds, shard_seconds);
    result.shard_timings[s] = {shard.index, shard.size(), shard_seconds};
    if (config_.progress) {
      std::lock_guard<std::mutex> lock(progress_mutex);
      config_.progress(++shards_done, shards.size());
    }
  };

  {
    // At threads <= 1 the pool is the calling thread alone: same shard
    // layout and merge order, shards run in index order.
    ThreadPool pool(config_.threads);
    pool.run_batch(shards.size(), run_shard);
    const PoolStats pool_stats = pool.stats();
    obs::MetricsShard& tail = metric_shards.back();
    tail.inc(m_steals, pool_stats.steals);
    tail.inc(m_backoffs, pool_stats.backoffs);
    tail.set_max(m_queue_depth,
                 static_cast<double>(pool_stats.max_queue_depth));
  }
  result.wall_seconds = seconds_since(run_start);
  result.aggregate = merge_in_order(partials);
  result.metrics = obs::snapshot(registry, obs::merge_in_order(metric_shards));
  return result;
}

std::vector<FleetJob> make_population(const PopulationConfig& config) {
  if (config.runs_per_user <= 0) {
    throw std::invalid_argument("make_population: runs_per_user <= 0");
  }
  std::vector<FleetJob> jobs;
  jobs.reserve(config.users * static_cast<std::size_t>(config.runs_per_user));
  for (std::size_t u = 0; u < config.users; ++u) {
    util::Rng rng(shard_seed(config.root_seed, u));
    const auto user = config.severity > 0.0
                          ? data::random_user(static_cast<int>(u), rng,
                                              config.severity)
                          : data::reference_user();
    for (int r = 0; r < config.runs_per_user; ++r) {
      FleetJob job;
      job.user = user;
      // Distinct, reproducible stream per (user, run) pair.
      job.seed_offset = shard_seed(config.root_seed ^ 0xA11CEULL,
                                   u * static_cast<std::size_t>(
                                           config.runs_per_user) +
                                       static_cast<std::size_t>(r));
      job.policy = config.policy;
      job.rr_cycle = config.rr_cycle;
      job.set = config.set;
      jobs.push_back(std::move(job));
    }
  }
  return jobs;
}

}  // namespace origin::fleet
