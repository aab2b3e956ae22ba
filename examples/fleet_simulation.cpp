// Fleet simulation — serving a simulated population from one trained
// system: shard N users (distinct gait/placement profiles, independent
// streams) across a work-stealing pool and aggregate their accuracy and
// completion statistics. The aggregate is bit-identical at any --threads.
//
// Build & run (from the repository root):
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/fleet_simulation --users 32 --threads 4 --policy origin
//
// Run with --help for the full flag list.
#include <cstdio>
#include <string>

#include "fleet/fleet_runner.hpp"
#include "fleet/thread_pool.hpp"
#include "obs/manifest.hpp"
#include "obs/trace.hpp"
#include "util/args.hpp"
#include "util/logging.hpp"

using namespace origin;

int main(int argc, char** argv) {
  util::set_log_level(util::LogLevel::Info);

  fleet::PopulationConfig pop;
  pop.users = 16;
  fleet::FleetRunnerConfig runner_config;
  runner_config.threads = fleet::ThreadPool::hardware_threads();
  int slots = 1000;
  std::string policy_name = to_string(pop.policy);
  std::string trace_path;

  util::ArgParser args("fleet_simulation",
                       "batch-simulate a user population on a thread pool");
  args.add("users", &pop.users, "population size");
  args.add("runs-per-user", &pop.runs_per_user,
           "independent streams per user");
  args.add("threads", &runner_config.threads, "worker threads");
  args.add("policy", &policy_name, "naive|rr|aas|aasr|origin");
  args.add("rr", &pop.rr_cycle, "round-robin depth");
  args.add("slots", &slots, "stream length in slots");
  args.add("severity", &pop.severity, "user deviation severity");
  args.add("trace", &trace_path,
           "write a Chrome trace_event JSON (chrome://tracing, "
           "ui.perfetto.dev) + run manifest");
  try {
    if (!args.parse(argc, argv)) return 0;
    pop.policy = sim::parse_policy_kind(policy_name);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fleet_simulation: %s\n%s", e.what(),
                 args.usage().c_str());
    return 2;
  }

  // Build the population before the (expensive) training/loading step so
  // invalid configurations fail fast with a clean message.
  std::vector<fleet::FleetJob> jobs;
  try {
    jobs = fleet::make_population(pop);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fleet_simulation: %s\n", e.what());
    return 2;
  }

  // One trained system, shared read-only by every shard.
  sim::ExperimentConfig config;
  config.pipeline.kind = data::DatasetKind::MHealthLike;
  config.stream_slots = slots;
  sim::Experiment experiment(config);
  std::printf("fleet: %zu jobs (%zu users x %d runs), %s RR%d, %d-slot "
              "streams, %u threads\n",
              jobs.size(), pop.users, pop.runs_per_user,
              to_string(pop.policy), pop.rr_cycle, slots,
              runner_config.threads);

  runner_config.progress = [](std::size_t done, std::size_t total) {
    std::printf("\r[fleet] %zu/%zu shards", done, total);
    if (done == total) std::printf("\n");
    std::fflush(stdout);
  };
  obs::FlightRecorder recorder(1 << 16);
  if (!trace_path.empty()) runner_config.trace = &recorder;
  const auto result = fleet::FleetRunner(experiment, runner_config).run(jobs);

  const auto& agg = result.aggregate;
  std::printf("\naccuracy over the population: %.2f %% +/- %.2f "
              "(min %.2f, max %.2f)\n",
              100.0 * agg.accuracy.mean(), 100.0 * agg.accuracy.stddev(),
              100.0 * agg.accuracy.min(), 100.0 * agg.accuracy.max());
  std::printf("attempt success rate:         %.1f %% (%zu/%zu inferences "
              "completed)\n",
              agg.success_rate.mean(), agg.completions, agg.attempts);
  std::printf("throughput:                   %.2f users/s (%.1f s wall)\n",
              result.users_per_second(), result.wall_seconds);

  util::RunningStats shard_s;
  for (const auto& timing : result.shard_timings) shard_s.add(timing.seconds);
  std::printf("per-shard wall time:          %.3f s mean (min %.3f, "
              "max %.3f) over %zu shards\n",
              shard_s.mean(), shard_s.min(), shard_s.max(), shard_s.count());

  // Scheduler health from the run's metric snapshot (pool.* metrics are
  // wall-clock — report-only, never asserted on).
  const auto& m = result.metrics;
  if (m.find("pool.steals") != nullptr) {
    std::printf("pool:                         %llu steals, %llu backoffs, "
                "max queue depth %.0f\n",
                static_cast<unsigned long long>(
                    m.counter_value("pool.steals")),
                static_cast<unsigned long long>(
                    m.counter_value("pool.backoffs")),
                m.gauge_value("pool.max_queue_depth").value);
  }

  if (!trace_path.empty()) {
    if (!origin::obs::kTraceEnabled) {
      std::fprintf(stderr,
                   "fleet_simulation: built with ORIGIN_TRACE=OFF — the "
                   "trace has no instrumentation events\n");
    }
    obs::write_trace(recorder, obs::ChromeTraceSink{}, trace_path);
    std::printf("trace:                        %zu events -> %s "
                "(chrome://tracing, ui.perfetto.dev)\n",
                recorder.size(), trace_path.c_str());
    obs::RunManifest manifest("fleet_simulation");
    manifest.set("users", std::uint64_t{pop.users});
    manifest.set("runs_per_user", pop.runs_per_user);
    manifest.set("policy", to_string(pop.policy));
    manifest.set("rr_cycle", pop.rr_cycle);
    manifest.set("slots", slots);
    manifest.set("severity", pop.severity);
    manifest.set("threads", static_cast<int>(runner_config.threads));
    manifest.set("trace_events", std::uint64_t{recorder.size()});
    manifest.set("trace_dropped", recorder.dropped());
    manifest.set_wall_seconds(result.wall_seconds);
    const std::string manifest_path = trace_path + ".manifest.json";
    manifest.write(manifest_path, &result.metrics);
    std::printf("manifest:                     %s\n", manifest_path.c_str());
  }
  return 0;
}
