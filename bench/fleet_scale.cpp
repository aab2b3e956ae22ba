// Fleet-runtime scaling bench: users/sec and speedup of a multi-user
// Origin workload at increasing thread counts, plus the determinism check
// that makes the parallelism safe to use for paper numbers — the
// aggregated statistics must be bit-identical at every thread count.
//
//   ./build/bench/fleet_scale [--users N] [--slots N] [--threads a,b,c]
//                             [--json out.json]
//
// Defaults: 64 users, 600-slot streams, threads 1,2,4,8. An unknown flag
// prints usage and exits 2. Note the speedup column measures what the
// host gives us: on a single-core container it stays ~1x by construction;
// on an 8-core host the 8-thread row is the ROADMAP scale-out datum.
#include <stdexcept>
#include <string>

#include "bench_common.hpp"
#include "data/stream_cursor.hpp"
#include "fleet/fleet_runner.hpp"
#include "fleet/thread_pool.hpp"
#include "util/args.hpp"

using namespace origin;

namespace {

/// "1,2,8" -> {1, 2, 8}; throws std::invalid_argument on an empty list or
/// a token that is not a positive integer.
std::vector<unsigned> parse_threads(const std::string& s) {
  std::vector<unsigned> out;
  std::size_t pos = 0;
  while (true) {
    const std::size_t comma = s.find(',', pos);
    const std::string tok = s.substr(pos, comma - pos);
    const bool digits =
        !tok.empty() && tok.find_first_not_of("0123456789") == std::string::npos;
    const unsigned long n = digits ? std::stoul(tok) : 0;
    if (n == 0) {
      throw std::invalid_argument("bad value for --threads: '" + s + "'");
    }
    out.push_back(static_cast<unsigned>(n));
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  std::uint64_t users = 64;
  int slots = 600;
  std::string threads_arg = "1,2,4,8";
  std::string json_path;
  std::vector<unsigned> thread_counts;

  util::ArgParser args("fleet_scale",
                       "fleet users/sec across thread counts, with the "
                       "bit-identity check of the aggregates");
  args.add("users", &users, "users in the population");
  args.add("slots", &slots, "stream length per user, in slots");
  args.add("threads", &threads_arg, "comma-separated thread counts");
  args.add("json", &json_path, "write a run manifest JSON here");
  try {
    if (!args.parse(argc, argv)) return 0;
    thread_counts = parse_threads(threads_arg);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fleet_scale: %s\n%s", e.what(), args.usage().c_str());
    return 2;
  }

  bench::JsonReport report(argc, argv, "fleet_scale");
  report.manifest().set("users", users);
  report.manifest().set("slots", slots);

  auto config = bench::default_config(data::DatasetKind::MHealthLike);
  config.stream_slots = slots;
  std::printf("[setup] building/loading mhealth-like system (cache: %s)...\n",
              bench::cache_dir().c_str());
  sim::Experiment experiment(config);

  fleet::PopulationConfig pop;
  pop.users = users;
  std::printf("\n=== fleet_scale: %llu users x %d slots, Origin RR12 "
              "(host reports %u hardware threads) ===\n",
              static_cast<unsigned long long>(users), slots,
              fleet::ThreadPool::hardware_threads());
  const auto jobs = fleet::make_population(pop);
  // Simulated slots per fleet run — the per-slot and windows/s columns
  // normalize wall time by the work actually done.
  const double total_slots =
      static_cast<double>(jobs.size()) * static_cast<double>(slots);

  util::AsciiTable t({"threads", "wall s", "users/s", "speedup", "slot us",
                      "windows/s", "acc mean %", "acc std %", "success %"});
  double base_seconds = 0.0;
  bool identical = true;
  double total_seconds = 0.0;
  fleet::FleetResult reference;
  for (std::size_t i = 0; i < thread_counts.size(); ++i) {
    fleet::FleetRunnerConfig runner_config;
    runner_config.threads = thread_counts[i];
    const auto r = fleet::FleetRunner(experiment, runner_config).run(jobs);
    if (i == 0) {
      base_seconds = r.wall_seconds;
      reference = r;
    } else {
      // The two halves of the determinism contract: the Welford
      // aggregates and every metric flagged deterministic must be
      // bit-identical at any thread count.
      identical = identical &&
                  r.aggregate.accuracy.mean() ==
                      reference.aggregate.accuracy.mean() &&
                  r.aggregate.accuracy.variance() ==
                      reference.aggregate.accuracy.variance() &&
                  r.aggregate.success_rate.mean() ==
                      reference.aggregate.success_rate.mean() &&
                  obs::MetricsSnapshot::deterministic_equal(
                      r.metrics, reference.metrics);
    }
    total_seconds += r.wall_seconds;
    const double slot_us =
        total_slots > 0.0 ? 1e6 * r.wall_seconds / total_slots : 0.0;
    const double windows_per_s =
        r.wall_seconds > 0.0 ? total_slots / r.wall_seconds : 0.0;
    t.add_row("t=" + std::to_string(thread_counts[i]),
              {r.wall_seconds, r.users_per_second(),
               base_seconds / r.wall_seconds, slot_us, windows_per_s,
               100.0 * r.aggregate.accuracy.mean(),
               100.0 * r.aggregate.accuracy.stddev(),
               r.aggregate.success_rate.mean()});
  }
  t.print();
  std::printf("aggregate + metrics bit-identical across thread counts: %s\n",
              identical ? "yes" : "NO — determinism bug");
  // Per-job stream working set: a materialized Stream holds every slot's
  // three windows for the whole run; the pooled cursor holds only its
  // recycled ring.
  const auto& spec = experiment.system().spec;
  const double slot_kib =
      static_cast<double>(data::kNumSensors) * sizeof(float) *
      static_cast<double>(spec.channels) *
      static_cast<double>(spec.window_len) / 1024.0;
  const int ring = data::StreamCursor::kDefaultRingCapacity;
  const double materialized_kib = static_cast<double>(slots) * slot_kib;
  const double ring_kib = static_cast<double>(ring) * slot_kib;
  std::printf("per-job stream memory: %.0f KiB materialized -> %.0f KiB "
              "cursor ring (%d slots, reused across jobs)\n",
              materialized_kib, ring_kib, ring);
  report.add_table("scaling", t);
  report.manifest().set("identical", identical);
  report.manifest().set("stream_kib_materialized", materialized_kib);
  report.manifest().set("stream_kib_cursor_ring", ring_kib);
  report.manifest().set_wall_seconds(total_seconds);
  report.write(&reference.metrics);
  return identical ? 0 : 1;
}
