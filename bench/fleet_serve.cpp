// Sustained serving throughput + latency for the src/serve subsystem, and
// the subsystem's hard guarantees, asserted (non-zero exit on any
// divergence):
//
//   1. Bit-identity across thread counts: the completed-session log
//      (per-slot outputs, checksums), every deterministic metric and the
//      flight-recorder event stream are identical at threads 1/2/8.
//   2. Bit-identity across a snapshot/restore split: serving N ticks at
//      2 threads, snapshotting, restoring into a fresh process at 8
//      threads and serving the rest equals the uninterrupted run.
//
// Reported: sustained users/sec and slots/sec per thread count, the mean
// cross-session GEMM panel occupancy (DESIGN.md §15), and p50/p99
// per-slot service latency from the serve.step_seconds histogram.
//
// Flags: --users N, --slots N, --arrival-rate R, --shards N, --json PATH.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "serve/serve_loop.hpp"
#include "util/args.hpp"
#include "util/table.hpp"

using namespace origin;

namespace {

struct RunOutput {
  std::vector<serve::CompletedSession> completed;
  obs::MetricsSnapshot metrics;
  std::vector<obs::TraceEvent> flight;
  serve::ServeLoop::Status status;
  double wall_seconds = 0.0;
  double slots_per_s = 0.0;
};

RunOutput drain_loop(serve::ServeLoop& loop) {
  const auto begin = std::chrono::steady_clock::now();
  loop.drain(/*chunk=*/32);
  RunOutput out;
  out.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - begin)
          .count();
  out.completed = loop.completed_sessions();
  out.metrics = loop.metrics();
  out.status = loop.status();
  // Fixed drain chunk above: the flight stream is then a pure function of
  // the workload, so it must be bit-identical across thread counts.
  out.flight = loop.flight_events();
  return out;
}

bool same_completed(const std::vector<serve::CompletedSession>& a,
                    const std::vector<serve::CompletedSession>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].id != b[i].id || a[i].completed_tick != b[i].completed_tick ||
        a[i].outputs_fnv1a != b[i].outputs_fnv1a ||
        a[i].outputs != b[i].outputs || a[i].accuracy != b[i].accuracy ||
        a[i].success_rate != b[i].success_rate) {
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  serve::ServeConfig base;
  base.users = 24;
  int slots = 600;
  std::uint64_t users = base.users;
  std::uint64_t shards = base.shards;
  std::string backend;  // empty = keep ORIGIN_BACKEND / reference default
  std::string policy_name = to_string(base.policy);
  std::string set_name = to_string(base.set);
  int repeat = 3;
  std::string json_path;  // parsed again by JsonReport below

  util::ArgParser args("fleet_serve",
                       "sustained serving throughput + bit-identity checks");
  args.add("users", &users, "sessions admitted over the run");
  args.add("slots", &slots, "stream length per session, in slots");
  args.add("arrival-rate", &base.arrival_rate_hz,
           "open-loop arrivals per virtual second");
  args.add("shards", &shards, "session-table shards");
  args.add("policy", &policy_name, "naive|rr|aas|aasr|origin");
  args.add("set", &set_name,
           "deployed model set: bl2 | relaxed (confidence variant)");
  args.add("repeat", &repeat,
           "timed runs per cell; wall time is the fastest (noise floor)");
  args.add("backend", &backend,
           "kernel backend: reference|avx2|neon|auto (default keeps "
           "ORIGIN_BACKEND or reference)");
  args.add("bits", &base.bits,
           "inference word width: 32 (float) or 2..8 (int8 serving path)");
  args.add("json", &json_path, "write a run manifest JSON here");
  try {
    if (!args.parse(argc, argv)) return 0;
    if (!backend.empty() && !nn::kernels::set_backend(backend)) {
      throw std::invalid_argument("unknown or unavailable backend '" +
                                  backend + "'");
    }
    base.policy = sim::parse_policy_kind(policy_name);
    if (set_name == "bl2") {
      base.set = sim::ModelSet::BL2;
    } else if (set_name == "relaxed") {
      base.set = sim::ModelSet::Relaxed;
    } else {
      throw std::invalid_argument("unknown model set '" + set_name + "'");
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fleet_serve: %s\n%s", e.what(), args.usage().c_str());
    return 2;
  }
  base.users = users;
  base.shards = shards;

  // JsonReport re-scans argv for --json and stamps the (now switched)
  // kernel backend into the manifest.
  bench::JsonReport report(argc, argv, "fleet_serve");
  report.manifest().set("users", std::uint64_t{base.users});
  report.manifest().set("slots", slots);
  report.manifest().set("arrival_rate_hz", base.arrival_rate_hz);
  report.manifest().set("shards", std::uint64_t{base.shards});
  report.manifest().set("policy", to_string(base.policy));
  report.manifest().set("set", to_string(base.set));
  report.manifest().set("bits", base.bits);

  auto config = bench::default_config(data::DatasetKind::MHealthLike);
  config.stream_slots = slots;
  std::printf("[setup] building/loading mhealth system (cache: %s)...\n",
              bench::cache_dir().c_str());
  sim::Experiment experiment(config);

  std::printf("\nopen-loop serving: %zu users, %d-slot sessions, "
              "%.1f arrivals/s, %zu shards\n\n",
              base.users, slots, base.arrival_rate_hz, base.shards);

  {
    // Untimed warmup drain: faults in the models, stream sources and
    // kernel scratch arenas so the first measured cell below isn't
    // charged for one-time setup.
    serve::ServeConfig cfg = base;
    cfg.threads = 1;
    serve::ServeLoop warm(experiment, cfg);
    warm.drain(/*chunk=*/32);
  }

  util::AsciiTable table({"threads", "wall s", "users/s", "slots/s", "occ",
                          "p50 us", "p99 us"});
  bool ok = true;
  RunOutput reference;  // threads=1: the baseline
  double best_slots_per_s = 0.0;
  for (unsigned threads : {1u, 2u, 8u}) {
    serve::ServeConfig cfg = base;
    cfg.threads = threads;
    // Identity checks use the first run; the reported wall time is the
    // fastest of --repeat runs (the workload is deterministic, so the
    // minimum is the least co-tenant-noise estimate).
    RunOutput out;
    for (int r = 0; r < std::max(1, repeat); ++r) {
      serve::ServeLoop loop(experiment, cfg);
      RunOutput this_run = drain_loop(loop);
      if (r == 0) {
        out = std::move(this_run);
      } else if (this_run.wall_seconds < out.wall_seconds) {
        out.wall_seconds = this_run.wall_seconds;
      }
    }

    const auto* step = out.metrics.find("serve.step_seconds");
    const auto& cell = out.metrics.histograms[step->slot];
    out.slots_per_s = static_cast<double>(cell.count) / out.wall_seconds;
    table.add_row(
        {std::to_string(threads),
         util::AsciiTable::format(out.wall_seconds, 2),
         util::AsciiTable::format(
             static_cast<double>(base.users) / out.wall_seconds, 2),
         util::AsciiTable::format(out.slots_per_s, 0),
         util::AsciiTable::format(out.status.batch_mean_occupancy, 2),
         util::AsciiTable::format(
             1e6 * obs::histogram_quantile(cell, step->upper_bounds, 0.5), 1),
         util::AsciiTable::format(
             1e6 * obs::histogram_quantile(cell, step->upper_bounds, 0.99),
             1)});
    best_slots_per_s = std::max(best_slots_per_s, out.slots_per_s);

    if (threads == 1) {
      reference = std::move(out);
      continue;
    }
    if (!same_completed(reference.completed, out.completed)) {
      std::fprintf(stderr, "FAIL: completed log diverges at threads=%u\n",
                   threads);
      ok = false;
    }
    if (!obs::MetricsSnapshot::deterministic_equal(reference.metrics,
                                                   out.metrics)) {
      std::fprintf(stderr,
                   "FAIL: deterministic metrics diverge at threads=%u\n",
                   threads);
      ok = false;
    }
    if (reference.flight != out.flight) {
      std::fprintf(stderr,
                   "FAIL: flight event stream diverges at threads=%u\n",
                   threads);
      ok = false;
    }
  }
  table.print();
  report.add_table("serving", table);

  const double occupancy = reference.status.batch_mean_occupancy;
  std::printf("\ncross-session batching: best %.0f slots/s, mean panel "
              "occupancy %.2f\n",
              best_slots_per_s, occupancy);
  report.manifest().set("slots_per_s_batched", best_slots_per_s);
  report.manifest().set("batch_mean_occupancy", occupancy);

  // Snapshot-split check: half the virtual timeline at 2 threads, save,
  // restore into a fresh loop at 8 threads (a different thread count on
  // purpose), serve the rest.
  const std::string snap_path = "fleet_serve_bench.snap";
  {
    serve::ServeConfig cfg = base;
    cfg.threads = 2;
    serve::ServeLoop first(experiment, cfg);
    const std::uint64_t half =
        first.arrivals().last_tick() / 2 + 1;
    first.tick(half);
    first.save(snap_path);

    cfg.threads = 8;
    serve::ServeLoop second(experiment, cfg);
    second.restore(snap_path);
    second.drain(32);

    const bool log_ok =
        same_completed(reference.completed, second.completed_sessions());
    const bool metrics_ok = obs::MetricsSnapshot::deterministic_equal(
        reference.metrics, second.metrics());
    std::printf("snapshot split at tick %llu (2 -> 8 threads): "
                "completed log %s, deterministic metrics %s\n",
                static_cast<unsigned long long>(half),
                log_ok ? "bit-identical" : "DIVERGED",
                metrics_ok ? "bit-identical" : "DIVERGED");
    if (!log_ok || !metrics_ok) ok = false;
    std::remove(snap_path.c_str());
  }

  report.manifest().set("bit_identical", ok);
  report.write(&reference.metrics);
  if (!ok) {
    std::fprintf(stderr, "fleet_serve: bit-identity check FAILED\n");
    return 1;
  }
  std::printf("bit-identity: completed logs, deterministic metrics and "
              "flight event streams equal across threads 1/2/8, and the "
              "2->8-thread snapshot split reproduces the uninterrupted "
              "run\n");
  return 0;
}
