// Cost of the serve-tier flight recorder, asserted (non-zero exit on
// violation):
//
//   1. Recorder ON vs OFF (flight_capacity = 0) on an otherwise identical
//      drain costs < --tolerance (default 5%) of wall-clock throughput.
//      Each configuration takes the minimum of --repeat runs, so a single
//      scheduler hiccup cannot fail the gate.
//   2. With -DORIGIN_TRACE=OFF the recording sites are compiled out: the
//      recorder never materializes and the overhead is structurally zero.
//      The bench reports exactly that (and asserts no events exist).
//
// The ON and OFF runs must also agree bit-for-bit on the completed log —
// observation must never perturb the observed system.
//
// Flags: --users N, --slots N, --arrival-rate R, --shards N,
//        --repeat N, --tolerance PCT, --json PATH. An unknown flag, or a
//        flag with no value, prints usage and exits 2.
#include <chrono>
#include <cstdio>
#include <limits>
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
  std::size_t flight_events = 0;
  double wall_seconds = 0.0;
};

RunOutput drain_once(const sim::Experiment& experiment,
                     const serve::ServeConfig& cfg) {
  serve::ServeLoop loop(experiment, cfg);
  const auto begin = std::chrono::steady_clock::now();
  loop.drain(/*chunk=*/32);
  RunOutput out;
  out.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - begin)
          .count();
  out.completed = loop.completed_sessions();
  out.flight_events = loop.flight_events().size();
  return out;
}

/// Minimum wall time over `repeat` drains (completed log kept from the
/// last run — it is identical every time by the determinism contract).
RunOutput best_of(const sim::Experiment& experiment,
                  const serve::ServeConfig& cfg, int repeat) {
  RunOutput best;
  best.wall_seconds = std::numeric_limits<double>::infinity();
  for (int r = 0; r < repeat; ++r) {
    RunOutput out = drain_once(experiment, cfg);
    if (out.wall_seconds < best.wall_seconds) {
      best.wall_seconds = out.wall_seconds;
      best.flight_events = out.flight_events;
    }
    best.completed = std::move(out.completed);
  }
  return best;
}

bool same_completed(const std::vector<serve::CompletedSession>& a,
                    const std::vector<serve::CompletedSession>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].id != b[i].id || a[i].completed_tick != b[i].completed_tick ||
        a[i].outputs_fnv1a != b[i].outputs_fnv1a) {
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  serve::ServeConfig base;
  std::uint64_t users = 16;
  std::uint64_t shards = base.shards;
  int slots = 400;
  int repeat = 3;
  double tolerance_pct = 5.0;
  std::string json_path;  // parsed again by JsonReport below

  util::ArgParser args("obs_overhead",
                       "flight-recorder cost on a serving drain, gated");
  args.add("users", &users, "sessions admitted over the run");
  args.add("slots", &slots, "stream length per session, in slots");
  args.add("arrival-rate", &base.arrival_rate_hz,
           "open-loop arrivals per virtual second");
  args.add("shards", &shards, "session-table shards");
  args.add("repeat", &repeat,
           "drains per configuration; wall time is the fastest");
  args.add("tolerance", &tolerance_pct,
           "maximum recorder overhead, percent of wall time");
  args.add("json", &json_path, "write a run manifest JSON here");
  try {
    if (!args.parse(argc, argv)) return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "obs_overhead: %s\n%s", e.what(),
                 args.usage().c_str());
    return 2;
  }
  base.users = users;
  base.shards = shards;
  if (repeat < 1) repeat = 1;

  bench::JsonReport report(argc, argv, "obs_overhead");
  report.manifest().set("users", std::uint64_t{base.users});
  report.manifest().set("slots", slots);
  report.manifest().set("repeat", repeat);
  report.manifest().set("tolerance_pct", tolerance_pct);
  report.manifest().set("trace_compiled_in", obs::kTraceEnabled);

  auto config = bench::default_config(data::DatasetKind::MHealthLike);
  config.stream_slots = slots;
  std::printf("[setup] building/loading mhealth system (cache: %s)...\n",
              bench::cache_dir().c_str());
  sim::Experiment experiment(config);

  std::printf("\nflight-recorder overhead: %zu users x %d slots, "
              "best of %d\n\n",
              base.users, slots, repeat);

  serve::ServeConfig off = base;
  off.flight_capacity = 0;
  serve::ServeConfig on = base;
  on.flight_capacity = 1 << 15;

  const RunOutput off_run = best_of(experiment, off, repeat);
  const RunOutput on_run = best_of(experiment, on, repeat);

  const double off_rate =
      static_cast<double>(base.users) / off_run.wall_seconds;
  const double on_rate = static_cast<double>(base.users) / on_run.wall_seconds;
  const double overhead_pct =
      100.0 * (on_run.wall_seconds - off_run.wall_seconds) /
      off_run.wall_seconds;

  util::AsciiTable table(
      {"recorder", "wall s", "users/s", "events", "overhead %"});
  table.add_row({"off", util::AsciiTable::format(off_run.wall_seconds, 3),
                 util::AsciiTable::format(off_rate, 2), "0", "-"});
  table.add_row({"on", util::AsciiTable::format(on_run.wall_seconds, 3),
                 util::AsciiTable::format(on_rate, 2),
                 std::to_string(on_run.flight_events),
                 util::AsciiTable::format(overhead_pct, 2)});
  table.print();
  report.add_table("overhead", table);

  bool ok = true;
  if (!same_completed(off_run.completed, on_run.completed)) {
    std::fprintf(stderr,
                 "FAIL: recorder on/off changed the completed log\n");
    ok = false;
  }
  if (!obs::kTraceEnabled) {
    // Compiled out: the recorder never exists, so the cost is structural
    // zero — nothing to measure against the tolerance.
    if (on_run.flight_events != 0) {
      std::fprintf(stderr,
                   "FAIL: -DORIGIN_TRACE=OFF build recorded %zu events\n",
                   on_run.flight_events);
      ok = false;
    }
    std::printf("\ntrace compiled out: 0 events recorded, overhead "
                "structurally 0\n");
  } else {
    if (on_run.flight_events == 0) {
      std::fprintf(stderr, "FAIL: recorder on but no events recorded\n");
      ok = false;
    }
    if (overhead_pct > tolerance_pct) {
      std::fprintf(stderr, "FAIL: overhead %.2f%% exceeds tolerance %.2f%%\n",
                   overhead_pct, tolerance_pct);
      ok = false;
    } else {
      std::printf("\noverhead %.2f%% within tolerance %.2f%%\n", overhead_pct,
                  tolerance_pct);
    }
  }

  report.manifest().set("overhead_pct", obs::kTraceEnabled ? overhead_pct
                                                           : 0.0);
  report.manifest().set("within_tolerance", ok);
  report.write();
  return ok ? 0 : 1;
}
