// Fleet-scale personalization: measures the three pieces this subsystem
// adds and asserts their determinism contracts (non-zero exit on any
// divergence):
//
//   1. Parallel pipeline calibration — calibrate_system wall-clock at
//      --threads 1/2/8, bit-identical rank tables, per-class calibration
//      accuracies and confidence matrices at every thread count.
//   2. In-shard bounded fine-tuning — per-slot serving overhead with
//      personalization on vs off at 1 and 2 threads, per-user served
//      accuracy frozen vs fine-tuned, and bit-identity of the completed
//      logs across thread counts.
//   3. Delta-encoded per-user storage — mean serialized delta bytes per
//      tuned user vs the full three-model file size, and the bytes a
//      mid-flight snapshot spends per active session with
//      personalization off vs on (the difference is the session's sample
//      buffer, stored as slot recipes, and its deltas).
//
// Flags: --users N, --slots N, --json PATH.
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "nn/serialize.hpp"
#include "serve/serve_loop.hpp"
#include "util/args.hpp"
#include "util/fileio.hpp"
#include "util/table.hpp"

using namespace origin;

namespace {

double seconds_since(std::chrono::steady_clock::time_point begin) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       begin)
      .count();
}

bool same_system_tables(const core::TrainedSystem& a,
                        const core::TrainedSystem& b) {
  const int num_classes = a.spec.num_classes();
  for (std::size_t s = 0; s < data::kNumSensors; ++s) {
    if (a.calib_accuracy[s] != b.calib_accuracy[s]) return false;
    if (a.calib_accuracy_relaxed[s] != b.calib_accuracy_relaxed[s]) {
      return false;
    }
  }
  for (int c = 0; c < num_classes; ++c) {
    for (int r = 0; r < data::kNumSensors; ++r) {
      if (a.ranks.sensor_at(c, r) != b.ranks.sensor_at(c, r)) return false;
      if (a.ranks_relaxed.sensor_at(c, r) != b.ranks_relaxed.sensor_at(c, r)) {
        return false;
      }
    }
    for (int s = 0; s < data::kNumSensors; ++s) {
      const auto loc = static_cast<data::SensorLocation>(s);
      if (a.confidence.weight(loc, c) != b.confidence.weight(loc, c)) {
        return false;
      }
      if (a.confidence_relaxed.weight(loc, c) !=
          b.confidence_relaxed.weight(loc, c)) {
        return false;
      }
    }
  }
  return true;
}

bool same_completed(const std::vector<serve::CompletedSession>& a,
                    const std::vector<serve::CompletedSession>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].id != b[i].id || a[i].completed_tick != b[i].completed_tick ||
        a[i].outputs_fnv1a != b[i].outputs_fnv1a ||
        a[i].outputs != b[i].outputs ||
        a[i].fine_tunes != b[i].fine_tunes ||
        a[i].fine_tune_steps != b[i].fine_tune_steps ||
        a[i].delta_bytes != b[i].delta_bytes ||
        a[i].personalize_j != b[i].personalize_j) {
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::uint64_t users = 12;
  int slots = 300;
  std::string json_path;

  util::ArgParser args("personalize",
                       "parallel calibration + served fine-tuning: wall-clock, "
                       "overhead, delta storage, bit-identity checks");
  args.add("users", &users, "sessions served in the fine-tuning runs");
  args.add("slots", &slots, "stream length per session, in slots");
  args.add("json", &json_path, "write a run manifest JSON here");
  try {
    if (!args.parse(argc, argv)) return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "personalize: %s\n%s", e.what(), args.usage().c_str());
    return 2;
  }

  bench::JsonReport report(argc, argv, "personalize");
  report.manifest().set("users", users);
  report.manifest().set("slots", slots);

  auto config = bench::default_config(data::DatasetKind::MHealthLike);
  config.stream_slots = slots;
  std::printf("[setup] building/loading mhealth system (cache: %s)...\n",
              bench::cache_dir().c_str());
  sim::Experiment experiment(config);
  bool ok = true;

  // --- 1. Parallel calibration ---------------------------------------
  std::printf("\ncalibration stage (3 syntheses + 6 measurement passes):\n");
  util::AsciiTable calib_table({"threads", "wall s", "speedup"});
  core::TrainedSystem reference_system = experiment.system();
  double serial_s = 0.0;
  for (int threads : {1, 2, 8}) {
    core::TrainedSystem system = experiment.system();
    core::PipelineConfig cfg = config.pipeline;
    cfg.train_threads = threads;
    const auto begin = std::chrono::steady_clock::now();
    core::calibrate_system(system, cfg);
    const double wall = seconds_since(begin);
    if (threads == 1) {
      serial_s = wall;
      reference_system = std::move(system);
    } else if (!same_system_tables(reference_system, system)) {
      std::fprintf(stderr, "FAIL: calibration diverges at threads=%d\n",
                   threads);
      ok = false;
    }
    calib_table.add_row({std::to_string(threads),
                         util::AsciiTable::format(wall, 3),
                         util::AsciiTable::format(serial_s / wall, 2)});
  }
  calib_table.print();
  report.add_table("calibration", calib_table);

  // --- 2. Served fine-tuning overhead --------------------------------
  // Timed at 1 thread and at 2 (the repository benchmark's count), so the
  // rows show how fits schedule across the pool.
  serve::ServeConfig base;
  base.users = users;
  base.shards = 4;
  std::printf("\nserving %llu users x %d slots, personalization off vs on:\n",
              static_cast<unsigned long long>(users), slots);
  util::AsciiTable serve_table(
      {"threads", "fine-tune", "wall s", "us/slot", "fine-tunes", "steps"});
  std::vector<serve::CompletedSession> frozen_log, tuned_log;
  struct Overhead {
    unsigned threads;
    double frozen_us_per_slot, tuned_us_per_slot;
  };
  std::vector<Overhead> overheads;
  for (unsigned threads : {1u, 2u}) {
    double frozen_us_per_slot = 0.0, tuned_us_per_slot = 0.0;
    for (bool personalize : {false, true}) {
      serve::ServeConfig cfg = base;
      cfg.personalize.enabled = personalize;
      cfg.threads = threads;
      serve::ServeLoop loop(experiment, cfg);
      const auto begin = std::chrono::steady_clock::now();
      loop.drain(/*chunk=*/32);
      const double wall = seconds_since(begin);
      const auto status = loop.status();
      const double us_per_slot =
          1e6 * wall / static_cast<double>(status.slots_served);
      std::uint64_t tunes = 0, steps = 0;
      for (const auto& c : loop.completed_sessions()) {
        tunes += c.fine_tunes;
        steps += c.fine_tune_steps;
      }
      serve_table.add_row({std::to_string(threads),
                           personalize ? "on" : "off",
                           util::AsciiTable::format(wall, 2),
                           util::AsciiTable::format(us_per_slot, 1),
                           std::to_string(tunes), std::to_string(steps)});
      if (personalize) {
        tuned_us_per_slot = us_per_slot;
      } else {
        frozen_us_per_slot = us_per_slot;
      }
      std::vector<serve::CompletedSession>& log =
          personalize ? tuned_log : frozen_log;
      if (threads == 1) {
        log = loop.completed_sessions();
      } else if (!same_completed(log, loop.completed_sessions())) {
        std::fprintf(stderr,
                     "FAIL: %s completed log diverges at threads=%u\n",
                     personalize ? "fine-tuned" : "frozen", threads);
        ok = false;
      }
    }
    overheads.push_back({threads, frozen_us_per_slot, tuned_us_per_slot});
  }
  serve_table.print();
  for (const Overhead& o : overheads) {
    const double extra = o.tuned_us_per_slot - o.frozen_us_per_slot;
    std::printf("fine-tuning overhead at %u thread(s): %.1f us/slot (%.1f%%)\n",
                o.threads, extra, 100.0 * extra / o.frozen_us_per_slot);
  }
  report.add_table("serving", serve_table);

  // Per-user served accuracy, frozen vs fine-tuned: same users, streams
  // and arrivals, so a user's two runs differ only by its fine-tunes.
  std::printf("\nper-user served accuracy, personalization off vs on:\n");
  util::AsciiTable accuracy_table(
      {"user", "frozen %", "tuned %", "change pts", "fine-tunes"});
  double frozen_sum = 0.0, tuned_sum = 0.0;
  for (const auto& tuned : tuned_log) {
    for (const auto& frozen : frozen_log) {
      if (frozen.id != tuned.id) continue;
      const double frozen_pct = 100.0 * frozen.accuracy;
      const double tuned_pct = 100.0 * tuned.accuracy;
      frozen_sum += frozen_pct;
      tuned_sum += tuned_pct;
      accuracy_table.add_row(
          {std::to_string(tuned.id), util::AsciiTable::format(frozen_pct, 2),
           util::AsciiTable::format(tuned_pct, 2),
           util::AsciiTable::format(tuned_pct - frozen_pct, 2),
           std::to_string(tuned.fine_tunes)});
    }
  }
  const double n = static_cast<double>(tuned_log.size());
  accuracy_table.add_row(
      {"mean", util::AsciiTable::format(frozen_sum / n, 2),
       util::AsciiTable::format(tuned_sum / n, 2),
       util::AsciiTable::format((tuned_sum - frozen_sum) / n, 2), ""});
  accuracy_table.print();
  report.add_table("accuracy", accuracy_table);

  // Bit-identity of the fine-tuned serve at 8 threads (the timed rows
  // above check 2).
  {
    serve::ServeConfig cfg = base;
    cfg.personalize.enabled = true;
    cfg.threads = 8;
    serve::ServeLoop loop(experiment, cfg);
    loop.drain(/*chunk=*/32);
    if (!same_completed(tuned_log, loop.completed_sessions())) {
      std::fprintf(stderr,
                   "FAIL: fine-tuned completed log diverges at threads=8\n");
      ok = false;
    }
  }

  // --- 3. Delta storage ----------------------------------------------
  const std::uint64_t full_bytes =
      3 * nn::model_to_string(experiment.system().bl2_copy()[0]).size();
  std::uint64_t delta_sum = 0, tuned_users = 0;
  for (const auto& c : tuned_log) {
    if (c.fine_tunes == 0) continue;
    delta_sum += c.delta_bytes;
    ++tuned_users;
  }
  const double mean_delta =
      tuned_users ? static_cast<double>(delta_sum) /
                        static_cast<double>(tuned_users)
                  : 0.0;
  util::AsciiTable delta_table(
      {"tuned users", "delta B/user", "full model B", "ratio"});
  delta_table.add_row(
      {std::to_string(tuned_users), util::AsciiTable::format(mean_delta, 0),
       std::to_string(full_bytes),
       util::AsciiTable::format(
           mean_delta > 0 ? static_cast<double>(full_bytes) / mean_delta : 0.0,
           1)});
  std::printf("\nper-user storage (delta vs full 3-net model file):\n");
  delta_table.print();
  report.add_table("storage", delta_table);
  if (tuned_users == 0) {
    std::fprintf(stderr, "FAIL: no session fine-tuned — workload too short\n");
    ok = false;
  } else if (10.0 * mean_delta > static_cast<double>(full_bytes)) {
    std::fprintf(stderr, "FAIL: delta storage less than 10x smaller\n");
    ok = false;
  }

  // Mid-flight snapshot bytes per active session, halfway through the
  // longest possible run (every session admitted by then is still
  // mid-stream or just done).
  const std::string snap_path =
      (std::filesystem::temp_directory_path() /
       ("personalize_bench_" + std::to_string(::getpid()) + ".snap"))
          .string();
  util::AsciiTable snapshot_table(
      {"fine-tune", "active sessions", "snapshot B", "B/session"});
  for (bool personalize : {false, true}) {
    serve::ServeConfig cfg = base;
    cfg.personalize.enabled = personalize;
    serve::ServeLoop loop(experiment, cfg);
    loop.tick(static_cast<std::uint64_t>(slots / 2));
    loop.save(snap_path);
    const std::uint64_t bytes = util::read_file(snap_path).size();
    const std::uint64_t active = loop.status().active;
    snapshot_table.add_row(
        {personalize ? "on" : "off", std::to_string(active),
         std::to_string(bytes),
         util::AsciiTable::format(
             active ? static_cast<double>(bytes) / static_cast<double>(active)
                    : 0.0,
             0)});
  }
  std::remove(snap_path.c_str());
  std::printf("\nmid-flight snapshot bytes (buffered samples as slot "
              "recipes, snapshot v8):\n");
  snapshot_table.print();
  report.add_table("snapshot", snapshot_table);

  report.manifest().set("bit_identical", ok);
  report.write();
  if (!ok) {
    std::fprintf(stderr, "personalize: check FAILED\n");
    return 1;
  }
  std::printf("\nbit-identity: calibration tables equal at threads 1/2/8; "
              "fine-tuned completed logs equal at threads 1/2/8; deltas "
              ">=10x smaller than full model files\n");
  return 0;
}
