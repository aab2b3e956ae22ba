// Snapshot/restore of the serving loop: the byte codec, the atomic file
// helpers, and the headline guarantee — serve N ticks, snapshot, restore
// into a fresh loop and serve the rest, and the completed-session log and
// every deterministic metric are bit-identical to a run that never
// stopped, at threads 1/2/8 and across the split.
#include "serve/snapshot.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <functional>
#include <limits>
#include <stdexcept>

#include "nn/kernels/backend.hpp"
#include "serve/serve_loop.hpp"
#include "util/bytes.hpp"
#include "util/fileio.hpp"

namespace origin::serve {
namespace {

core::PipelineConfig micro_pipeline() {
  core::PipelineConfig cfg;
  cfg.train_per_class = 12;
  cfg.calib_per_class = 6;
  cfg.test_per_class = 6;
  cfg.train.epochs = 2;
  cfg.use_cache = false;
  cfg.seed = 4242;
  return cfg;
}

class ServeSnapshotTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    sim::ExperimentConfig cfg;
    cfg.pipeline = micro_pipeline();
    cfg.stream_slots = 60;
    experiment_ = new sim::Experiment(cfg);
  }
  static void TearDownTestSuite() {
    delete experiment_;
    experiment_ = nullptr;
  }

  static ServeConfig small_config() {
    ServeConfig cfg;
    cfg.users = 6;
    cfg.arrival_rate_hz = 2.0;
    cfg.shards = 3;
    cfg.policy = sim::PolicyKind::Origin;
    return cfg;
  }

  static std::string temp_path(const std::string& name) {
    return testing::TempDir() + "/" + name;
  }

  static void expect_same_completed(
      const std::vector<CompletedSession>& a,
      const std::vector<CompletedSession>& b) {
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      SCOPED_TRACE(i);
      EXPECT_EQ(a[i].id, b[i].id);
      EXPECT_EQ(a[i].arrival_tick, b[i].arrival_tick);
      EXPECT_EQ(a[i].completed_tick, b[i].completed_tick);
      EXPECT_EQ(a[i].slots, b[i].slots);
      EXPECT_EQ(a[i].accuracy, b[i].accuracy);
      EXPECT_EQ(a[i].success_rate, b[i].success_rate);
      EXPECT_EQ(a[i].harvested_j, b[i].harvested_j);
      EXPECT_EQ(a[i].consumed_j, b[i].consumed_j);
      EXPECT_EQ(a[i].outputs_fnv1a, b[i].outputs_fnv1a);
      EXPECT_EQ(a[i].outputs, b[i].outputs);
    }
  }

  /// Saves a mid-flight snapshot, rewrites its version word to
  /// `version`, and checks that restore refuses it naming the version.
  static void expect_version_refused(std::uint32_t version) {
    ServeConfig cfg = small_config();
    cfg.personalize.enabled = true;
    ServeLoop first(*experiment_, cfg);
    first.tick(30);
    const std::string path = temp_path("v" + std::to_string(version) + ".snap");
    first.save(path);
    std::string old = util::read_file(path);
    for (int b = 0; b < 4; ++b) old[8 + b] = static_cast<char>(version >> (8 * b));
    util::write_file_atomic(path, old);
    ServeLoop loop(*experiment_, cfg);
    try {
      loop.restore(path);
      ADD_FAILURE() << "a v" << version << " snapshot was restored";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("unsupported version " +
                                           std::to_string(version)),
                std::string::npos)
          << e.what();
    }
    std::remove(path.c_str());
  }

  static sim::Experiment* experiment_;
};

sim::Experiment* ServeSnapshotTest::experiment_ = nullptr;

TEST(SnapshotCodec, RoundTripsEveryType) {
  util::ByteWriter w;
  w.u8(0xAB);
  w.i16(-2);
  w.u32(0xDEADBEEFu);
  w.u64(0x0123456789ABCDEFull);
  w.i32(-42);
  w.f32(1.5f);
  w.f64(-0.1);
  w.f64(std::numeric_limits<double>::infinity());
  w.str("backend");
  const float floats[3] = {0.25f, -3.0f, 1e-30f};
  w.f32s(floats, 3);
  w.raw("xy", 2);

  util::ByteReader r(w.bytes(), "test");
  EXPECT_EQ(r.u8(), 0xAB);
  EXPECT_EQ(r.i16(), -2);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(r.i32(), -42);
  EXPECT_EQ(r.f32(), 1.5f);
  EXPECT_EQ(r.f64(), -0.1);  // bitwise round-trip, not approximate
  EXPECT_EQ(r.f64(), std::numeric_limits<double>::infinity());
  EXPECT_EQ(r.str(), "backend");
  float back[3] = {};
  r.f32s(back, 3);
  for (int i = 0; i < 3; ++i) EXPECT_EQ(back[i], floats[i]);
  // A length prefix is only accepted when its elements fit in the bytes
  // left (2 here); a larger one throws before a caller could allocate.
  EXPECT_EQ(r.length(2), 2u);
  EXPECT_EQ(r.length(1, 2), 1u);
  EXPECT_THROW(r.length(3), std::runtime_error);
  EXPECT_THROW(r.length(1ULL << 62, 8), std::runtime_error);
  EXPECT_THROW(r.length(~0ULL, 1), std::runtime_error);
  const char* p = r.take(2);
  EXPECT_EQ(p[0], 'x');
  EXPECT_EQ(p[1], 'y');
  EXPECT_TRUE(r.exhausted());
  EXPECT_THROW(r.u8(), std::runtime_error);
  EXPECT_THROW(r.take(~std::size_t{0}), std::runtime_error);
}

TEST(SnapshotCodec, AtomicWriteAndRead) {
  const std::string path = testing::TempDir() + "/codec_file.bin";
  util::write_file_atomic(path, "hello snapshot");
  EXPECT_EQ(util::read_file(path), "hello snapshot");
  util::write_file_atomic(path, "v2");  // replaces atomically
  EXPECT_EQ(util::read_file(path), "v2");
  std::remove(path.c_str());
  EXPECT_THROW(util::read_file(path), std::runtime_error);
  EXPECT_THROW(util::write_file_atomic("/no/such/dir/x.bin", "z"),
               std::runtime_error);
}

TEST_F(ServeSnapshotTest, SplitRunBitIdenticalToUninterrupted) {
  // The acceptance check of the subsystem: serve N slots, snapshot,
  // restore into a fresh ServeLoop, serve the rest — bit-identical to
  // the uninterrupted run, at threads 1/2/8 (restoring under a different
  // thread count than the save, on purpose). The cross-session panel
  // stats ride the snapshot, so they are continuous across the split and
  // the deterministic-metrics comparison covers them too.
  ServeConfig cfg = small_config();
  ServeLoop uninterrupted(*experiment_, cfg);
  uninterrupted.drain(/*chunk=*/5);
  const auto full_log = uninterrupted.completed_sessions();
  const auto full_metrics = uninterrupted.metrics();
  ASSERT_EQ(full_log.size(), cfg.users);

  for (unsigned threads : {1u, 2u, 8u}) {
    SCOPED_TRACE(threads);
    const std::string path =
        temp_path("split_" + std::to_string(threads) + ".snap");

    ServeConfig first_cfg = cfg;
    first_cfg.threads = threads;
    ServeLoop first(*experiment_, first_cfg);
    first.tick(13);  // mid-flight: arrivals pending, sessions part-served
    ASSERT_FALSE(first.done());
    const auto saved_status = first.status();
    EXPECT_GT(saved_status.batch_panels, 0u);
    first.save(path);

    ServeConfig second_cfg = cfg;
    second_cfg.threads = threads == 1 ? 2 : 1;
    ServeLoop second(*experiment_, second_cfg);
    second.restore(path);
    EXPECT_EQ(second.now(), first.now());
    EXPECT_EQ(second.status().admitted, saved_status.admitted);
    EXPECT_EQ(second.status().batch_panels, saved_status.batch_panels);
    EXPECT_EQ(second.status().batch_windows, saved_status.batch_windows);
    second.drain(/*chunk=*/5);

    expect_same_completed(second.completed_sessions(), full_log);
    EXPECT_TRUE(obs::MetricsSnapshot::deterministic_equal(
        second.metrics(), full_metrics));
    std::remove(path.c_str());
  }
}

TEST_F(ServeSnapshotTest, SavedSummariesSurviveRestore) {
  ServeConfig cfg = small_config();
  ServeLoop first(*experiment_, cfg);
  first.tick(9);
  const auto before = first.session_summaries();
  ASSERT_FALSE(before.empty());
  const std::string path = temp_path("summaries.snap");
  first.save(path);

  ServeLoop second(*experiment_, cfg);
  second.restore(path);
  const auto after = second.session_summaries();
  ASSERT_EQ(after.size(), before.size());
  for (std::size_t i = 0; i < before.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(after[i].id, before[i].id);
    EXPECT_EQ(after[i].slots_done, before[i].slots_done);
    EXPECT_EQ(after[i].accuracy, before[i].accuracy);
    EXPECT_EQ(after[i].attempts, before[i].attempts);
    for (std::size_t s = 0; s < data::kNumSensors; ++s) {
      EXPECT_EQ(after[i].stored_j[s], before[i].stored_j[s]);
    }
  }
  std::remove(path.c_str());
}

TEST_F(ServeSnapshotTest, RestoreRequiresFreshLoop) {
  ServeConfig cfg = small_config();
  ServeLoop first(*experiment_, cfg);
  first.tick(4);
  const std::string path = temp_path("fresh.snap");
  first.save(path);

  ServeLoop ticked(*experiment_, cfg);
  ticked.tick(1);
  EXPECT_THROW(ticked.restore(path), std::runtime_error);
  std::remove(path.c_str());
}

TEST_F(ServeSnapshotTest, ConfigFingerprintMismatchRejected) {
  ServeConfig cfg = small_config();
  ServeLoop first(*experiment_, cfg);
  first.tick(4);
  const std::string path = temp_path("fingerprint.snap");
  first.save(path);

  // Every fingerprinted field refuses the restore and is named in the
  // error.
  const std::vector<std::pair<std::string, std::function<void(ServeConfig&)>>>
      fingerprinted = {
          {"users", [](ServeConfig& c) { c.users += 1; }},
          {"arrival_rate_hz", [](ServeConfig& c) { c.arrival_rate_hz *= 2; }},
          {"arrival_seed", [](ServeConfig& c) { c.arrival_seed += 1; }},
          {"population_seed", [](ServeConfig& c) { c.population_seed += 1; }},
          {"severity", [](ServeConfig& c) { c.severity = 0.25; }},
          {"policy", [](ServeConfig& c) { c.policy = sim::PolicyKind::AASR; }},
          {"rr_cycle", [](ServeConfig& c) { c.rr_cycle = 3; }},
          {"set", [](ServeConfig& c) { c.set = sim::ModelSet::Relaxed; }},
          {"shards", [](ServeConfig& c) { c.shards += 1; }},
          {"bits", [](ServeConfig& c) { c.bits = 8; }},
      };
  for (const auto& [name, mutate] : fingerprinted) {
    SCOPED_TRACE(name);
    ServeConfig other = cfg;
    mutate(other);
    ServeLoop loop(*experiment_, other);
    try {
      loop.restore(path);
      ADD_FAILURE() << "restored under a different " << name;
    } catch (const std::runtime_error& e) {
      EXPECT_EQ(std::string(e.what()), "snapshot config mismatch: " + name);
    }
  }

  // Threads and the ring capacities are NOT part of the fingerprint.
  const std::vector<std::function<void(ServeConfig&)>> free_fields = {
      [](ServeConfig& c) { c.threads = 4; },
      [](ServeConfig& c) { c.results_capacity = 16; },
      [](ServeConfig& c) { c.flight_capacity = 0; },
  };
  for (const auto& mutate : free_fields) {
    ServeConfig other = cfg;
    mutate(other);
    ServeLoop loop(*experiment_, other);
    EXPECT_NO_THROW(loop.restore(path));
  }
  std::remove(path.c_str());
}

TEST_F(ServeSnapshotTest, V6SnapshotRefusedNamingTheVersion) {
  // A v6 process drew every window from the sequential stream; a restored
  // cursor here derives keyed windows instead, and the fingerprint does
  // not cover the stream, so the version alone must refuse the file.
  ASSERT_EQ(kSnapshotVersion, 8u);
  expect_version_refused(6);
}

TEST_F(ServeSnapshotTest, V7SnapshotRefusedNamingTheVersion) {
  // A v7 snapshot stores a buffered personalization sample as its three
  // windows; v8 reads a slot recipe in its place, so the version must
  // refuse the file before a record is misread.
  ASSERT_EQ(kSnapshotVersion, 8u);
  expect_version_refused(7);
}

TEST_F(ServeSnapshotTest, CorruptAndTruncatedFilesRejected) {
  ServeConfig cfg = small_config();
  ServeLoop first(*experiment_, cfg);
  first.tick(4);
  const std::string path = temp_path("corrupt.snap");
  first.save(path);
  const std::string good = util::read_file(path);

  // Bad magic.
  std::string bad = good;
  bad[0] = 'X';
  util::write_file_atomic(path, bad);
  {
    ServeLoop loop(*experiment_, cfg);
    EXPECT_THROW(loop.restore(path), std::runtime_error);
  }

  // Unsupported versions: a future one, and the previous one (whose
  // sessions' cursors served windows of the pre-keyed stream).
  for (std::uint32_t version : {kSnapshotVersion + 1, kSnapshotVersion - 1}) {
    SCOPED_TRACE(version);
    bad = good;
    bad[8] = static_cast<char>(version);
    util::write_file_atomic(path, bad);
    ServeLoop loop(*experiment_, cfg);
    EXPECT_THROW(loop.restore(path), std::runtime_error);
  }

  // Truncation.
  util::write_file_atomic(path, good.substr(0, good.size() / 2));
  {
    ServeLoop loop(*experiment_, cfg);
    EXPECT_THROW(loop.restore(path), std::runtime_error);
  }

  // Trailing garbage.
  util::write_file_atomic(path, good + "extra");
  {
    ServeLoop loop(*experiment_, cfg);
    EXPECT_THROW(loop.restore(path), std::runtime_error);
  }

  // Corrupt length prefix: the serve.batch_occupancy bucket count (17
  // buckets) sits after the fixed-width fingerprint, whose only
  // variable-length field is the backend name, and the three clock words
  // and two batch counters. A count the file cannot hold must fail as a
  // parse error, not as a huge allocation; a small wrong count must not
  // reach the metrics registry.
  const std::size_t bucket_count_at =
      173 + std::string(nn::kernels::active_backend().name).size();
  ASSERT_EQ(util::ByteReader(std::string_view(good).substr(bucket_count_at),
                             "test")
                .u64(),
            17u);
  for (std::uint64_t count : {1ULL << 44, 1ULL << 62, 2ULL}) {
    SCOPED_TRACE(count);
    bad = good;
    for (int b = 0; b < 8; ++b) {
      bad[bucket_count_at + b] = static_cast<char>(count >> (8 * b));
    }
    util::write_file_atomic(path, bad);
    ServeLoop loop(*experiment_, cfg);
    EXPECT_THROW(loop.restore(path), std::runtime_error);
  }
  std::remove(path.c_str());
}

TEST_F(ServeSnapshotTest, FinishedRunRoundTrips) {
  ServeConfig cfg = small_config();
  ServeLoop first(*experiment_, cfg);
  first.drain();
  const std::string path = temp_path("finished.snap");
  first.save(path);

  ServeLoop second(*experiment_, cfg);
  second.restore(path);
  EXPECT_TRUE(second.done());
  expect_same_completed(second.completed_sessions(),
                        first.completed_sessions());
  EXPECT_TRUE(obs::MetricsSnapshot::deterministic_equal(second.metrics(),
                                                        first.metrics()));
  std::remove(path.c_str());
}

}  // namespace
}  // namespace origin::serve
