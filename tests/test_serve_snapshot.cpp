// Snapshot/restore of the serving loop: the byte codec, the atomic file
// helpers, and the headline guarantee — serve N ticks, snapshot, restore
// into a fresh loop and serve the rest, and the completed-session log and
// every deterministic metric are bit-identical to a run that never
// stopped, at threads 1/2/8 and across the split.
#include "serve/snapshot.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <limits>
#include <stdexcept>

#include "serve/serve_loop.hpp"

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

  static sim::Experiment* experiment_;
};

sim::Experiment* ServeSnapshotTest::experiment_ = nullptr;

TEST(SnapshotCodec, RoundTripsEveryType) {
  SnapshotWriter w;
  w.u8(0xAB);
  w.u32(0xDEADBEEFu);
  w.u64(0x0123456789ABCDEFull);
  w.i32(-42);
  w.f32(1.5f);
  w.f64(-0.1);
  w.f64(std::numeric_limits<double>::infinity());
  w.raw("xy", 2);

  SnapshotReader r(w.bytes());
  EXPECT_EQ(r.u8(), 0xAB);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(r.i32(), -42);
  EXPECT_EQ(r.f32(), 1.5f);
  EXPECT_EQ(r.f64(), -0.1);  // bitwise round-trip, not approximate
  EXPECT_EQ(r.f64(), std::numeric_limits<double>::infinity());
  const char* p = r.take(2);
  EXPECT_EQ(p[0], 'x');
  EXPECT_EQ(p[1], 'y');
  EXPECT_TRUE(r.exhausted());
  EXPECT_THROW(r.u8(), std::runtime_error);
}

TEST(SnapshotCodec, AtomicWriteAndRead) {
  const std::string path = testing::TempDir() + "/codec_file.bin";
  write_file_atomic(path, "hello snapshot");
  EXPECT_EQ(read_file(path), "hello snapshot");
  write_file_atomic(path, "v2");  // replaces atomically
  EXPECT_EQ(read_file(path), "v2");
  std::remove(path.c_str());
  EXPECT_THROW(read_file(path), std::runtime_error);
  EXPECT_THROW(write_file_atomic("/no/such/dir/x.bin", "z"),
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

  ServeConfig other = cfg;
  other.users = cfg.users + 1;
  ServeLoop wrong_users(*experiment_, other);
  EXPECT_THROW(wrong_users.restore(path), std::runtime_error);

  other = cfg;
  other.policy = sim::PolicyKind::AASR;
  ServeLoop wrong_policy(*experiment_, other);
  EXPECT_THROW(wrong_policy.restore(path), std::runtime_error);

  other = cfg;
  other.shards = cfg.shards + 1;
  ServeLoop wrong_shards(*experiment_, other);
  EXPECT_THROW(wrong_shards.restore(path), std::runtime_error);

  // Threads are NOT part of the fingerprint.
  other = cfg;
  other.threads = 4;
  ServeLoop more_threads(*experiment_, other);
  EXPECT_NO_THROW(more_threads.restore(path));
  std::remove(path.c_str());
}

TEST_F(ServeSnapshotTest, CorruptAndTruncatedFilesRejected) {
  ServeConfig cfg = small_config();
  ServeLoop first(*experiment_, cfg);
  first.tick(4);
  const std::string path = temp_path("corrupt.snap");
  first.save(path);
  const std::string good = read_file(path);

  // Bad magic.
  std::string bad = good;
  bad[0] = 'X';
  write_file_atomic(path, bad);
  {
    ServeLoop loop(*experiment_, cfg);
    EXPECT_THROW(loop.restore(path), std::runtime_error);
  }

  // Unsupported versions: a future one, and the previous one (whose node
  // records carry a field this version no longer reads).
  for (std::uint32_t version : {kSnapshotVersion + 1, kSnapshotVersion - 1}) {
    SCOPED_TRACE(version);
    bad = good;
    bad[8] = static_cast<char>(version);
    write_file_atomic(path, bad);
    ServeLoop loop(*experiment_, cfg);
    EXPECT_THROW(loop.restore(path), std::runtime_error);
  }

  // Truncation.
  write_file_atomic(path, good.substr(0, good.size() / 2));
  {
    ServeLoop loop(*experiment_, cfg);
    EXPECT_THROW(loop.restore(path), std::runtime_error);
  }

  // Trailing garbage.
  write_file_atomic(path, good + "extra");
  {
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
