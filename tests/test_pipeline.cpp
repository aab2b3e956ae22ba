#include "core/pipeline.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstring>
#include <filesystem>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "backend_scope.hpp"
#include "calibration_oracles.hpp"
#include "nn/dense.hpp"
#include "nn/kernels/backend.hpp"
#include "util/bytes.hpp"
#include "util/fileio.hpp"
#include "util/logging.hpp"
#include "util/strings.hpp"

namespace origin::core {
namespace {

PipelineConfig micro(const std::string& cache_dir, bool use_cache) {
  PipelineConfig cfg;
  cfg.train_per_class = 10;
  cfg.calib_per_class = 6;
  cfg.test_per_class = 6;
  cfg.train.epochs = 2;
  cfg.cache_dir = cache_dir;
  cfg.use_cache = use_cache;
  cfg.seed = 555;
  return cfg;
}

TEST(PipelineCache, KeyIsStable) {
  const auto a = pipeline_cache_key(micro("x", false));
  const auto b = pipeline_cache_key(micro("y", true));  // cache fields excluded
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.size(), 16u);  // hex64
}

TEST(PipelineCache, KeyChangesWithConfig) {
  auto base = micro("x", false);
  auto other = base;
  other.seed = 556;
  EXPECT_NE(pipeline_cache_key(base), pipeline_cache_key(other));
  other = base;
  other.bl2_budget_fraction = 0.5;
  EXPECT_NE(pipeline_cache_key(base), pipeline_cache_key(other));
  other = base;
  other.kind = data::DatasetKind::Pamap2Like;
  EXPECT_NE(pipeline_cache_key(base), pipeline_cache_key(other));
  other = base;
  other.train.epochs = 3;
  EXPECT_NE(pipeline_cache_key(base), pipeline_cache_key(other));
}

TEST(PipelineCache, RoundtripReproducesModels) {
  const auto dir =
      (std::filesystem::temp_directory_path() / "origin_cache_test").string();
  std::filesystem::remove_all(dir);

  // First build trains and populates the cache.
  auto first = build_system(micro(dir, true));
  ASSERT_FALSE(std::filesystem::is_empty(dir));
  // Second build must load identical weights.
  auto second = build_system(micro(dir, true));
  const auto sample = make_test_set(micro(dir, true), first.spec,
                                    data::SensorLocation::Chest)[0];
  for (int s = 0; s < data::kNumSensors; ++s) {
    const auto si = static_cast<std::size_t>(s);
    EXPECT_EQ(first.sensors[si].bl2.param_count(),
              second.sensors[si].bl2.param_count());
    EXPECT_EQ(first.sensors[si].bl2.predict(sample.input),
              second.sensors[si].bl2.predict(sample.input));
  }
  std::filesystem::remove_all(dir);
}

TEST(PipelineCache, CorruptCacheRetrains) {
  const auto dir =
      (std::filesystem::temp_directory_path() / "origin_cache_corrupt").string();
  std::filesystem::remove_all(dir);
  build_system(micro(dir, true));
  // Truncate every cached blob.
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    std::filesystem::resize_file(entry.path(), 4);
  }
  // Must fall back to retraining rather than crash.
  EXPECT_NO_THROW(build_system(micro(dir, true)));
  std::filesystem::remove_all(dir);
}

// --- Calibration cache ------------------------------------------------

/// A cold micro pipeline in a directory of its own (per test and process,
/// so parallel ctest cases never share one): the freshly calibrated
/// system and the calibration file that build_system wrote for it.
class CalibrationCache : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (std::filesystem::temp_directory_path() /
            ("origin_calib_" +
             std::string(::testing::UnitTest::GetInstance()
                             ->current_test_info()
                             ->name()) +
             "_" + std::to_string(::getpid())))
               .string();
    std::filesystem::remove_all(dir_);
    config_ = micro(dir_, true);
    fresh_ = build_system(config_);
    path_ = calibration_cache_path(config_);
    ASSERT_TRUE(std::filesystem::exists(path_));
    good_ = util::read_file(path_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  /// Writes `bytes` over the calibration file, then checks that
  /// build_system refuses it with a warning, recalibrates to tables
  /// bit-identical to the fresh ones and rewrites the good file.
  void expect_recomputed_and_rewritten(const std::string& bytes) {
    util::write_file_atomic(path_, bytes);
    std::vector<std::string> warnings;
    const util::LogSink prev = util::set_log_sink(
        [&](util::LogLevel level, const std::string& line) {
          if (level == util::LogLevel::Warn) warnings.push_back(line);
        });
    const TrainedSystem rebuilt = build_system(config_);
    util::set_log_sink(prev);
    EXPECT_EQ(warnings.size(), 1u);
    test_support::expect_same_calibration(rebuilt, fresh_);
    EXPECT_EQ(util::read_file(path_), good_);
  }

  /// load_calibration must refuse `bytes` with std::runtime_error (never
  /// std::bad_alloc or a crash) and leave the system as it was.
  void expect_refused(const std::string& bytes) {
    util::write_file_atomic(path_, bytes);
    TrainedSystem system = fresh_;
    system.calib_accuracy[0].assign(system.calib_accuracy[0].size(), 0.5);
    EXPECT_THROW(load_calibration(system, config_), std::runtime_error);
    EXPECT_EQ(system.calib_accuracy[0],
              std::vector<double>(system.calib_accuracy[0].size(), 0.5));
  }

  /// The file's body (everything before the checksum) with a valid
  /// checksum appended: corruption that only validation can catch.
  static std::string reseal(std::string body) {
    util::ByteWriter sum;
    sum.u64(util::fnv1a(body));
    return body + sum.bytes();
  }
  std::string body() const { return good_.substr(0, good_.size() - 8); }
  /// Offsets into the layout: magic (4), version (u32), key (u32 length +
  /// text), class count (u32), then the f64 tables.
  static constexpr std::size_t kVersionAt = 4;
  std::size_t classes_at() const {
    std::uint32_t key_len = 0;
    std::memcpy(&key_len, good_.data() + 8, sizeof key_len);  // little-endian
    return 12 + key_len;
  }
  std::size_t tables_at() const { return classes_at() + 4; }

  std::string dir_;
  PipelineConfig config_;
  TrainedSystem fresh_;
  std::string path_;
  std::string good_;
};

TEST_F(CalibrationCache, WarmLoadEqualsRecomputedUnderEveryBackend) {
  for (const nn::kernels::Backend* backend :
       nn::kernels::available_backends()) {
    SCOPED_TRACE(backend->name);
    test_support::BackendScope scope(backend->name);
    const TrainedSystem cold = build_system(config_);
    const std::string path = calibration_cache_path(config_);
    ASSERT_TRUE(std::filesystem::exists(path));
    const TrainedSystem warm = build_system(config_);
    TrainedSystem recomputed = warm;
    calibrate_system(recomputed, config_);
    test_support::expect_same_calibration(cold, recomputed);
    test_support::expect_same_calibration(warm, recomputed);
  }
}

TEST_F(CalibrationCache, BackendsNeverReadEachOthersFile) {
  const auto& backends = nn::kernels::available_backends();
  if (backends.size() < 2) {
    GTEST_SKIP() << "only the reference backend is available here";
  }
  for (const nn::kernels::Backend* writer : backends) {
    for (const nn::kernels::Backend* reader : backends) {
      if (writer == reader) continue;
      SCOPED_TRACE(std::string(writer->name) + " -> " + reader->name);
      std::string written;
      std::string writer_path;
      {
        test_support::BackendScope scope(writer->name);
        build_system(config_);
        writer_path = calibration_cache_path(config_);
        written = util::read_file(writer_path);
      }
      test_support::BackendScope scope(reader->name);
      const std::string reader_path = calibration_cache_path(config_);
      EXPECT_NE(reader_path, writer_path);
      // Even moved onto the reader's path, the writer's file is refused
      // by its embedded key.
      util::write_file_atomic(reader_path, written);
      TrainedSystem system = fresh_;
      EXPECT_THROW(load_calibration(system, config_), std::runtime_error);
    }
  }
}

TEST_F(CalibrationCache, EveryTruncationIsRefused) {
  for (std::size_t len = 0; len < good_.size(); ++len) {
    SCOPED_TRACE(len);
    expect_refused(good_.substr(0, len));
  }
  expect_recomputed_and_rewritten(good_.substr(0, good_.size() / 2));
  expect_recomputed_and_rewritten("");
}

TEST_F(CalibrationCache, EverySingleByteFlipIsRefused) {
  for (std::size_t at = 0; at < good_.size(); ++at) {
    for (unsigned char mask : {0x01, 0x80, 0xFF}) {
      SCOPED_TRACE(std::to_string(at) + " ^ " + std::to_string(mask));
      std::string bytes = good_;
      bytes[at] = static_cast<char>(bytes[at] ^ mask);
      expect_refused(bytes);
    }
  }
  std::string flipped = good_;
  flipped[tables_at()] ^= 0x01;  // a low mantissa bit: still a valid value
  expect_recomputed_and_rewritten(flipped);
}

TEST_F(CalibrationCache, ValidatesEveryFieldBehindTheChecksum) {
  auto with_u32 = [&](std::size_t at, std::uint32_t v) {
    std::string b = body();
    std::memcpy(b.data() + at, &v, sizeof v);  // little-endian host
    return reseal(b);
  };
  auto with_f64 = [&](std::size_t index, double v) {
    std::string b = body();
    std::memcpy(b.data() + tables_at() + 8 * index, &v, sizeof v);
    return reseal(b);
  };
  const auto classes = static_cast<std::uint32_t>(fresh_.spec.num_classes());
  const std::size_t values = 4u * data::kNumSensors * classes;
  const std::vector<std::string> cases = {
      with_u32(kVersionAt, 2),              // a version this build cannot read
      with_u32(classes_at(), classes - 1),  // class-count mismatch
      with_u32(classes_at(), classes + 1),
      with_u32(classes_at(), 0xFFFFFFFFu),
      with_f64(0, std::numeric_limits<double>::quiet_NaN()),
      with_f64(values - 1, std::numeric_limits<double>::quiet_NaN()),
      with_f64(3, std::numeric_limits<double>::infinity()),
      with_f64(5, -0.25),
      with_f64(values / 2, 1.5),
      reseal(body() + std::string(8, '\0')),  // trailing bytes
      reseal(body().substr(0, body().size() - 8)),
  };
  // The untouched body reseals to the good file: only the edit differs.
  ASSERT_EQ(reseal(body()), good_);
  for (std::size_t i = 0; i < cases.size(); ++i) {
    SCOPED_TRACE(i);
    expect_refused(cases[i]);
    expect_recomputed_and_rewritten(cases[i]);
  }
}

TEST_F(CalibrationCache, KeyFollowsCalibrationInputsOnly) {
  PipelineConfig other = config_;
  other.calib_per_class += 1;
  EXPECT_NE(calibration_cache_path(other), path_);
  other = config_;
  other.seed += 1;
  EXPECT_NE(calibration_cache_path(other), path_);
  other = config_;
  other.test_per_class += 1;  // test sets are synthesized on demand
  other.train_threads = 3;    // the tables are identical at any count
  EXPECT_EQ(calibration_cache_path(other), path_);
}

TEST(Pipeline, ArchitectureShapes) {
  const auto spec = data::dataset_spec(data::DatasetKind::MHealthLike);
  auto net = make_bl1_architecture(spec, 1);
  EXPECT_EQ(net.output_shape({spec.channels, spec.window_len}),
            std::vector<int>{spec.num_classes()});
  const auto p2 = data::dataset_spec(data::DatasetKind::Pamap2Like);
  auto net2 = make_bl1_architecture(p2, 2);
  EXPECT_EQ(net2.output_shape({p2.channels, p2.window_len}),
            std::vector<int>{5});
}

TEST(Pipeline, ArchitectureSeedChangesWeights) {
  const auto spec = data::dataset_spec(data::DatasetKind::MHealthLike);
  auto a = make_bl1_architecture(spec, 1);
  auto b = make_bl1_architecture(spec, 2);
  nn::Tensor x({spec.channels, spec.window_len});
  x.fill(0.5f);
  const auto ya = a.forward(x, false);
  const auto yb = b.forward(x, false);
  bool differ = false;
  for (std::size_t i = 0; i < ya.size(); ++i) {
    if (ya[i] != yb[i]) differ = true;
  }
  EXPECT_TRUE(differ);
}

TEST(Pipeline, PerClassAccuracyCountsCorrectly) {
  // A constant-output model: 100% on its favourite class, 0% elsewhere.
  nn::Sequential constant;
  constant.emplace<nn::Dense>(4, 3);
  auto* d = dynamic_cast<nn::Dense*>(&constant.layer(0));
  d->bias()[1] = 10.0f;
  nn::Samples samples;
  for (int c = 0; c < 3; ++c) {
    for (int i = 0; i < 5; ++i) samples.push_back({nn::Tensor({4}), c});
  }
  const auto acc = per_class_accuracy(constant, samples, 3);
  EXPECT_DOUBLE_EQ(acc[0], 0.0);
  EXPECT_DOUBLE_EQ(acc[1], 1.0);
  EXPECT_DOUBLE_EQ(acc[2], 0.0);
}

}  // namespace
}  // namespace origin::core
