#include "data/dataset.hpp"

#include <gtest/gtest.h>

namespace origin::data {
namespace {

class DatasetTest : public ::testing::Test {
 protected:
  DatasetSpec spec = dataset_spec(DatasetKind::MHealthLike);
};

TEST_F(DatasetTest, TrainingSetBalancedAndShaped) {
  const auto samples =
      make_training_set(spec, SensorLocation::Chest, 20, reference_user(), 1);
  EXPECT_EQ(samples.size(), 120u);
  const auto hist = class_histogram(samples, spec.num_classes());
  for (int c : hist) EXPECT_EQ(c, 20);
  for (const auto& s : samples) {
    ASSERT_EQ(s.input.shape(), (std::vector<int>{6, 64}));
  }
}

TEST_F(DatasetTest, TrainingSetDeterministic) {
  const auto a =
      make_training_set(spec, SensorLocation::LeftAnkle, 5, reference_user(), 2);
  const auto b =
      make_training_set(spec, SensorLocation::LeftAnkle, 5, reference_user(), 2);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].label, b[i].label);
    for (std::size_t j = 0; j < a[i].input.size(); ++j) {
      ASSERT_FLOAT_EQ(a[i].input[j], b[i].input[j]);
    }
  }
}

TEST_F(DatasetTest, TrainingSetSeedsDiffer) {
  const auto a =
      make_training_set(spec, SensorLocation::Chest, 5, reference_user(), 3);
  const auto b =
      make_training_set(spec, SensorLocation::Chest, 5, reference_user(), 4);
  double diff = 0.0;
  for (std::size_t j = 0; j < a[0].input.size(); ++j) {
    diff += std::fabs(a[0].input[j] - b[0].input[j]);
  }
  EXPECT_GT(diff, 0.1);
}

TEST_F(DatasetTest, TrainingSetValidation) {
  EXPECT_THROW(make_training_set(spec, SensorLocation::Chest, 0, reference_user(), 1),
               std::invalid_argument);
}

TEST_F(DatasetTest, StreamBasics) {
  const auto stream = make_stream(spec, 200, reference_user(), 5);
  EXPECT_EQ(stream.slots.size(), 200u);
  EXPECT_DOUBLE_EQ(stream.duration_s(), 100.0);
  ASSERT_FALSE(stream.segments.empty());
  for (const auto& slot : stream.slots) {
    ASSERT_GE(slot.label, 0);
    ASSERT_LT(slot.label, spec.num_classes());
    for (std::size_t s = 0; s < kNumSensors; ++s) {
      ASSERT_EQ(slot.window(s).shape(), (std::vector<int>{6, 64}));
    }
  }
}

TEST_F(DatasetTest, StreamLabelsMatchSegments) {
  const auto stream = make_stream(spec, 300, reference_user(), 6);
  for (const auto& slot : stream.slots) {
    const Activity expected = activity_at(
        stream.segments, slot.t0_s + 0.5 * spec.window_seconds());
    EXPECT_EQ(slot.activity, expected);
    EXPECT_EQ(slot.label, spec.class_of(expected));
  }
}

TEST_F(DatasetTest, StreamHasTemporalContinuity) {
  const auto stream = make_stream(spec, 1000, reference_user(), 7);
  int changes = 0;
  for (std::size_t i = 1; i < stream.slots.size(); ++i) {
    if (stream.slots[i].label != stream.slots[i - 1].label) ++changes;
  }
  // Mean dwell 25 s = 50 slots; expect roughly 1000/50 = 20 changes.
  EXPECT_GT(changes, 5);
  EXPECT_LT(changes, 60);
}

TEST_F(DatasetTest, AmbiguousEpisodesHaveExpectedDuty) {
  StreamConfig cfg;
  cfg.ambiguous_len_s = 2.5;
  cfg.ambiguous_gap_s = 5.0;
  const auto stream = make_stream(spec, 4000, reference_user(), 8, cfg);
  int ambiguous = 0;
  for (const auto& slot : stream.slots) {
    if (slot.ambiguous) ++ambiguous;
  }
  const double duty = ambiguous / 4000.0;
  EXPECT_GT(duty, 0.2);
  EXPECT_LT(duty, 0.45);
}

TEST_F(DatasetTest, AmbiguityIsEpisodic) {
  const auto stream = make_stream(spec, 4000, reference_user(), 9);
  // Count maximal runs of ambiguous slots; mean run length should exceed
  // 2 slots (episodes last ~2.5 s = 5 slots).
  int runs = 0, total = 0;
  bool in_run = false;
  for (const auto& slot : stream.slots) {
    if (slot.ambiguous) {
      ++total;
      if (!in_run) {
        ++runs;
        in_run = true;
      }
    } else {
      in_run = false;
    }
  }
  ASSERT_GT(runs, 0);
  EXPECT_GT(static_cast<double>(total) / runs, 2.0);
}

TEST_F(DatasetTest, SnrConfigAddsNoise) {
  StreamConfig noisy;
  noisy.snr_db = 0.0;  // extreme noise
  const auto clean = make_stream(spec, 20, reference_user(), 10);
  const auto loud = make_stream(spec, 20, reference_user(), 10, noisy);
  // Same seed, same labels; windows must differ substantially.
  double diff = 0.0;
  for (std::size_t i = 0; i < clean.slots.size(); ++i) {
    for (std::size_t j = 0; j < clean.slots[i].window(0).size(); ++j) {
      diff += std::fabs(clean.slots[i].window(0)[j] - loud.slots[i].window(0)[j]);
    }
  }
  EXPECT_GT(diff, 10.0);
}

TEST_F(DatasetTest, StreamValidation) {
  EXPECT_THROW(make_stream(spec, 0, reference_user(), 1), std::invalid_argument);
}

TEST_F(DatasetTest, ClassHistogramValidatesLabels) {
  nn::Samples bad;
  bad.push_back({nn::Tensor({1}), 7});
  EXPECT_THROW(class_histogram(bad, 6), std::out_of_range);
}

TEST_F(DatasetTest, Pamap2StreamUsesItsOwnClasses) {
  const auto p2 = dataset_spec(DatasetKind::Pamap2Like);
  const auto stream = make_stream(p2, 100, reference_user(), 11);
  for (const auto& slot : stream.slots) {
    EXPECT_LT(slot.label, 5);
    EXPECT_NE(slot.activity, Activity::Jogging);
  }
}

}  // namespace
}  // namespace origin::data
