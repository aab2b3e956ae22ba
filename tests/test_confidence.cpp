#include "core/confidence.hpp"

#include <gtest/gtest.h>

#include "calibration_oracles.hpp"
#include "nn/activations.hpp"
#include "nn/dense.hpp"
#include "util/rng.hpp"

namespace origin::core {
namespace {

using data::SensorLocation;

TEST(ConfidenceMatrix, ConstructorValidation) {
  EXPECT_THROW(ConfidenceMatrix(0), std::invalid_argument);
  EXPECT_THROW(ConfidenceMatrix(3, -0.1), std::invalid_argument);
}

TEST(ConfidenceMatrix, UniformInitial) {
  ConfidenceMatrix m(4, 0.07);
  for (int s = 0; s < data::kNumSensors; ++s) {
    for (int c = 0; c < 4; ++c) {
      EXPECT_DOUBLE_EQ(m.weight(static_cast<SensorLocation>(s), c), 0.07);
    }
  }
}

TEST(ConfidenceMatrix, EmaUpdateMovesTowardObservation) {
  ConfidenceMatrix m(2, 0.1);
  m.set_alpha(0.5);
  m.update(SensorLocation::Chest, 0, 0.3);
  EXPECT_DOUBLE_EQ(m.weight(SensorLocation::Chest, 0), 0.2);
  m.update(SensorLocation::Chest, 0, 0.3);
  EXPECT_DOUBLE_EQ(m.weight(SensorLocation::Chest, 0), 0.25);
  // Other cells untouched.
  EXPECT_DOUBLE_EQ(m.weight(SensorLocation::Chest, 1), 0.1);
  EXPECT_DOUBLE_EQ(m.weight(SensorLocation::LeftAnkle, 0), 0.1);
}

TEST(ConfidenceMatrix, ConvergesToStationaryObservation) {
  ConfidenceMatrix m(2, 0.0);
  m.set_alpha(0.2);
  for (int i = 0; i < 200; ++i) m.update(SensorLocation::RightWrist, 1, 0.12);
  EXPECT_NEAR(m.weight(SensorLocation::RightWrist, 1), 0.12, 1e-6);
}

TEST(ConfidenceMatrix, ConsensusUpdateSettlesAtBaselineTimesAgreementRate) {
  ConfidenceMatrix m(2, 0.1);
  m.freeze_baseline();
  m.set_alpha(0.05);
  // Agreeing with the consensus every other time: the cell settles near
  // half its baseline, whatever confidence the sensor reported.
  for (int i = 0; i < 2000; ++i) {
    m.update_with_consensus(SensorLocation::Chest, 0, i % 2 == 0);
  }
  EXPECT_NEAR(m.weight(SensorLocation::Chest, 0), 0.05, 0.002);
  // Always agreeing restores the baseline, never overshoots it.
  for (int i = 0; i < 2000; ++i) {
    m.update_with_consensus(SensorLocation::Chest, 0, true);
  }
  EXPECT_NEAR(m.weight(SensorLocation::Chest, 0), 0.1, 1e-9);
  EXPECT_LE(m.weight(SensorLocation::Chest, 0), 0.1);
  // Never agreeing stops at the floor (a quarter of the baseline).
  for (int i = 0; i < 2000; ++i) {
    m.update_with_consensus(SensorLocation::Chest, 0, false);
  }
  EXPECT_DOUBLE_EQ(m.weight(SensorLocation::Chest, 0), 0.025);
  // Other cells untouched.
  EXPECT_DOUBLE_EQ(m.weight(SensorLocation::Chest, 1), 0.1);
}

TEST(ConfidenceMatrix, UpdateValidation) {
  ConfidenceMatrix m(2);
  EXPECT_THROW(m.update(SensorLocation::Chest, 2, 0.1), std::out_of_range);
  EXPECT_THROW(m.update(SensorLocation::Chest, 0, -0.1), std::invalid_argument);
  EXPECT_THROW(m.set_alpha(0.0), std::invalid_argument);
  EXPECT_THROW(m.set_alpha(1.5), std::invalid_argument);
}

TEST(ConfidenceMatrix, SetWeightAndDistance) {
  ConfidenceMatrix a(2, 0.1), b(2, 0.1);
  EXPECT_DOUBLE_EQ(a.distance(b), 0.0);
  b.set_weight(SensorLocation::Chest, 0, 0.4);
  // One cell off by 0.3 out of 6 cells.
  EXPECT_NEAR(a.distance(b), 0.3 / 6.0, 1e-12);
  ConfidenceMatrix c(3);
  EXPECT_THROW(a.distance(c), std::invalid_argument);
}

TEST(ConfidenceMatrix, CalibrateAveragesPerPredictedClass) {
  // Build three trivial "models" that output fixed logits regardless of
  // input: each predicts a known class with a known softmax variance.
  auto fixed_model = [](float strong) {
    util::Rng rng(1);
    nn::Sequential m;
    m.emplace<nn::Dense>(2, 3);
    auto* d = dynamic_cast<nn::Dense*>(&m.layer(0));
    d->weight().zero();
    d->bias()[0] = strong;  // always predicts class 0
    return m;
  };
  nn::Sequential m0 = fixed_model(10.0f);  // near one-hot: high variance
  nn::Sequential m1 = fixed_model(0.5f);   // soft: low variance
  nn::Sequential m2 = fixed_model(2.0f);

  nn::Samples calib;
  for (int i = 0; i < 4; ++i) calib.push_back({nn::Tensor({2}), 0});

  const auto matrix = ConfidenceMatrix::from_rows(
      {ConfidenceMatrix::calibrate_sensor(m0, calib, 3),
       ConfidenceMatrix::calibrate_sensor(m1, calib, 3),
       ConfidenceMatrix::calibrate_sensor(m2, calib, 3)},
      3);
  // Sharper model earns a higher class-0 weight.
  EXPECT_GT(matrix.weight(SensorLocation::Chest, 0),
            matrix.weight(SensorLocation::LeftAnkle, 0));
  // Never-predicted classes fall back to the sensor's global mean: equal
  // to the class-0 value here since all predictions were class 0.
  EXPECT_DOUBLE_EQ(matrix.weight(SensorLocation::Chest, 1),
                   matrix.weight(SensorLocation::Chest, 0));
}

TEST(ConfidenceMatrix, CalibrateValidatesInputs) {
  nn::Sequential m;
  m.emplace<nn::Dense>(2, 3);
  dynamic_cast<nn::Dense*>(&m.layer(0))->bias()[2] = 5.0f;
  const nn::Samples calib = {{nn::Tensor({2}), 0}};
  EXPECT_THROW(ConfidenceMatrix::calibrate_sensor(m, calib, 0),
               std::invalid_argument);
  // The model predicts class 2, out of range for two classes.
  EXPECT_THROW(ConfidenceMatrix::calibrate_sensor(m, calib, 2),
               std::logic_error);
  // A label outside the classes (the accuracy counts index by label).
  const nn::Samples mislabeled = {{nn::Tensor({2}), 3}};
  EXPECT_THROW(ConfidenceMatrix::calibrate_sensor(m, mislabeled, 3),
               std::invalid_argument);
}

// A model whose prediction varies with the input, so calibration sees a
// mix of predicted classes.
nn::Sequential varied_model(std::uint64_t seed) {
  util::Rng rng(seed);
  nn::Sequential m;
  m.emplace<nn::Dense>(4, 3, rng);
  return m;
}

nn::Samples varied_samples(int n, std::uint64_t seed) {
  util::Rng rng(seed);
  nn::Samples samples;
  for (int i = 0; i < n; ++i) {
    samples.push_back({nn::Tensor::randn({4}, rng, 1.0f), i % 3});
  }
  return samples;
}

TEST(ConfidenceMatrix, CalibrateSensorMatchesCalibrateBitwise) {
  // The batched per-sensor row (the unit of the parallel pipeline
  // calibration) against the per-sample oracle.
  nn::Sequential m0 = varied_model(11), m1 = varied_model(12),
                 m2 = varied_model(13);
  const nn::Samples s0 = varied_samples(40, 21), s1 = varied_samples(37, 22),
                    s2 = varied_samples(5, 23);
  const auto oracle = test_support::calibrate_oracle({&m0, &m1, &m2},
                                                     {&s0, &s1, &s2}, 3);
  std::array<std::vector<double>, data::kNumSensors> rows = {
      ConfidenceMatrix::calibrate_sensor(m0, s0, 3),
      ConfidenceMatrix::calibrate_sensor(m1, s1, 3),
      ConfidenceMatrix::calibrate_sensor(m2, s2, 3)};
  const auto assembled = ConfidenceMatrix::from_rows(rows, 3);
  for (int s = 0; s < data::kNumSensors; ++s) {
    for (int c = 0; c < 3; ++c) {
      EXPECT_EQ(assembled.weight(static_cast<SensorLocation>(s), c),
                oracle.weight(static_cast<SensorLocation>(s), c))
          << "sensor " << s << " class " << c;
    }
  }
}

TEST(ConfidenceMatrix, CalibrateSensorSingleWindowClass) {
  // One calibration window: its predicted class's cell and every
  // never-predicted class's global-mean fallback all equal that single
  // window's softmax variance.
  nn::Sequential m = varied_model(31);
  const nn::Samples one = varied_samples(1, 41);
  const auto row = ConfidenceMatrix::calibrate_sensor(m, one, 3);
  ASSERT_EQ(row.size(), 3u);
  EXPECT_GT(row[0], 0.0);
  EXPECT_EQ(row[0], row[1]);
  EXPECT_EQ(row[1], row[2]);
}

TEST(ConfidenceMatrix, FromRowsValidatesRowSizes) {
  std::array<std::vector<double>, data::kNumSensors> rows = {
      std::vector<double>{0.1, 0.2}, std::vector<double>{0.1, 0.2},
      std::vector<double>{0.1}};  // wrong length
  EXPECT_THROW(ConfidenceMatrix::from_rows(rows, 2), std::invalid_argument);
}

TEST(ConfidenceMatrix, DistanceRequiresMatchingClassCount) {
  ConfidenceMatrix a(2), b(3);
  EXPECT_THROW(a.distance(b), std::invalid_argument);
  EXPECT_THROW(b.distance(a), std::invalid_argument);
}

}  // namespace
}  // namespace origin::core
