// The per-sample calibration loops, kept as the oracles the batched
// production path must match bit for bit: ConfidenceMatrix::calibrate_sensor
// (one batched forward in chunks, giving the confidence row and, through
// core::per_class_accuracy, the accuracies) against one predict /
// predict_proba call per sample (tests/test_confidence.cpp,
// tests/test_personalize.cpp); and the table comparison the calibration
// cache's tests share (tests/test_pipeline.cpp, tests/test_personalize.cpp).
#pragma once

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "core/confidence.hpp"
#include "core/pipeline.hpp"
#include "util/stats.hpp"

namespace origin::test_support {

inline std::vector<double> per_class_accuracy_oracle(
    nn::Sequential& model, const nn::Samples& samples, int num_classes) {
  std::vector<std::uint64_t> correct(static_cast<std::size_t>(num_classes), 0);
  std::vector<std::uint64_t> total(static_cast<std::size_t>(num_classes), 0);
  for (const auto& s : samples) {
    ++total[static_cast<std::size_t>(s.label)];
    if (model.predict(s.input) == s.label) {
      ++correct[static_cast<std::size_t>(s.label)];
    }
  }
  std::vector<double> acc(static_cast<std::size_t>(num_classes), 0.0);
  for (std::size_t c = 0; c < acc.size(); ++c) {
    if (total[c]) {
      acc[c] = static_cast<double>(correct[c]) / static_cast<double>(total[c]);
    }
  }
  return acc;
}

/// Offline calibration one sample at a time: averages Var(softmax) per
/// predicted class for each sensor, falling back to the sensor's global
/// mean for classes it never predicts, then assembles the matrix with
/// ConfidenceMatrix::from_rows (which freezes the adaptation baseline).
inline core::ConfidenceMatrix calibrate_oracle(
    std::array<nn::Sequential*, data::kNumSensors> models,
    const std::array<const nn::Samples*, data::kNumSensors>& calibration,
    int num_classes) {
  std::array<std::vector<double>, data::kNumSensors> rows;
  for (std::size_t s = 0; s < data::kNumSensors; ++s) {
    if (!models[s] || !calibration[s]) {
      throw std::invalid_argument("calibrate_oracle: null input");
    }
    std::vector<util::RunningStats> per_class(
        static_cast<std::size_t>(num_classes));
    util::RunningStats global;
    for (const auto& sample : *calibration[s]) {
      const auto probs = models[s]->predict_proba(sample.input);
      const double var = util::probability_vector_variance(probs);
      const auto predicted = util::argmax(probs);
      if (predicted >= per_class.size()) {
        throw std::logic_error("calibrate_oracle: class out of range");
      }
      per_class[predicted].add(var);
      global.add(var);
    }
    for (const auto& stats : per_class) {
      rows[s].push_back(stats.count() > 0 ? stats.mean() : global.mean());
    }
  }
  return core::ConfidenceMatrix::from_rows(rows, num_classes);
}

/// Every calibration table of `got` equals `want`'s, bit for bit: the
/// per-class accuracies, the rank tables and the confidence matrices,
/// strict and relaxed.
inline void expect_same_calibration(const core::TrainedSystem& got,
                                    const core::TrainedSystem& want) {
  for (std::size_t s = 0; s < data::kNumSensors; ++s) {
    EXPECT_EQ(got.calib_accuracy[s], want.calib_accuracy[s]);
    EXPECT_EQ(got.calib_accuracy_relaxed[s], want.calib_accuracy_relaxed[s]);
  }
  for (int c = 0; c < want.spec.num_classes(); ++c) {
    for (int r = 0; r < data::kNumSensors; ++r) {
      EXPECT_EQ(got.ranks.sensor_at(c, r), want.ranks.sensor_at(c, r));
      EXPECT_EQ(got.ranks_relaxed.sensor_at(c, r),
                want.ranks_relaxed.sensor_at(c, r));
    }
    for (int s = 0; s < data::kNumSensors; ++s) {
      const auto loc = static_cast<data::SensorLocation>(s);
      EXPECT_EQ(got.confidence.weight(loc, c), want.confidence.weight(loc, c));
      EXPECT_EQ(got.confidence_relaxed.weight(loc, c),
                want.confidence_relaxed.weight(loc, c));
    }
  }
}

}  // namespace origin::test_support
