// The per-sample calibration loops, kept as the oracles the batched
// production paths must match bit for bit: core::per_class_accuracy
// (predict_batch in chunks) and ConfidenceMatrix::calibrate_sensor
// (predict_proba_batch in chunks) against one predict / predict_proba
// call per sample (tests/test_confidence.cpp, tests/test_personalize.cpp).
#pragma once

#include <array>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "core/confidence.hpp"
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

}  // namespace origin::test_support
