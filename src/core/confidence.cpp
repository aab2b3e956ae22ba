#include "core/confidence.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "util/stats.hpp"

namespace origin::core {

ConfidenceMatrix::ConfidenceMatrix(int num_classes, double initial)
    : num_classes_(num_classes) {
  if (num_classes <= 0) throw std::invalid_argument("ConfidenceMatrix: num_classes <= 0");
  if (initial < 0.0) throw std::invalid_argument("ConfidenceMatrix: negative initial");
  for (auto& row : weights_) {
    row.assign(static_cast<std::size_t>(num_classes), initial);
  }
  baseline_ = weights_;
}

std::vector<double> ConfidenceMatrix::calibrate_sensor(
    nn::Sequential& model, const nn::Samples& samples, int num_classes) {
  if (num_classes <= 0) {
    throw std::invalid_argument("ConfidenceMatrix::calibrate_sensor: num_classes <= 0");
  }
  std::vector<util::RunningStats> per_class(static_cast<std::size_t>(num_classes));
  util::RunningStats global;
  // Fixed-size chunks bound the batched-inference arenas; the chunk size
  // never changes the result — predict_proba_batch is bit-identical to
  // per-sample predict_proba, and the stats accumulate in sample order.
  constexpr std::size_t kChunk = 256;
  std::vector<const nn::Tensor*> inputs;
  for (std::size_t begin = 0; begin < samples.size(); begin += kChunk) {
    const std::size_t count = std::min(kChunk, samples.size() - begin);
    inputs.clear();
    for (std::size_t i = 0; i < count; ++i) {
      inputs.push_back(&samples[begin + i].input);
    }
    const auto probs = model.predict_proba_batch(inputs.data(), count);
    for (std::size_t i = 0; i < count; ++i) {
      const double var = util::probability_vector_variance(probs[i]);
      const auto predicted = util::argmax(probs[i]);
      if (predicted >= static_cast<std::size_t>(num_classes)) {
        throw std::logic_error(
            "ConfidenceMatrix::calibrate_sensor: class out of range");
      }
      per_class[predicted].add(var);
      global.add(var);
    }
  }
  std::vector<double> row(static_cast<std::size_t>(num_classes));
  for (int c = 0; c < num_classes; ++c) {
    const auto& stats = per_class[static_cast<std::size_t>(c)];
    row[static_cast<std::size_t>(c)] =
        stats.count() > 0 ? stats.mean() : global.mean();
  }
  return row;
}

ConfidenceMatrix ConfidenceMatrix::from_rows(
    const std::array<std::vector<double>, data::kNumSensors>& rows,
    int num_classes) {
  ConfidenceMatrix matrix(num_classes);
  for (int s = 0; s < data::kNumSensors; ++s) {
    const auto& row = rows[static_cast<std::size_t>(s)];
    if (row.size() != static_cast<std::size_t>(num_classes)) {
      throw std::invalid_argument("ConfidenceMatrix::from_rows: row size");
    }
    matrix.weights_[static_cast<std::size_t>(s)] = row;
  }
  matrix.freeze_baseline();
  return matrix;
}

double ConfidenceMatrix::weight(data::SensorLocation sensor, int cls) const {
  if (cls < 0 || cls >= num_classes_) throw std::out_of_range("ConfidenceMatrix::weight");
  return weights_[static_cast<std::size_t>(sensor)][static_cast<std::size_t>(cls)];
}

void ConfidenceMatrix::update(data::SensorLocation sensor, int cls,
                              double confidence) {
  if (cls < 0 || cls >= num_classes_) throw std::out_of_range("ConfidenceMatrix::update");
  if (confidence < 0.0) throw std::invalid_argument("ConfidenceMatrix::update: negative");
  auto& w = weights_[static_cast<std::size_t>(sensor)][static_cast<std::size_t>(cls)];
  w = (1.0 - alpha_) * w + alpha_ * confidence;
  w = std::max(w, floor_fraction_ * baseline_[static_cast<std::size_t>(sensor)]
                                             [static_cast<std::size_t>(cls)]);
}

void ConfidenceMatrix::freeze_baseline(double floor_fraction) {
  if (floor_fraction < 0.0 || floor_fraction >= 1.0) {
    throw std::invalid_argument("ConfidenceMatrix::freeze_baseline: fraction in [0, 1)");
  }
  baseline_ = weights_;
  floor_fraction_ = floor_fraction;
}

void ConfidenceMatrix::update_with_consensus(data::SensorLocation sensor,
                                             int cls,
                                             bool agreed_with_consensus) {
  update(sensor, cls,
         agreed_with_consensus
             ? baseline_[static_cast<std::size_t>(sensor)]
                        [static_cast<std::size_t>(cls)]
             : 0.0);
}

void ConfidenceMatrix::set_alpha(double alpha) {
  if (alpha <= 0.0 || alpha > 1.0) {
    throw std::invalid_argument("ConfidenceMatrix::set_alpha: out of (0, 1]");
  }
  alpha_ = alpha;
}

void ConfidenceMatrix::set_weight(data::SensorLocation sensor, int cls,
                                  double value) {
  if (cls < 0 || cls >= num_classes_) throw std::out_of_range("ConfidenceMatrix::set_weight");
  weights_[static_cast<std::size_t>(sensor)][static_cast<std::size_t>(cls)] = value;
}

double ConfidenceMatrix::distance(const ConfidenceMatrix& other) const {
  if (other.num_classes_ != num_classes_) {
    throw std::invalid_argument("ConfidenceMatrix::distance: size mismatch");
  }
  double sum = 0.0;
  for (int s = 0; s < data::kNumSensors; ++s) {
    for (int c = 0; c < num_classes_; ++c) {
      sum += std::fabs(
          weights_[static_cast<std::size_t>(s)][static_cast<std::size_t>(c)] -
          other.weights_[static_cast<std::size_t>(s)][static_cast<std::size_t>(c)]);
    }
  }
  return sum / static_cast<double>(data::kNumSensors * num_classes_);
}

}  // namespace origin::core
