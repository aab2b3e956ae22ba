#include "core/confidence.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <stdexcept>

#include "nn/softmax.hpp"
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
    nn::Sequential& model, const nn::Samples& samples, int num_classes,
    std::vector<double>* accuracy) {
  if (num_classes <= 0) {
    throw std::invalid_argument("ConfidenceMatrix::calibrate_sensor: num_classes <= 0");
  }
  const auto classes = static_cast<std::size_t>(num_classes);
  std::vector<util::RunningStats> per_class(classes);
  util::RunningStats global;
  std::vector<std::uint64_t> correct(classes, 0);
  std::vector<std::uint64_t> total(classes, 0);
  // Fixed-size chunks bound the batched-inference arenas; the chunk size
  // never changes the result — the batched forward is bit-identical to a
  // batch of one, and the stats accumulate in sample order. Each chunk's
  // logits feed both outputs: argmax of the logits is predict()'s class,
  // softmax of them is predict_proba()'s row.
  constexpr std::size_t kChunk = 256;
  std::vector<const nn::Tensor*> inputs;
  std::vector<nn::Tensor> logits(std::min(kChunk, samples.size()));
  for (std::size_t begin = 0; begin < samples.size(); begin += kChunk) {
    const std::size_t count = std::min(kChunk, samples.size() - begin);
    inputs.clear();
    for (std::size_t i = 0; i < count; ++i) {
      inputs.push_back(&samples[begin + i].input);
    }
    model.forward_batch(inputs.data(), count, logits.data(), /*train=*/false);
    for (std::size_t i = 0; i < count; ++i) {
      const std::vector<float> probs = nn::softmax(logits[i].vec());
      const double var = util::probability_vector_variance(probs);
      const auto predicted = util::argmax(probs);
      if (predicted >= classes) {
        throw std::logic_error(
            "ConfidenceMatrix::calibrate_sensor: class out of range");
      }
      per_class[predicted].add(var);
      global.add(var);
      const auto label = static_cast<std::size_t>(samples[begin + i].label);
      if (label >= classes) {
        throw std::invalid_argument(
            "ConfidenceMatrix::calibrate_sensor: label out of range");
      }
      ++total[label];
      if (logits[i].argmax() == label) ++correct[label];
    }
  }
  std::vector<double> row(classes);
  for (std::size_t c = 0; c < classes; ++c) {
    row[c] = per_class[c].count() > 0 ? per_class[c].mean() : global.mean();
  }
  if (accuracy) {
    accuracy->assign(classes, 0.0);
    for (std::size_t c = 0; c < classes; ++c) {
      if (total[c]) {
        (*accuracy)[c] =
            static_cast<double>(correct[c]) / static_cast<double>(total[c]);
      }
    }
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
