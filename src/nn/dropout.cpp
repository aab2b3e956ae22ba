#include "nn/dropout.hpp"

#include <cstring>
#include <sstream>
#include <stdexcept>

namespace origin::nn {

Dropout::Dropout(float rate, std::uint64_t seed) : rate_(rate), rng_(seed) {
  if (rate < 0.0f || rate >= 1.0f) {
    throw std::invalid_argument("Dropout: rate must be in [0, 1)");
  }
}

void Dropout::forward_batch(const Tensor* const* inputs, std::size_t count,
                            Tensor* outputs, bool train) {
  train_count_ = 0;
  if (count == 0) return;
  if (!train || rate_ == 0.0f) {
    for (std::size_t b = 0; b < count; ++b) {
      outputs[b].reset_shape(inputs[b]->shape());
      std::memcpy(outputs[b].data(), inputs[b]->data(),
                  sizeof(float) * inputs[b]->size());
    }
    if (train) {
      train_mask_.clear();
      train_count_ = count;
    }
    return;
  }
  const std::size_t n = inputs[0]->size();
  for (std::size_t b = 1; b < count; ++b) {
    if (inputs[b]->size() != n) {
      throw std::invalid_argument(
          "Dropout::forward: mixed input sizes in a training batch");
    }
  }
  const float keep = 1.0f - rate_;
  train_mask_.resize(count * n);
  for (std::size_t b = 0; b < count; ++b) {
    outputs[b].reset_shape(inputs[b]->shape());
    const float* x = inputs[b]->data();
    float* y = outputs[b].data();
    float* mask = train_mask_.data() + b * n;
    for (std::size_t i = 0; i < n; ++i) {
      const bool kept = rng_.uniform() < keep;
      mask[i] = kept ? 1.0f / keep : 0.0f;
      y[i] = x[i] * mask[i];
    }
  }
  train_count_ = count;
  train_n_ = n;
}

void Dropout::backward_batch(const Tensor* const* grad_outputs,
                             std::size_t count, Tensor* grad_inputs) {
  require_train_cache(train_count_, count);
  for (std::size_t b = 0; b < count; ++b) {
    grad_inputs[b].reset_shape(grad_outputs[b]->shape());
    const float* gy = grad_outputs[b]->data();
    float* gx = grad_inputs[b].data();
    if (train_mask_.empty()) {
      std::memcpy(gx, gy, sizeof(float) * grad_outputs[b]->size());
      continue;
    }
    if (grad_outputs[b]->size() != train_n_) {
      throw std::invalid_argument(
          "Dropout::backward_batch: gradient size mismatch");
    }
    const float* mask = train_mask_.data() + b * train_n_;
    for (std::size_t i = 0; i < train_n_; ++i) gx[i] = gy[i] * mask[i];
  }
}

std::string Dropout::describe() const {
  std::ostringstream os;
  os << "dropout(" << rate_ << ")";
  return os.str();
}

std::unique_ptr<Layer> Dropout::clone() const {
  return std::make_unique<Dropout>(rate_);
}

}  // namespace origin::nn
