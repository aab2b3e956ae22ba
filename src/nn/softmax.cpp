#include "nn/softmax.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace origin::nn {

std::vector<float> softmax(const std::vector<float>& logits) {
  std::vector<float> out(logits.size());
  if (logits.empty()) return out;
  const float m = *std::max_element(logits.begin(), logits.end());
  float sum = 0.0f;
  for (std::size_t i = 0; i < logits.size(); ++i) {
    out[i] = std::exp(logits[i] - m);
    sum += out[i];
  }
  for (auto& v : out) v /= sum;
  return out;
}

void Softmax::forward_batch(const Tensor* const* inputs, std::size_t count,
                            Tensor* outputs, bool train) {
  train_count_ = 0;
  if (train && train_outputs_.size() < count) train_outputs_.resize(count);
  for (std::size_t b = 0; b < count; ++b) {
    const Tensor& in = *inputs[b];
    outputs[b].reset_shape(in.shape());
    const float* x = in.data();
    float* y = outputs[b].data();
    const std::size_t n = in.size();
    if (n > 0) {
      // Same max-shift / exp / normalize sequence as the free function, so
      // results match softmax() bit-for-bit.
      float m = x[0];
      for (std::size_t i = 1; i < n; ++i) m = std::max(m, x[i]);
      float sum = 0.0f;
      for (std::size_t i = 0; i < n; ++i) {
        y[i] = std::exp(x[i] - m);
        sum += y[i];
      }
      for (std::size_t i = 0; i < n; ++i) y[i] /= sum;
    }
    if (train) train_outputs_[b] = outputs[b];
  }
  if (train) train_count_ = count;
}

void Softmax::backward_batch(const Tensor* const* grad_outputs,
                             std::size_t count, Tensor* grad_inputs) {
  require_train_cache(train_count_, count);
  for (std::size_t b = 0; b < count; ++b) {
    const Tensor& y = train_outputs_[b];
    const Tensor& gy = *grad_outputs[b];
    if (gy.size() != y.size()) {
      throw std::invalid_argument("Softmax::backward_batch: size mismatch");
    }
    // dL/dx_i = y_i * (dL/dy_i - sum_j dL/dy_j * y_j)
    float dot = 0.0f;
    for (std::size_t j = 0; j < y.size(); ++j) dot += gy[j] * y[j];
    grad_inputs[b].reset_shape(y.shape());
    for (std::size_t i = 0; i < y.size(); ++i) {
      grad_inputs[b][i] = y[i] * (gy[i] - dot);
    }
  }
}

std::unique_ptr<Layer> Softmax::clone() const {
  return std::make_unique<Softmax>();
}

}  // namespace origin::nn
