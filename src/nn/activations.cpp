#include "nn/activations.hpp"

#include <cstring>
#include <stdexcept>

namespace origin::nn {

void ReLU::forward_batch(const Tensor* const* inputs, std::size_t count,
                         Tensor* outputs, bool train) {
  train_count_ = 0;
  if (train && train_inputs_.size() < count) train_inputs_.resize(count);
  for (std::size_t b = 0; b < count; ++b) {
    if (train) {
      train_inputs_[b].reset_shape(inputs[b]->shape());
      std::memcpy(train_inputs_[b].data(), inputs[b]->data(),
                  sizeof(float) * inputs[b]->size());
    }
    outputs[b].reset_shape(inputs[b]->shape());
    const float* x = inputs[b]->data();
    float* y = outputs[b].data();
    const std::size_t n = inputs[b]->size();
    for (std::size_t i = 0; i < n; ++i) y[i] = x[i] < 0.0f ? 0.0f : x[i];
  }
  if (train) train_count_ = count;
}

void ReLU::backward_batch(const Tensor* const* grad_outputs, std::size_t count,
                          Tensor* grad_inputs) {
  require_train_cache(train_count_, count);
  for (std::size_t b = 0; b < count; ++b) {
    const Tensor& x = train_inputs_[b];
    if (x.size() != grad_outputs[b]->size()) {
      throw std::invalid_argument("ReLU::backward_batch: size mismatch");
    }
    grad_inputs[b].reset_shape(x.shape());
    const float* gy = grad_outputs[b]->data();
    float* gx = grad_inputs[b].data();
    for (std::size_t i = 0; i < x.size(); ++i) {
      gx[i] = x[i] <= 0.0f ? 0.0f : gy[i];
    }
  }
}

std::unique_ptr<Layer> ReLU::clone() const { return std::make_unique<ReLU>(); }

void Flatten::forward_batch(const Tensor* const* inputs, std::size_t count,
                            Tensor* outputs, bool train) {
  train_count_ = 0;
  for (std::size_t b = 0; b < count; ++b) {
    if (train && inputs[b]->shape() != inputs[0]->shape()) {
      throw std::invalid_argument(
          "Flatten::forward: mixed input shapes in a training batch");
    }
    outputs[b].reset_shape({static_cast<int>(inputs[b]->size())});
    std::memcpy(outputs[b].data(), inputs[b]->data(),
                sizeof(float) * inputs[b]->size());
  }
  if (train && count > 0) {
    train_shape_ = inputs[0]->shape();
    train_count_ = count;
  }
}

void Flatten::backward_batch(const Tensor* const* grad_outputs,
                             std::size_t count, Tensor* grad_inputs) {
  require_train_cache(train_count_, count);
  const std::size_t n = Tensor::shape_size(train_shape_);
  for (std::size_t b = 0; b < count; ++b) {
    if (grad_outputs[b]->size() != n) {
      throw std::invalid_argument("Flatten::backward_batch: size mismatch");
    }
    grad_inputs[b].reset_shape(train_shape_);
    std::memcpy(grad_inputs[b].data(), grad_outputs[b]->data(),
                sizeof(float) * n);
  }
}

std::unique_ptr<Layer> Flatten::clone() const {
  return std::make_unique<Flatten>();
}

std::vector<int> Flatten::output_shape(const std::vector<int>& input) const {
  return {static_cast<int>(Tensor::shape_size(input))};
}

}  // namespace origin::nn
