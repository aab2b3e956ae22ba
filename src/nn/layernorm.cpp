#include "nn/layernorm.hpp"

#include <cmath>
#include <sstream>
#include <stdexcept>

namespace origin::nn {

LayerNorm::LayerNorm(int size, float epsilon)
    : size_(size),
      epsilon_(epsilon),
      gamma_(Tensor::full({size}, 1.0f)),
      beta_({size}) {
  if (size <= 0) throw std::invalid_argument("LayerNorm: size <= 0");
  if (epsilon <= 0.0f) throw std::invalid_argument("LayerNorm: epsilon <= 0");
}

void LayerNorm::forward_batch(const Tensor* const* inputs, std::size_t count,
                              Tensor* outputs, bool train) {
  train_count_ = 0;
  const std::size_t size = static_cast<std::size_t>(size_);
  for (std::size_t b = 0; b < count; ++b) {
    if (inputs[b]->size() != size) {
      throw std::invalid_argument("LayerNorm::forward: expected " +
                                  std::to_string(size_) + " elements");
    }
  }
  if (train) {
    train_normalized_.resize(count * size);
    train_inv_std_.resize(count);
  }
  const float n = static_cast<float>(size_);
  for (std::size_t b = 0; b < count; ++b) {
    const float* x = inputs[b]->data();
    float mean = 0.0f;
    for (std::size_t i = 0; i < size; ++i) mean += x[i];
    mean /= n;
    float var = 0.0f;
    for (std::size_t i = 0; i < size; ++i) {
      const float d = x[i] - mean;
      var += d * d;
    }
    var /= n;
    const float inv_std = 1.0f / std::sqrt(var + epsilon_);
    outputs[b].reset_shape(inputs[b]->shape());
    float* y = outputs[b].data();
    for (std::size_t i = 0; i < size; ++i) {
      const float xh = (x[i] - mean) * inv_std;
      y[i] = gamma_[i] * xh + beta_[i];
      if (train) train_normalized_[b * size + i] = xh;
    }
    if (train) train_inv_std_[b] = inv_std;
  }
  if (train) train_count_ = count;
}

std::vector<Tensor*> LayerNorm::grads() {
  size_grad(grad_gamma_, gamma_);
  size_grad(grad_beta_, beta_);
  return {&grad_gamma_, &grad_beta_};
}

void LayerNorm::backward_batch(const Tensor* const* grad_outputs,
                               std::size_t count, Tensor* grad_inputs) {
  require_train_cache(train_count_, count);
  grads();  // sizes the gradients on first use
  const std::size_t size = static_cast<std::size_t>(size_);
  const float n = static_cast<float>(size_);
  for (std::size_t b = 0; b < count; ++b) {
    const Tensor& gy = *grad_outputs[b];
    if (gy.size() != size) {
      throw std::invalid_argument(
          "LayerNorm::backward_batch: gradient size mismatch");
    }
    const float* xh = train_normalized_.data() + b * size;
    const float inv_std = train_inv_std_[b];
    // dL/dx_hat_i = g_i * gamma_i; with the standard layer-norm backward:
    // dL/dx_i = inv_std/n * (n*dxh_i - sum(dxh) - x_hat_i * sum(dxh * x_hat))
    // dxh is staged in the gradient tensor, then rewritten in place.
    grad_inputs[b].reset_shape(gy.shape());
    float* gx = grad_inputs[b].data();
    float sum_dxh = 0.0f;
    float sum_dxh_xh = 0.0f;
    for (std::size_t i = 0; i < size; ++i) {
      grad_gamma_[i] += gy[i] * xh[i];
      grad_beta_[i] += gy[i];
      gx[i] = gy[i] * gamma_[i];
      sum_dxh += gx[i];
      sum_dxh_xh += gx[i] * xh[i];
    }
    for (std::size_t i = 0; i < size; ++i) {
      gx[i] = inv_std / n * (n * gx[i] - sum_dxh - xh[i] * sum_dxh_xh);
    }
  }
}

std::string LayerNorm::describe() const {
  std::ostringstream os;
  os << "layernorm(" << size_ << ")";
  return os.str();
}

std::unique_ptr<Layer> LayerNorm::clone() const {
  auto copy = std::make_unique<LayerNorm>(size_, epsilon_);
  copy->gamma_ = gamma_;
  copy->beta_ = beta_;
  return copy;
}

std::vector<int> LayerNorm::output_shape(const std::vector<int>& input) const {
  if (Tensor::shape_size(input) != static_cast<std::size_t>(size_)) {
    throw std::invalid_argument("LayerNorm: input shape mismatch");
  }
  return input;
}

}  // namespace origin::nn
