// Layer normalization with learnable gain/bias. Per-sample normalization
// (no batch statistics) keeps a sample's output independent of its batch
// and stabilizes the small HAR CNNs when sensor gains drift between users.
#pragma once

#include "nn/layer.hpp"

namespace origin::nn {

class LayerNorm : public Layer {
 public:
  /// Normalizes over all elements of the input tensor (any rank); `size`
  /// must equal the input element count. gamma starts at 1, beta at 0.
  explicit LayerNorm(int size, float epsilon = 1e-5f);

  /// Normalizes each sample on its own; a training forward keeps every
  /// sample's x_hat and 1/std for backward_batch.
  void forward_batch(const Tensor* const* inputs, std::size_t count,
                     Tensor* outputs, bool train) override;
  void backward_batch(const Tensor* const* grad_outputs, std::size_t count,
                      Tensor* grad_inputs) override;

  std::vector<Tensor*> params() override { return {&gamma_, &beta_}; }
  std::vector<Tensor*> grads() override;
  std::size_t grad_size() const override {
    return grad_gamma_.size() + grad_beta_.size();
  }

  std::string kind() const override { return "layernorm"; }
  std::string describe() const override;
  std::unique_ptr<Layer> clone() const override;
  std::vector<int> output_shape(const std::vector<int>& input) const override;

  int size() const { return size_; }
  float epsilon() const { return epsilon_; }
  Tensor& gamma() { return gamma_; }
  const Tensor& gamma() const { return gamma_; }
  Tensor& beta() { return beta_; }
  const Tensor& beta() const { return beta_; }

 private:
  int size_ = 0;
  float epsilon_ = 1e-5f;
  Tensor gamma_;       // [size]
  Tensor beta_;        // [size]
  /// Gradients of gamma_ and beta_: empty until training sizes them
  /// (Layer::grads).
  Tensor grad_gamma_;
  Tensor grad_beta_;
  /// Training cache: x_hat sample-major ([b][i] flat) and each sample's
  /// 1/std (count 0: none).
  std::vector<float> train_normalized_;
  std::vector<float> train_inv_std_;
  std::size_t train_count_ = 0;
};

}  // namespace origin::nn
