// Numerically-stable softmax. Training uses fused softmax+cross-entropy in
// loss.hpp (gradient p - y); this standalone layer serves inference-time
// probability outputs and its exact Jacobian backward is exercised by the
// gradient-check tests.
#pragma once

#include "nn/layer.hpp"

namespace origin::nn {

class Softmax : public Layer {
 public:
  /// A training forward keeps the outputs for backward_batch's exact
  /// Jacobian product.
  void forward_batch(const Tensor* const* inputs, std::size_t count,
                     Tensor* outputs, bool train) override;
  void backward_batch(const Tensor* const* grad_outputs, std::size_t count,
                      Tensor* grad_inputs) override;
  std::string kind() const override { return "softmax"; }
  std::unique_ptr<Layer> clone() const override;
  std::vector<int> output_shape(const std::vector<int>& input) const override {
    return input;
  }

 private:
  /// Training cache: per-sample output copies (storage reused; count 0:
  /// none).
  std::vector<Tensor> train_outputs_;
  std::size_t train_count_ = 0;
};

/// Free-function softmax over a logits vector.
std::vector<float> softmax(const std::vector<float>& logits);

}  // namespace origin::nn
