// Parameter-free activation layers.
#pragma once

#include "nn/layer.hpp"

namespace origin::nn {

class ReLU : public Layer {
 public:
  /// A training forward keeps copies of its inputs for backward_batch.
  void forward_batch(const Tensor* const* inputs, std::size_t count,
                     Tensor* outputs, bool train) override;
  void backward_batch(const Tensor* const* grad_outputs, std::size_t count,
                      Tensor* grad_inputs) override;
  std::string kind() const override { return "relu"; }
  std::unique_ptr<Layer> clone() const override;
  std::vector<int> output_shape(const std::vector<int>& input) const override {
    return input;
  }

 private:
  /// Training cache: per-sample input copies (storage reused; count 0:
  /// none).
  std::vector<Tensor> train_inputs_;
  std::size_t train_count_ = 0;
};

/// Flatten any-rank input to rank-1; backward restores the original shape.
class Flatten : public Layer {
 public:
  /// A training batch must be same-shape (the trainer's minibatches are),
  /// so one cached shape serves every sample's backward reshape.
  void forward_batch(const Tensor* const* inputs, std::size_t count,
                     Tensor* outputs, bool train) override;
  void backward_batch(const Tensor* const* grad_outputs, std::size_t count,
                      Tensor* grad_inputs) override;
  std::string kind() const override { return "flatten"; }
  std::unique_ptr<Layer> clone() const override;
  std::vector<int> output_shape(const std::vector<int>& input) const override;

 private:
  std::vector<int> train_shape_;
  std::size_t train_count_ = 0;
};

}  // namespace origin::nn
