// Max pooling over the temporal axis of a [channels, length] tensor.
#pragma once

#include "nn/layer.hpp"

namespace origin::nn {

class MaxPool1D : public Layer {
 public:
  /// Non-overlapping pooling when stride == pool (the default).
  explicit MaxPool1D(int pool, int stride = 0);

  /// Inference selects branch-free; a training forward runs the argmax
  /// loop instead (same strict `>`, so the same values) and records the
  /// argmax indices backward_batch routes gradients to.
  void forward_batch(const Tensor* const* inputs, std::size_t count,
                     Tensor* outputs, bool train) override;
  void backward_batch(const Tensor* const* grad_outputs, std::size_t count,
                      Tensor* grad_inputs) override;
  std::string kind() const override { return "maxpool1d"; }
  std::string describe() const override;
  std::unique_ptr<Layer> clone() const override;
  std::vector<int> output_shape(const std::vector<int>& input) const override;

  int pool() const { return pool_; }
  int stride() const { return stride_; }

  static int out_length(int in_length, int pool, int stride);

 private:
  /// The training forward: the argmax loop, recording train_argmax_.
  void forward_train(const Tensor* const* inputs, std::size_t count,
                     Tensor* outputs);

  int pool_ = 2;
  int stride_ = 2;
  /// Training cache: per-sample within-row argmax indices, sample-major
  /// ([b][c][t] flat; every sample has shape in_shape_; count 0: none).
  std::vector<int> train_argmax_;
  std::vector<int> in_shape_;
  std::size_t train_count_ = 0;
};

}  // namespace origin::nn
