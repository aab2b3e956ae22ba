// 1-D convolution over [channels, length] windows — the workhorse of the
// per-sensor HAR classifiers (Ha & Choi-style CNNs, paper refs [11],[14]).
#pragma once

#include "nn/layer.hpp"

namespace origin::util {
class Rng;
}

namespace origin::nn {

class Conv1D : public Layer {
 public:
  /// Valid (no padding) convolution with the given stride.
  Conv1D(int in_channels, int out_channels, int kernel, int stride,
         util::Rng& rng);
  Conv1D(int in_channels, int out_channels, int kernel, int stride);

  /// One im2row panel [cin*k, count*out_len] (sample b at column offset
  /// b*out_len) and one GEMM for the whole batch; each output element
  /// accumulates in the naive loop's order (tests/nn_oracles.hpp), so a
  /// sample's bits do not depend on the batch. A training forward keeps
  /// the panel in a member (thread-local scratch would be clobbered by the
  /// next layer) for backward_batch's one grad-weight GEMM. Quantized
  /// inference routes per sample (see set_inference_bits).
  void forward_batch(const Tensor* const* inputs, std::size_t count,
                     Tensor* outputs, bool train) override;
  /// Grad-bias row reduction + grad-weight GEMM over the cached panel +
  /// the order-preserving transposed correlation for grad-input.
  void backward_batch(const Tensor* const* grad_outputs, std::size_t count,
                      Tensor* grad_inputs) override;

  std::vector<Tensor*> params() override { return {&weight_, &bias_}; }
  std::vector<Tensor*> grads() override;
  std::size_t grad_size() const override {
    return grad_weight_.size() + grad_bias_.size();
  }

  /// Int8 serving mode (see Layer): weights quantized on the symmetric
  /// `bits` grid into int8 storage; inference forwards run im2row +
  /// per-sample activation quantization + the int32-accumulation GEMM.
  /// Training forwards keep using the float weights. Pruning surgery
  /// resets the mode to 32 (the quantized copy would be stale).
  void set_inference_bits(int bits) override;
  int inference_bits() const override { return qbits_; }

  std::string kind() const override { return "conv1d"; }
  std::string describe() const override;
  std::unique_ptr<Layer> clone() const override;
  std::vector<int> output_shape(const std::vector<int>& input) const override;
  std::uint64_t macs(const std::vector<int>& input) const override;

  int in_channels() const { return cin_; }
  int out_channels() const { return cout_; }
  int kernel() const { return k_; }
  int stride() const { return stride_; }

  /// weight shape [cout, cin, k]; bias [cout].
  Tensor& weight() { return weight_; }
  const Tensor& weight() const { return weight_; }
  Tensor& bias() { return bias_; }
  const Tensor& bias() const { return bias_; }

  /// L2 norm of output filter `f`'s weights — pruning importance score.
  float filter_l2(int f) const;
  /// Structured pruning surgery.
  void remove_output_filter(int f);
  void remove_input_channel(int c);

  static int out_length(int in_length, int kernel, int stride);

 private:
  /// Validates the [cin, L] input shape and returns the output length.
  int checked_out_length(const Tensor& input) const;
  /// The int8 serving forward of one sample.
  void forward_int8(const Tensor& input, Tensor& out) const;

  int cin_ = 0;
  int cout_ = 0;
  int k_ = 0;
  int stride_ = 1;
  Tensor weight_;       // [cout, cin, k]
  Tensor bias_;         // [cout]
  /// Gradients of weight_ and bias_: empty until training sizes them
  /// (Layer::grads).
  Tensor grad_weight_;
  Tensor grad_bias_;
  /// Int8 serving mode: weight codes on the symmetric qbits_ grid, their
  /// scale, and the mode flag (32 = float path).
  std::vector<std::int8_t> qweight_;
  float qscale_ = 0.0f;
  int qbits_ = 32;
  /// Training cache: the wide im2row panel [cin*k, count*out_len] of the
  /// last training forward, plus its geometry (count 0: no cache).
  std::vector<float> train_panel_;
  std::size_t train_count_ = 0;
  int train_in_len_ = 0;
};

}  // namespace origin::nn
