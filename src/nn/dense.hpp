// Fully-connected layer: y = W x + b over rank-1 inputs.
#pragma once

#include "nn/layer.hpp"

namespace origin::util {
class Rng;
}

namespace origin::nn {

class Dense : public Layer {
 public:
  /// He-normal initialized weights. `rng` is only used at construction.
  Dense(int in_features, int out_features, util::Rng& rng);
  /// Uninitialized-parameter constructor for deserialization.
  Dense(int in_features, int out_features);

  /// Inputs packed column-wise into an [in, count] panel and multiplied
  /// in one GEMM — each weight row is read once for the whole batch, and
  /// each output accumulates in the naive loop's order
  /// (tests/nn_oracles.hpp) whatever the batch. A training forward keeps
  /// the panel in a member for backward_batch. Quantized inference routes
  /// per sample (see set_inference_bits).
  void forward_batch(const Tensor* const* inputs, std::size_t count,
                     Tensor* outputs, bool train) override;
  /// Grad-weight GEMM (reduction over the sample axis, in sample order)
  /// and the transposed grad-input GEMM for the whole batch.
  void backward_batch(const Tensor* const* grad_outputs, std::size_t count,
                      Tensor* grad_inputs) override;

  std::vector<Tensor*> params() override { return {&weight_, &bias_}; }
  std::vector<Tensor*> grads() override;
  std::size_t grad_size() const override {
    return grad_weight_.size() + grad_bias_.size();
  }

  /// Int8 serving mode (see Layer): weights quantized on the symmetric
  /// `bits` grid into int8 storage; inference forwards run per-sample
  /// activation quantization + the int32-accumulation GEMM (n == 1).
  /// Training forwards keep using the float weights. Pruning surgery
  /// resets the mode to 32 (the quantized copy would be stale).
  void set_inference_bits(int bits) override;
  int inference_bits() const override { return qbits_; }

  std::string kind() const override { return "dense"; }
  std::string describe() const override;
  std::unique_ptr<Layer> clone() const override;
  std::vector<int> output_shape(const std::vector<int>& input) const override;
  std::uint64_t macs(const std::vector<int>& input) const override;

  int in_features() const { return in_; }
  int out_features() const { return out_; }

  /// weight has shape [out, in]; bias [out]. Exposed for pruning surgery
  /// and serialization.
  Tensor& weight() { return weight_; }
  const Tensor& weight() const { return weight_; }
  Tensor& bias() { return bias_; }
  const Tensor& bias() const { return bias_; }

  /// Remove a contiguous block of input columns [begin, begin+count) —
  /// used when an upstream conv filter is pruned away.
  void remove_input_block(int begin, int count);
  /// Remove output unit `index` (row of W, element of b).
  void remove_output_unit(int index);

 private:
  /// The int8 serving forward of one sample.
  void forward_int8(const Tensor& input, Tensor& out) const;

  int in_ = 0;
  int out_ = 0;
  Tensor weight_;       // [out, in]
  Tensor bias_;         // [out]
  /// Gradients of weight_ and bias_: empty until training sizes them
  /// (Layer::grads).
  Tensor grad_weight_;
  Tensor grad_bias_;
  /// Int8 serving mode: weight codes on the symmetric qbits_ grid, their
  /// scale, and the mode flag (32 = float path).
  std::vector<std::int8_t> qweight_;
  float qscale_ = 0.0f;
  int qbits_ = 32;
  /// Training cache: the [in, count] input panel of the last training
  /// forward (sample b in column b; count 0: no cache).
  std::vector<float> train_panel_;
  std::size_t train_count_ = 0;
};

}  // namespace origin::nn
