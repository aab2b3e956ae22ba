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

  /// Inference path (train == false) runs the n == 1 gemm_bias
  /// (nn/kernels.hpp) and retains nothing; the training path additionally
  /// caches the input for backward(). Both match forward_reference()
  /// bit-for-bit.
  Tensor forward(const Tensor& input, bool train) override;
  /// Kernel-backed backward: grad-weight rank-1 GEMM + transposed matvec
  /// for grad-input. Bit-identical to backward_reference().
  Tensor backward(const Tensor& grad_output) override;

  /// Batched inference: inputs packed column-wise into an [in, count]
  /// panel and multiplied in one GEMM — each weight row is read once for
  /// the whole batch. Bit-identical to per-sample forward.
  void forward_batch(const Tensor* const* inputs, std::size_t count,
                     Tensor* outputs) override;

  /// Batched training: the forward keeps the [in, count] input panel in a
  /// member so backward_batch can run the grad-weight GEMM (reduction over
  /// the sample axis, in sample order) and the transposed grad-input GEMM
  /// for the whole minibatch. Bit-identical to per-sample calls in order.
  bool supports_batch_train() const override { return true; }
  void forward_batch_train(const Tensor* const* inputs, std::size_t count,
                           Tensor* outputs) override;
  void backward_batch(const Tensor* const* grad_outputs, std::size_t count,
                      Tensor* grad_inputs) override;

  /// The original row-by-row loop, kept as the accumulation-order
  /// reference the kernel path must match bit-for-bit.
  Tensor forward_reference(const Tensor& input) const;

  /// The original backward loop, kept verbatim as the gradient
  /// accumulation-order oracle (tests/test_train_kernels.cpp).
  Tensor backward_reference(const Tensor& grad_output);

  std::vector<Tensor*> params() override { return {&weight_, &bias_}; }
  std::vector<Tensor*> grads() override { return {&grad_weight_, &grad_bias_}; }

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
  int in_ = 0;
  int out_ = 0;
  Tensor weight_;       // [out, in]
  Tensor bias_;         // [out]
  Tensor grad_weight_;  // [out, in]
  Tensor grad_bias_;    // [out]
  Tensor last_input_;   // [in]
  /// Int8 serving mode: weight codes on the symmetric qbits_ grid, their
  /// scale, and the mode flag (32 = float path).
  std::vector<std::int8_t> qweight_;
  float qscale_ = 0.0f;
  int qbits_ = 32;
  /// Batched-training cache: the [in, count] input panel of the last
  /// forward_batch_train (sample b in column b).
  std::vector<float> train_panel_;
  std::size_t train_count_ = 0;
};

}  // namespace origin::nn
