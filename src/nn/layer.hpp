// Layer interface for the from-scratch inference/training engine.
//
// A layer has one forward and one backward, both over a batch of
// same-kind samples (rank-2 [channels, length] tensors for the
// convolutional front-end, rank-1 after Flatten). forward_batch(train=true)
// keeps the one cache backward_batch reads; backward_batch accumulates
// parameter gradients (zeroed by the optimizer after each step) and writes
// the gradient with respect to each layer input. Single-sample forward()
// and backward() are batches of one.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "nn/tensor.hpp"

namespace origin::nn {

class Layer {
 public:
  virtual ~Layer() = default;

  /// outputs[b] for inputs[b], b in [0, count), written into the caller's
  /// tensors (reusing their storage via Tensor::reset_shape — the batched
  /// path's activation arena). Every output element is bit-identical to
  /// the same sample's output in a batch of one. `train` enables
  /// training-only behaviour (Dropout draws its masks in sample order
  /// b = 0..count-1, the stream `count` batches of one would consume) and
  /// decides whether the layer keeps what backward_batch needs. Inference
  /// forwards (train == false) retain nothing and drop any earlier cache.
  virtual void forward_batch(const Tensor* const* inputs, std::size_t count,
                             Tensor* outputs, bool train) = 0;

  /// Backward for the most recent forward_batch(train=true) of the same
  /// count: writes the per-sample input gradients and accumulates
  /// parameter gradients so that every gradient element ends bit-identical
  /// to `count` batch-of-one backwards in sample order (the kernels add
  /// contributions sample-major per element; a float store/load chain is
  /// exact, so the interleaving of *elements* may differ, the per-element
  /// order never). Throws std::logic_error without that training forward.
  virtual void backward_batch(const Tensor* const* grad_outputs,
                              std::size_t count, Tensor* grad_inputs) = 0;

  /// Batch-of-one forward_batch.
  Tensor forward(const Tensor& input, bool train);
  /// Batch-of-one backward_batch, for the most recent forward(x, true).
  Tensor backward(const Tensor& grad_output);

  /// Learnable parameters and their gradient accumulators; same order.
  /// Gradients are training state: a layer is built, copied and cloned
  /// without them, and grads() (the optimizer's bind, zero_grads) or a
  /// training backward_batch sizes each one, zeroed, on first use. So
  /// grads() mutates: it belongs to training code, never to a model that
  /// other threads run inference on.
  virtual std::vector<Tensor*> params() { return {}; }
  virtual std::vector<Tensor*> grads() { return {}; }
  /// Gradient elements the layer holds now (0 until training sizes them).
  virtual std::size_t grad_size() const { return 0; }

  /// Switch the layer's INFERENCE execution mode: 32 restores the float
  /// path; bits in [2, 8] makes weight-bearing layers (Conv1D, Dense)
  /// store weights quantized on the symmetric `bits` grid and execute
  /// inference forwards with int8 storage + int32-accumulation GEMMs
  /// (nn/kernels.hpp gemm_bias_i8). Training forwards/backwards always
  /// use the float weights; parameter-free layers ignore the call.
  virtual void set_inference_bits(int bits) { (void)bits; }
  /// The mode set above; 32 for float (and for parameter-free layers).
  virtual int inference_bits() const { return 32; }

  /// Stable identifier used by the serializer / factory.
  virtual std::string kind() const = 0;
  /// Human-readable one-line description for summaries.
  virtual std::string describe() const { return kind(); }

  virtual std::unique_ptr<Layer> clone() const = 0;

  /// Shape inference: output shape for a given input shape. Throws
  /// std::invalid_argument if the input shape is unsupported.
  virtual std::vector<int> output_shape(const std::vector<int>& input) const = 0;

  /// Multiply-accumulate count for one sample with the given input shape —
  /// consumed by the energy/latency model. Parameter-free layers return 0.
  virtual std::uint64_t macs(const std::vector<int>& input) const {
    (void)input;
    return 0;
  }

  std::size_t param_count() const {
    std::size_t n = 0;
    for (const Tensor* p : const_cast<Layer*>(this)->params()) n += p->size();
    return n;
  }

 protected:
  /// backward_batch's precondition: throws std::logic_error unless the
  /// layer cached a training batch (`cached` samples, 0 for none) of
  /// exactly `count` samples.
  void require_train_cache(std::size_t cached, std::size_t count) const;
  /// Sizes `grad` as zeros of `param`'s shape unless it has that shape
  /// already (then it keeps what it accumulated).
  static void size_grad(Tensor& grad, const Tensor& param);
};

using LayerPtr = std::unique_ptr<Layer>;

}  // namespace origin::nn
