// Sequential model container: the unit the scheduler deploys to a sensor
// node and the unit pruning/serialization operate on.
#pragma once

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "nn/layer.hpp"
#include "nn/tensor.hpp"

namespace origin::nn {

class Sequential {
 public:
  Sequential() = default;
  Sequential(Sequential&&) = default;
  Sequential& operator=(Sequential&&) = default;
  Sequential(const Sequential& other);
  Sequential& operator=(const Sequential& other);

  /// Appends a layer; returns *this for builder-style chaining.
  Sequential& add(LayerPtr layer);

  template <typename L, typename... Args>
  Sequential& emplace(Args&&... args) {
    return add(std::make_unique<L>(std::forward<Args>(args)...));
  }

  /// The model's one forward over same-shape inputs: each layer runs
  /// forward_batch on the whole panel (one im2row panel / GEMM for conv
  /// and dense), double-buffering activations through thread-local arenas
  /// so steady-state classification allocates nothing per window.
  /// outputs[b] is bit-identical to the same input in a batch of one;
  /// `train` is passed to every layer (see Layer::forward_batch).
  void forward_batch(const Tensor* const* inputs, std::size_t count,
                     Tensor* outputs, bool train);

  /// Backward for the most recent forward_batch(train=true) of the same
  /// count: after it returns, every parameter-gradient element is
  /// bit-identical to `count` batch-of-one backward(grad_logits[b]) calls
  /// in sample order. The input gradient is discarded.
  void backward_batch(const Tensor* const* grad_logits, std::size_t count);

  /// Batch-of-one forward_batch (logits for a classifier).
  Tensor forward(const Tensor& input, bool train = false);
  /// Batch-of-one backward_batch; input is dL/d(logits).
  void backward(const Tensor& grad_logits);

  /// Softmax probabilities for a classifier head producing logits.
  std::vector<float> predict_proba(const Tensor& input);
  /// Top-1 class for the input.
  int predict(const Tensor& input);

  /// Batched predict_proba; element b matches predict_proba(inputs[b])
  /// bit-for-bit.
  std::vector<std::vector<float>> predict_proba_batch(
      const Tensor* const* inputs, std::size_t count);
  std::vector<std::vector<float>> predict_proba_batch(
      std::span<const Tensor> inputs);
  /// Flat-output variant for hot serving panels: row b of `probs`
  /// (`num_classes` floats, returned) equals predict_proba(inputs[b])
  /// bit-for-bit. `probs` is resized to count * num_classes and its
  /// capacity is the caller's to reuse across panels — steady-state
  /// panel classification allocates nothing beyond the thread-local
  /// activation arena.
  std::size_t predict_proba_batch_into(const Tensor* const* inputs,
                                       std::size_t count,
                                       std::vector<float>& probs);
  /// Batched top-1 prediction; element b matches predict(inputs[b]).
  std::vector<int> predict_batch(const Tensor* const* inputs,
                                 std::size_t count);
  std::vector<int> predict_batch(std::span<const Tensor> inputs);

  std::size_t layer_count() const { return layers_.size(); }
  Layer& layer(std::size_t i) { return *layers_[i]; }
  const Layer& layer(std::size_t i) const { return *layers_[i]; }

  std::vector<Tensor*> params();
  /// Every layer's gradients, sized on first use (see Layer::grads).
  std::vector<Tensor*> grads();
  std::size_t param_count() const;
  /// Gradient elements the layers hold now; 0 for a model that never
  /// trained (a loaded, copied or cloned one).
  std::size_t grad_size() const;
  void zero_grads();

  /// Switch every layer's inference execution mode (see Layer): 32 is the
  /// float path, [2, 8] quantizes weight-bearing layers to int8 storage
  /// with int32-accumulation GEMMs. Training is unaffected.
  void set_inference_bits(int bits);
  /// The active inference mode: the first non-32 layer mode, or 32 when
  /// the whole model runs float.
  int inference_bits() const;

  /// Shape of the output for a given input shape, and per-layer input
  /// shapes (index i = input shape of layer i; back() = final output).
  std::vector<std::vector<int>> shape_trace(const std::vector<int>& input) const;
  std::vector<int> output_shape(const std::vector<int>& input) const;

  /// Total multiply-accumulates for one sample of the given input shape.
  std::uint64_t total_macs(const std::vector<int>& input) const;

  std::string summary(const std::vector<int>& input) const;

 private:
  std::vector<LayerPtr> layers_;
};

}  // namespace origin::nn
