// Inverted dropout: active only when forward(train=true); identity at
// inference so deployed behaviour matches the serialized model.
#pragma once

#include "nn/layer.hpp"
#include "util/rng.hpp"

namespace origin::nn {

class Dropout : public Layer {
 public:
  explicit Dropout(float rate, std::uint64_t seed = 0x5eedD120ULL);

  /// Identity at inference. A training forward draws the per-element
  /// keep masks in sample order b = 0..count-1, so the RNG stream is
  /// exactly the one `count` batches of one would consume.
  void forward_batch(const Tensor* const* inputs, std::size_t count,
                     Tensor* outputs, bool train) override;
  void backward_batch(const Tensor* const* grad_outputs, std::size_t count,
                      Tensor* grad_inputs) override;
  std::string kind() const override { return "dropout"; }
  std::string describe() const override;
  std::unique_ptr<Layer> clone() const override;
  std::vector<int> output_shape(const std::vector<int>& input) const override {
    return input;
  }

  float rate() const { return rate_; }
  void reseed(std::uint64_t seed) { rng_.reseed(seed); }

 private:
  float rate_ = 0.0f;
  util::Rng rng_;
  /// Training cache: sample-major masks ([b][i] flat; empty when rate ==
  /// 0 made the forward a copy) and the batch geometry (count 0: none).
  std::vector<float> train_mask_;
  std::size_t train_count_ = 0;
  std::size_t train_n_ = 0;
};

}  // namespace origin::nn
