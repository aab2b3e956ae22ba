#include "nn/dense.hpp"

#include <cmath>
#include <sstream>
#include <stdexcept>

#include "nn/kernels.hpp"
#include "util/rng.hpp"

namespace origin::nn {

Dense::Dense(int in_features, int out_features)
    : in_(in_features),
      out_(out_features),
      weight_({out_features, in_features}),
      bias_({out_features}) {
  if (in_features <= 0 || out_features <= 0) {
    throw std::invalid_argument("Dense: non-positive dimensions");
  }
}

Dense::Dense(int in_features, int out_features, util::Rng& rng)
    : Dense(in_features, out_features) {
  const float stddev = std::sqrt(2.0f / static_cast<float>(in_features));
  weight_ = Tensor::randn({out_, in_}, rng, stddev);
}

void Dense::forward_int8(const Tensor& input, Tensor& out) const {
  // Dynamic symmetric 8-bit activation quantization + the exact
  // int32-accumulation GEMM with n == 1. Bit-identical on every backend.
  std::int8_t* qx = kernels::scratch_i8(static_cast<std::size_t>(in_));
  const float xscale = kernels::quantize_to_i8(
      input.data(), static_cast<std::size_t>(in_), 8, qx);
  out.reset_shape({out_});
  kernels::gemm_bias_i8(qweight_.data(), bias_.data(), qx, out.data(), out_,
                        in_, 1, qscale_ * xscale);
}

void Dense::forward_batch(const Tensor* const* inputs, std::size_t count,
                          Tensor* outputs, bool train) {
  train_count_ = 0;
  for (std::size_t b = 0; b < count; ++b) {
    if (static_cast<int>(inputs[b]->size()) != in_) {
      throw std::invalid_argument("Dense::forward: expected " +
                                  std::to_string(in_) + " features, got " +
                                  std::to_string(inputs[b]->size()));
    }
  }
  if (count == 0) return;
  if (!train && qbits_ != 32) {
    // Quantized mode scales activations per sample; route per sample to
    // keep a batch equal to its batches of one (see Conv1D).
    for (std::size_t b = 0; b < count; ++b) forward_int8(*inputs[b], outputs[b]);
    return;
  }
  // Column-wise input panel [in, count] -> staged GEMM output [out, count]
  // -> scatter column b to outputs[b]. Per-output accumulation runs over i
  // in order whatever the batch.
  float* panel;
  if (train) {
    train_panel_.resize(static_cast<std::size_t>(in_) * count);
    panel = train_panel_.data();
  } else {
    panel = kernels::scratch(kernels::Slot::Panel,
                             static_cast<std::size_t>(in_) * count);
  }
  for (std::size_t b = 0; b < count; ++b) {
    const float* x = inputs[b]->data();
    for (int i = 0; i < in_; ++i) {
      panel[static_cast<std::size_t>(i) * count + b] = x[i];
    }
  }
  float* stage = kernels::scratch(kernels::Slot::Stage,
                                  static_cast<std::size_t>(out_) * count);
  kernels::gemm_bias(weight_.data(), bias_.data(), panel, stage, out_, in_,
                     static_cast<int>(count));
  for (std::size_t b = 0; b < count; ++b) {
    outputs[b].reset_shape({out_});
    float* dst = outputs[b].data();
    for (int o = 0; o < out_; ++o) {
      dst[o] = stage[static_cast<std::size_t>(o) * count + b];
    }
  }
  if (train) train_count_ = count;
}

std::vector<Tensor*> Dense::grads() {
  size_grad(grad_weight_, weight_);
  size_grad(grad_bias_, bias_);
  return {&grad_weight_, &grad_bias_};
}

void Dense::backward_batch(const Tensor* const* grad_outputs,
                           std::size_t count, Tensor* grad_inputs) {
  require_train_cache(train_count_, count);
  grads();  // sizes the gradients on first use
  for (std::size_t b = 0; b < count; ++b) {
    if (static_cast<int>(grad_outputs[b]->size()) != out_) {
      throw std::invalid_argument(
          "Dense::backward_batch: gradient size mismatch");
    }
  }
  // Grad panel [out, count] mirroring the input panel's column layout:
  // the grad-weight GEMM and bias reduction then run over the sample axis
  // in sample order — the naive loop's sequential per-sample accumulation.
  float* gp = kernels::scratch(kernels::Slot::Panel,
                               static_cast<std::size_t>(out_) * count);
  for (std::size_t b = 0; b < count; ++b) {
    const float* gy = grad_outputs[b]->data();
    for (int o = 0; o < out_; ++o) {
      gp[static_cast<std::size_t>(o) * count + b] = gy[o];
    }
  }
  kernels::row_sum_acc(gp, grad_bias_.data(), out_, static_cast<int>(count),
                       count);
  kernels::gemm_acc_nt(gp, train_panel_.data(), grad_weight_.data(), out_, in_,
                       static_cast<int>(count));
  float* gxp = kernels::scratch(kernels::Slot::Stage,
                                static_cast<std::size_t>(in_) * count);
  kernels::gemm_tn(weight_.data(), gp, gxp, in_, out_, static_cast<int>(count));
  for (std::size_t b = 0; b < count; ++b) {
    grad_inputs[b].reset_shape({in_});
    float* dst = grad_inputs[b].data();
    for (int i = 0; i < in_; ++i) {
      dst[i] = gxp[static_cast<std::size_t>(i) * count + b];
    }
  }
}

std::string Dense::describe() const {
  std::ostringstream os;
  os << "dense(" << in_ << " -> " << out_ << ")";
  return os.str();
}

std::unique_ptr<Layer> Dense::clone() const {
  auto copy = std::make_unique<Dense>(in_, out_);
  copy->weight_ = weight_;
  copy->bias_ = bias_;
  copy->qweight_ = qweight_;
  copy->qscale_ = qscale_;
  copy->qbits_ = qbits_;
  return copy;
}

void Dense::set_inference_bits(int bits) {
  if (bits == 32) {
    qbits_ = 32;
    qweight_.clear();
    qscale_ = 0.0f;
    return;
  }
  if (bits < 2 || bits > 8) {
    throw std::invalid_argument(
        "Dense::set_inference_bits: bits must be 32 or in [2, 8]");
  }
  qweight_.resize(weight_.size());
  qscale_ = kernels::quantize_to_i8(weight_.data(), weight_.size(), bits,
                                    qweight_.data());
  qbits_ = bits;
}

std::vector<int> Dense::output_shape(const std::vector<int>& input) const {
  if (Tensor::shape_size(input) != static_cast<std::size_t>(in_)) {
    throw std::invalid_argument("Dense: input shape mismatch");
  }
  return {out_};
}

std::uint64_t Dense::macs(const std::vector<int>& /*input*/) const {
  return static_cast<std::uint64_t>(in_) * static_cast<std::uint64_t>(out_);
}

void Dense::remove_input_block(int begin, int count) {
  if (begin < 0 || count <= 0 || begin + count > in_) {
    throw std::invalid_argument("Dense::remove_input_block: bad range");
  }
  const int new_in = in_ - count;
  Tensor new_w({out_, new_in});
  for (int o = 0; o < out_; ++o) {
    int dst = 0;
    for (int i = 0; i < in_; ++i) {
      if (i >= begin && i < begin + count) continue;
      new_w.at(o, dst++) = weight_.at(o, i);
    }
  }
  in_ = new_in;
  weight_ = std::move(new_w);
  grad_weight_ = Tensor();  // re-sized on the next training use
  qbits_ = 32;
  qweight_.clear();
  qscale_ = 0.0f;
}

void Dense::remove_output_unit(int index) {
  if (index < 0 || index >= out_ || out_ <= 1) {
    throw std::invalid_argument("Dense::remove_output_unit: bad index");
  }
  const int new_out = out_ - 1;
  Tensor new_w({new_out, in_});
  Tensor new_b({new_out});
  int dst = 0;
  for (int o = 0; o < out_; ++o) {
    if (o == index) continue;
    for (int i = 0; i < in_; ++i) new_w.at(dst, i) = weight_.at(o, i);
    new_b[static_cast<std::size_t>(dst)] = bias_[static_cast<std::size_t>(o)];
    ++dst;
  }
  out_ = new_out;
  weight_ = std::move(new_w);
  bias_ = std::move(new_b);
  grad_weight_ = Tensor();  // both re-sized on the next training use
  grad_bias_ = Tensor();
  qbits_ = 32;
  qweight_.clear();
  qscale_ = 0.0f;
}

}  // namespace origin::nn
