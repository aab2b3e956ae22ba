#include "nn/conv1d.hpp"

#include <cmath>
#include <cstring>
#include <sstream>
#include <stdexcept>

#include "nn/kernels.hpp"
#include "util/rng.hpp"

namespace origin::nn {

int Conv1D::out_length(int in_length, int kernel, int stride) {
  if (in_length < kernel) return 0;
  return (in_length - kernel) / stride + 1;
}

Conv1D::Conv1D(int in_channels, int out_channels, int kernel, int stride)
    : cin_(in_channels),
      cout_(out_channels),
      k_(kernel),
      stride_(stride),
      weight_({out_channels, in_channels, kernel}),
      bias_({out_channels}) {
  if (in_channels <= 0 || out_channels <= 0 || kernel <= 0 || stride <= 0) {
    throw std::invalid_argument("Conv1D: non-positive configuration");
  }
}

Conv1D::Conv1D(int in_channels, int out_channels, int kernel, int stride,
               util::Rng& rng)
    : Conv1D(in_channels, out_channels, kernel, stride) {
  const float fan_in = static_cast<float>(in_channels * kernel);
  weight_ = Tensor::randn({cout_, cin_, k_}, rng, std::sqrt(2.0f / fan_in));
}

int Conv1D::checked_out_length(const Tensor& input) const {
  if (input.rank() != 2 || input.dim(0) != cin_) {
    throw std::invalid_argument("Conv1D::forward: expected [" +
                                std::to_string(cin_) + ", L] input, got " +
                                input.shape_str());
  }
  const int out_len = out_length(input.dim(1), k_, stride_);
  if (out_len <= 0) {
    throw std::invalid_argument("Conv1D::forward: input shorter than kernel");
  }
  return out_len;
}

void Conv1D::forward_int8(const Tensor& input, Tensor& out) const {
  // Dynamic symmetric 8-bit quantization of the packed activation panel
  // per sample (the panel holds exactly the values the reduction reads, so
  // its max is the right scale), then the exact int32-accumulation GEMM.
  // Bit-identical on every backend.
  const int out_len = checked_out_length(input);
  const int kd = cin_ * k_;
  const std::size_t pn = static_cast<std::size_t>(kd) * out_len;
  float* panel = kernels::scratch(kernels::Slot::Panel, pn);
  kernels::im2row(input.data(), cin_, input.dim(1), k_, stride_, out_len,
                  panel, static_cast<std::size_t>(out_len));
  std::int8_t* qpanel = kernels::scratch_i8(pn);
  const float xscale = kernels::quantize_to_i8(panel, pn, 8, qpanel);
  out.reset_shape({cout_, out_len});
  kernels::gemm_bias_i8(qweight_.data(), bias_.data(), qpanel, out.data(),
                        cout_, kd, out_len, qscale_ * xscale);
}

void Conv1D::forward_batch(const Tensor* const* inputs, std::size_t count,
                           Tensor* outputs, bool train) {
  train_count_ = 0;
  if (count == 0) return;
  if (!train && qbits_ != 32) {
    // Quantized mode scales activations per sample, so the batched wide
    // panel (one shared scale) would change bits against a batch of one.
    for (std::size_t b = 0; b < count; ++b) forward_int8(*inputs[b], outputs[b]);
    return;
  }
  const int out_len = checked_out_length(*inputs[0]);
  const int in_len = inputs[0]->dim(1);
  for (std::size_t b = 1; b < count; ++b) {
    if (inputs[b]->rank() != 2 || inputs[b]->dim(0) != cin_ ||
        inputs[b]->dim(1) != in_len) {
      throw std::invalid_argument(
          "Conv1D::forward_batch: mixed input shapes in batch");
    }
  }
  // One wide panel [kd, count*out_len] with sample b at column offset
  // b*out_len, one GEMM, then per-sample rows copied out. Each output
  // element accumulates in the same j order whatever the batch.
  const int kd = cin_ * k_;
  const std::size_t n = count * static_cast<std::size_t>(out_len);
  float* panel;
  if (train) {
    train_panel_.resize(static_cast<std::size_t>(kd) * n);
    panel = train_panel_.data();
  } else {
    panel = kernels::scratch(kernels::Slot::Panel,
                             static_cast<std::size_t>(kd) * n);
  }
  for (std::size_t b = 0; b < count; ++b) {
    kernels::im2row(inputs[b]->data(), cin_, in_len, k_, stride_, out_len,
                    panel + b * static_cast<std::size_t>(out_len), n);
  }
  float* stage = kernels::scratch(kernels::Slot::Stage,
                                  static_cast<std::size_t>(cout_) * n);
  kernels::gemm_bias(weight_.data(), bias_.data(), panel, stage, cout_, kd,
                     static_cast<int>(n));
  for (std::size_t b = 0; b < count; ++b) {
    outputs[b].reset_shape({cout_, out_len});
    float* dst = outputs[b].data();
    for (int co = 0; co < cout_; ++co) {
      std::memcpy(dst + static_cast<std::size_t>(co) * out_len,
                  stage + static_cast<std::size_t>(co) * n +
                      b * static_cast<std::size_t>(out_len),
                  sizeof(float) * static_cast<std::size_t>(out_len));
    }
  }
  if (train) {
    train_count_ = count;
    train_in_len_ = in_len;
  }
}

std::vector<Tensor*> Conv1D::grads() {
  size_grad(grad_weight_, weight_);
  size_grad(grad_bias_, bias_);
  return {&grad_weight_, &grad_bias_};
}

void Conv1D::backward_batch(const Tensor* const* grad_outputs,
                            std::size_t count, Tensor* grad_inputs) {
  require_train_cache(train_count_, count);
  grads();  // sizes the gradients on first use
  const int in_len = train_in_len_;
  const int out_len = out_length(in_len, k_, stride_);
  const std::size_t n = count * static_cast<std::size_t>(out_len);
  for (std::size_t b = 0; b < count; ++b) {
    if (grad_outputs[b]->rank() != 2 || grad_outputs[b]->dim(0) != cout_ ||
        grad_outputs[b]->dim(1) != out_len) {
      throw std::invalid_argument(
          "Conv1D::backward_batch: gradient shape mismatch");
    }
  }
  // Wide grad panel mirroring the input panel's column layout, so the
  // grad-weight GEMM's j order (sample-major, t-ascending) reproduces the
  // naive loop's per-sample sequential accumulation.
  float* g = kernels::scratch(kernels::Slot::Panel,
                              static_cast<std::size_t>(cout_) * n);
  for (std::size_t b = 0; b < count; ++b) {
    const float* src = grad_outputs[b]->data();
    for (int co = 0; co < cout_; ++co) {
      std::memcpy(g + static_cast<std::size_t>(co) * n +
                      b * static_cast<std::size_t>(out_len),
                  src + static_cast<std::size_t>(co) * out_len,
                  sizeof(float) * static_cast<std::size_t>(out_len));
    }
  }
  const int kd = cin_ * k_;
  kernels::row_sum_acc(g, grad_bias_.data(), cout_, static_cast<int>(n), n);
  kernels::gemm_acc_nt(g, train_panel_.data(), grad_weight_.data(), cout_, kd,
                       static_cast<int>(n));
  for (std::size_t b = 0; b < count; ++b) {
    grad_inputs[b].reset_shape({cin_, in_len});
    kernels::conv1d_grad_input(weight_.data(),
                               g + b * static_cast<std::size_t>(out_len),
                               grad_inputs[b].data(), cin_, cout_, k_, stride_,
                               in_len, out_len, n);
  }
}

std::string Conv1D::describe() const {
  std::ostringstream os;
  os << "conv1d(" << cin_ << " -> " << cout_ << ", k=" << k_ << ", s=" << stride_
     << ")";
  return os.str();
}

std::unique_ptr<Layer> Conv1D::clone() const {
  auto copy = std::make_unique<Conv1D>(cin_, cout_, k_, stride_);
  copy->weight_ = weight_;
  copy->bias_ = bias_;
  copy->qweight_ = qweight_;
  copy->qscale_ = qscale_;
  copy->qbits_ = qbits_;
  return copy;
}

void Conv1D::set_inference_bits(int bits) {
  if (bits == 32) {
    qbits_ = 32;
    qweight_.clear();
    qscale_ = 0.0f;
    return;
  }
  if (bits < 2 || bits > 8) {
    throw std::invalid_argument(
        "Conv1D::set_inference_bits: bits must be 32 or in [2, 8]");
  }
  qweight_.resize(weight_.size());
  qscale_ = kernels::quantize_to_i8(weight_.data(), weight_.size(), bits,
                                    qweight_.data());
  qbits_ = bits;
}

std::vector<int> Conv1D::output_shape(const std::vector<int>& input) const {
  if (input.size() != 2 || input[0] != cin_) {
    throw std::invalid_argument("Conv1D: input shape mismatch");
  }
  const int out_len = out_length(input[1], k_, stride_);
  if (out_len <= 0) throw std::invalid_argument("Conv1D: input too short");
  return {cout_, out_len};
}

std::uint64_t Conv1D::macs(const std::vector<int>& input) const {
  const auto out = output_shape(input);
  return static_cast<std::uint64_t>(cout_) * static_cast<std::uint64_t>(out[1]) *
         static_cast<std::uint64_t>(cin_) * static_cast<std::uint64_t>(k_);
}

float Conv1D::filter_l2(int f) const {
  if (f < 0 || f >= cout_) throw std::invalid_argument("Conv1D::filter_l2: bad index");
  float s = 0.0f;
  for (int ci = 0; ci < cin_; ++ci) {
    for (int kk = 0; kk < k_; ++kk) {
      const float w = weight_.at(f, ci, kk);
      s += w * w;
    }
  }
  return std::sqrt(s);
}

void Conv1D::remove_output_filter(int f) {
  if (f < 0 || f >= cout_ || cout_ <= 1) {
    throw std::invalid_argument("Conv1D::remove_output_filter: bad index");
  }
  const int new_cout = cout_ - 1;
  Tensor new_w({new_cout, cin_, k_});
  Tensor new_b({new_cout});
  int dst = 0;
  for (int co = 0; co < cout_; ++co) {
    if (co == f) continue;
    for (int ci = 0; ci < cin_; ++ci) {
      for (int kk = 0; kk < k_; ++kk) new_w.at(dst, ci, kk) = weight_.at(co, ci, kk);
    }
    new_b[static_cast<std::size_t>(dst)] = bias_[static_cast<std::size_t>(co)];
    ++dst;
  }
  cout_ = new_cout;
  weight_ = std::move(new_w);
  bias_ = std::move(new_b);
  grad_weight_ = Tensor();  // both re-sized on the next training use
  grad_bias_ = Tensor();
  qbits_ = 32;
  qweight_.clear();
  qscale_ = 0.0f;
}

void Conv1D::remove_input_channel(int c) {
  if (c < 0 || c >= cin_ || cin_ <= 1) {
    throw std::invalid_argument("Conv1D::remove_input_channel: bad index");
  }
  const int new_cin = cin_ - 1;
  Tensor new_w({cout_, new_cin, k_});
  for (int co = 0; co < cout_; ++co) {
    int dst = 0;
    for (int ci = 0; ci < cin_; ++ci) {
      if (ci == c) continue;
      for (int kk = 0; kk < k_; ++kk) new_w.at(co, dst, kk) = weight_.at(co, ci, kk);
      ++dst;
    }
  }
  cin_ = new_cin;
  weight_ = std::move(new_w);
  grad_weight_ = Tensor();  // re-sized on the next training use
  qbits_ = 32;
  qweight_.clear();
  qscale_ = 0.0f;
}

}  // namespace origin::nn
