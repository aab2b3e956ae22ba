#include "nn/pooling.hpp"

#include <sstream>
#include <stdexcept>

namespace origin::nn {

MaxPool1D::MaxPool1D(int pool, int stride)
    : pool_(pool), stride_(stride == 0 ? pool : stride) {
  if (pool_ <= 0 || stride_ <= 0) {
    throw std::invalid_argument("MaxPool1D: non-positive configuration");
  }
}

int MaxPool1D::out_length(int in_length, int pool, int stride) {
  if (in_length < pool) return 0;
  return (in_length - pool) / stride + 1;
}

void MaxPool1D::forward_batch(const Tensor* const* inputs, std::size_t count,
                              Tensor* outputs, bool train) {
  train_count_ = 0;
  if (train) {
    forward_train(inputs, count, outputs);
    return;
  }
  for (std::size_t b = 0; b < count; ++b) {
    if (inputs[b]->rank() != 2) {
      throw std::invalid_argument("MaxPool1D::forward: expected rank-2 input");
    }
    const int channels = inputs[b]->dim(0);
    const int in_len = inputs[b]->dim(1);
    const int out_len = out_length(in_len, pool_, stride_);
    if (out_len <= 0) {
      throw std::invalid_argument(
          "MaxPool1D::forward: input shorter than window");
    }
    outputs[b].reset_shape({channels, out_len});
    const float* x = inputs[b]->data();
    float* y = outputs[b].data();
    for (int c = 0; c < channels; ++c) {
      const float* row =
          x + static_cast<std::size_t>(c) * static_cast<std::size_t>(in_len);
      float* orow =
          y + static_cast<std::size_t>(c) * static_cast<std::size_t>(out_len);
      // Branch-free select with the argmax loop's strict `>`: a later
      // element replaces the running best only when it compares greater,
      // so ties (+0 / -0 included) keep the first and a NaN never replaces
      // nor is replaced. `b > a ? b : a` is exactly x86 MAXPS, so the
      // pool-2 loop vectorizes without changing a bit.
      if (pool_ == 2 && stride_ == 2) {
        for (int t = 0; t < out_len; ++t) {
          const float a = row[2 * t];
          const float b = row[2 * t + 1];
          orow[t] = b > a ? b : a;
        }
        continue;
      }
      for (int t = 0; t < out_len; ++t) {
        const int base = t * stride_;
        float best = row[base];
        for (int p = 1; p < pool_; ++p) {
          const float v = row[base + p];
          best = v > best ? v : best;
        }
        orow[t] = best;
      }
    }
  }
}

void MaxPool1D::forward_train(const Tensor* const* inputs, std::size_t count,
                              Tensor* outputs) {
  if (count == 0) return;
  if (inputs[0]->rank() != 2) {
    throw std::invalid_argument("MaxPool1D::forward: expected rank-2 input");
  }
  const int channels = inputs[0]->dim(0);
  const int in_len = inputs[0]->dim(1);
  const int out_len = out_length(in_len, pool_, stride_);
  if (out_len <= 0) {
    throw std::invalid_argument("MaxPool1D::forward: input shorter than window");
  }
  for (std::size_t b = 1; b < count; ++b) {
    if (inputs[b]->rank() != 2 || inputs[b]->dim(0) != channels ||
        inputs[b]->dim(1) != in_len) {
      throw std::invalid_argument(
          "MaxPool1D::forward: mixed input shapes in a training batch");
    }
  }
  in_shape_ = {channels, in_len};
  const std::size_t per_sample = static_cast<std::size_t>(channels) *
                                 static_cast<std::size_t>(out_len);
  train_argmax_.resize(count * per_sample);
  for (std::size_t b = 0; b < count; ++b) {
    outputs[b].reset_shape({channels, out_len});
    const float* x = inputs[b]->data();
    float* y = outputs[b].data();
    int* amax = train_argmax_.data() + b * per_sample;
    for (int c = 0; c < channels; ++c) {
      const float* row =
          x + static_cast<std::size_t>(c) * static_cast<std::size_t>(in_len);
      for (int t = 0; t < out_len; ++t) {
        const int base = t * stride_;
        float best = row[base];
        int best_idx = base;
        for (int p = 1; p < pool_; ++p) {
          const float v = row[base + p];
          if (v > best) {
            best = v;
            best_idx = base + p;
          }
        }
        const std::size_t oi =
            static_cast<std::size_t>(c) * static_cast<std::size_t>(out_len) +
            static_cast<std::size_t>(t);
        y[oi] = best;
        amax[oi] = best_idx;
      }
    }
  }
  train_count_ = count;
}

void MaxPool1D::backward_batch(const Tensor* const* grad_outputs,
                               std::size_t count, Tensor* grad_inputs) {
  require_train_cache(train_count_, count);
  const int channels = in_shape_[0];
  const int in_len = in_shape_[1];
  const int out_len = out_length(in_len, pool_, stride_);
  const std::size_t per_sample = static_cast<std::size_t>(channels) *
                                 static_cast<std::size_t>(out_len);
  for (std::size_t b = 0; b < count; ++b) {
    if (grad_outputs[b]->rank() != 2 || grad_outputs[b]->dim(0) != channels ||
        grad_outputs[b]->dim(1) != out_len) {
      throw std::invalid_argument(
          "MaxPool1D::backward_batch: gradient shape mismatch");
    }
    grad_inputs[b].reset_shape({channels, in_len});
    grad_inputs[b].zero();
    const float* gy = grad_outputs[b]->data();
    float* gx = grad_inputs[b].data();
    const int* amax = train_argmax_.data() + b * per_sample;
    for (int c = 0; c < channels; ++c) {
      const std::size_t crow = static_cast<std::size_t>(c) *
                               static_cast<std::size_t>(in_len);
      for (int t = 0; t < out_len; ++t) {
        const std::size_t oi =
            static_cast<std::size_t>(c) * static_cast<std::size_t>(out_len) +
            static_cast<std::size_t>(t);
        gx[crow + static_cast<std::size_t>(amax[oi])] += gy[oi];
      }
    }
  }
}

std::string MaxPool1D::describe() const {
  std::ostringstream os;
  os << "maxpool1d(p=" << pool_ << ", s=" << stride_ << ")";
  return os.str();
}

std::unique_ptr<Layer> MaxPool1D::clone() const {
  return std::make_unique<MaxPool1D>(pool_, stride_);
}

std::vector<int> MaxPool1D::output_shape(const std::vector<int>& input) const {
  if (input.size() != 2) throw std::invalid_argument("MaxPool1D: rank-2 input required");
  const int out_len = out_length(input[1], pool_, stride_);
  if (out_len <= 0) throw std::invalid_argument("MaxPool1D: input too short");
  return {input[0], out_len};
}

}  // namespace origin::nn
