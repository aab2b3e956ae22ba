// The naive Conv1D/Dense loops, kept as the accumulation-order oracles the
// kernel-backed layers must match bit-for-bit on the reference backend
// (tests/test_kernels.cpp, tests/test_train_kernels.cpp). They read a
// layer's public weights and gradient accumulators; the backward oracles
// take the forward's input explicitly and accumulate into layer.grads()
// exactly as a training backward does.
#pragma once

#include "nn/conv1d.hpp"
#include "nn/dense.hpp"
#include "nn/tensor.hpp"

namespace origin::test_support {

using nn::Conv1D;
using nn::Dense;
using nn::Tensor;

inline Tensor conv1d_forward_oracle(const Conv1D& conv, const Tensor& input) {
  const int out_len =
      Conv1D::out_length(input.dim(1), conv.kernel(), conv.stride());
  Tensor out({conv.out_channels(), out_len});
  for (int co = 0; co < conv.out_channels(); ++co) {
    for (int t = 0; t < out_len; ++t) {
      float acc = conv.bias()[static_cast<std::size_t>(co)];
      const int base = t * conv.stride();
      for (int ci = 0; ci < conv.in_channels(); ++ci) {
        for (int kk = 0; kk < conv.kernel(); ++kk) {
          acc += conv.weight().at(co, ci, kk) * input.at(ci, base + kk);
        }
      }
      out.at(co, t) = acc;
    }
  }
  return out;
}

inline Tensor conv1d_backward_oracle(Conv1D& conv, const Tensor& input,
                                     const Tensor& grad_output) {
  Tensor& grad_weight = *conv.grads()[0];
  Tensor& grad_bias = *conv.grads()[1];
  const int out_len = grad_output.dim(1);
  Tensor grad_in(input.shape());
  for (int co = 0; co < conv.out_channels(); ++co) {
    for (int t = 0; t < out_len; ++t) {
      const float g = grad_output.at(co, t);
      grad_bias[static_cast<std::size_t>(co)] += g;
      const int base = t * conv.stride();
      for (int ci = 0; ci < conv.in_channels(); ++ci) {
        for (int kk = 0; kk < conv.kernel(); ++kk) {
          grad_weight.at(co, ci, kk) += g * input.at(ci, base + kk);
          grad_in.at(ci, base + kk) += g * conv.weight().at(co, ci, kk);
        }
      }
    }
  }
  return grad_in;
}

inline Tensor dense_forward_oracle(const Dense& dense, const Tensor& input) {
  const int in = dense.in_features();
  Tensor out({dense.out_features()});
  const float* w = dense.weight().data();
  const float* x = input.data();
  for (int o = 0; o < dense.out_features(); ++o) {
    float acc = dense.bias()[static_cast<std::size_t>(o)];
    const float* wrow = w + static_cast<std::size_t>(o) * in;
    for (int i = 0; i < in; ++i) acc += wrow[i] * x[i];
    out[static_cast<std::size_t>(o)] = acc;
  }
  return out;
}

inline Tensor dense_backward_oracle(Dense& dense, const Tensor& input,
                                    const Tensor& grad_output) {
  const int in = dense.in_features();
  Tensor grad_in({in});
  const float* w = dense.weight().data();
  const float* x = input.data();
  const float* gy = grad_output.data();
  float* gw = dense.grads()[0]->data();
  float* gb = dense.grads()[1]->data();
  float* gx = grad_in.data();
  for (int o = 0; o < dense.out_features(); ++o) {
    const float g = gy[o];
    gb[o] += g;
    const std::size_t row = static_cast<std::size_t>(o) * in;
    for (int i = 0; i < in; ++i) {
      gw[row + static_cast<std::size_t>(i)] += g * x[i];
      gx[i] += g * w[row + static_cast<std::size_t>(i)];
    }
  }
  return grad_in;
}

}  // namespace origin::test_support
