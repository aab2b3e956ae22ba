// Dispatch layer: the kernels:: free functions forward through the
// active Backend (nn/kernels/backend.hpp). The scratch workspace and the
// activation quantizer live here — they are backend-independent, so
// their behavior never varies with dispatch.
#include "nn/kernels.hpp"

#include <cmath>
#include <cstring>
#include <vector>

#include "nn/kernels/backend.hpp"

namespace origin::nn::kernels {

namespace {

struct Workspace {
  std::vector<float> slots[static_cast<int>(Slot::kCount)];
  std::vector<std::int8_t> i8;
};

Workspace& workspace() {
  thread_local Workspace ws;
  return ws;
}

}  // namespace

float* scratch(Slot slot, std::size_t count) {
  std::vector<float>& buf = workspace().slots[static_cast<int>(slot)];
  if (buf.size() < count) buf.resize(count);
  return buf.data();
}

std::int8_t* scratch_i8(std::size_t count) {
  std::vector<std::int8_t>& buf = workspace().i8;
  if (buf.size() < count) buf.resize(count);
  return buf.data();
}

float quantize_to_i8(const float* x, std::size_t count, int bits,
                     std::int8_t* q) {
  float max_abs = 0.0f;
  for (std::size_t i = 0; i < count; ++i) {
    max_abs = std::max(max_abs, std::fabs(x[i]));
  }
  if (max_abs == 0.0f) {
    std::memset(q, 0, count);
    return 0.0f;
  }
  // Same symmetric grid as quantize_tensor (nn/quantize.cpp): scale and
  // rounding in double so the stored codes match the fake-quant codes
  // for the same tensor and bits.
  const int levels = (1 << (bits - 1)) - 1;
  const double scale = static_cast<double>(max_abs) / levels;
  for (std::size_t i = 0; i < count; ++i) {
    double v = std::round(x[i] / scale);
    if (v > levels) v = levels;
    if (v < -levels) v = -levels;
    q[i] = static_cast<std::int8_t>(v);
  }
  return static_cast<float>(scale);
}

void im2row(const float* x, int cin, int in_len, int kernel, int stride,
            int out_len, float* panel, std::size_t ldp) {
  active_backend().im2row(x, cin, in_len, kernel, stride, out_len, panel, ldp);
}

void gemm_bias(const float* a, const float* bias, const float* p, float* c,
               int m, int kd, int n) {
  active_backend().gemm_bias(a, bias, p, c, m, kd, n);
}

void gemm_acc_nt(const float* a, const float* b, float* c, int m, int n,
                 int kd) {
  active_backend().gemm_acc_nt(a, b, c, m, n, kd);
}

void gemm_tn(const float* a, const float* p, float* c, int m, int kd, int n) {
  active_backend().gemm_tn(a, p, c, m, kd, n);
}

void row_sum_acc(const float* a, float* y, int m, int n, std::size_t lda) {
  active_backend().row_sum_acc(a, y, m, n, lda);
}

void conv1d_grad_input(const float* w, const float* gy, float* gx, int cin,
                       int cout, int kernel, int stride, int in_len,
                       int out_len, std::size_t ldg) {
  active_backend().conv1d_grad_input(w, gy, gx, cin, cout, kernel, stride,
                                     in_len, out_len, ldg);
}

void gemm_bias_i8(const std::int8_t* a, const float* bias,
                  const std::int8_t* p, float* c, int m, int kd, int n,
                  float scale) {
  active_backend().gemm_bias_i8(a, bias, p, c, m, kd, n, scale);
}

void synth_channel(const SynthParams& sp, const double* t, double* clean,
                   int len) {
  active_backend().synth_channel(sp, t, clean, len);
}

void gauss_fill(std::uint64_t key, double* out, std::size_t n) {
  active_backend().gauss_fill(key, out, n);
}

}  // namespace origin::nn::kernels
