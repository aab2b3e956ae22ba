// Internal linkage header for the backend TUs: the registry
// (backend.cpp) pulls the per-backend factories from here, and the SIMD
// backends reuse the reference implementations for kernels that are
// pure data movement (im2row), addition-only (row_sum_acc — no multiply
// to fuse, so the reference is already bit-identical to any backend), or
// not worth a vector path (general-stride grad-input).
#pragma once

#include "nn/kernels/backend.hpp"

namespace origin::nn::kernels {

// Backend factories. reference_backend() is always valid; the SIMD
// factory returns nullptr when the backend was not compiled in
// (ORIGIN_SIMD=OFF, missing compiler support, wrong architecture) or the
// CPU probe fails at runtime.
const Backend& reference_backend();
const Backend* avx2_backend();

// gauss_fill's angle constants (nn/kernels.hpp), shared so the scalar and
// SIMD fills compute theta = w' * kFillThetaScale - kFillPi and
// theta + kFillHalfPi from the same doubles.
inline constexpr double kFillPi = 0x1.921fb54442d18p+1;
inline constexpr double kFillHalfPi = 0x1.921fb54442d18p+0;
inline constexpr double kFillThetaScale = 0x1.921fb54442d18p+2 * 0x1.0p-32;

// The scalar reference kernels, with external linkage so SIMD backends
// can delegate to them.
namespace ref {

void im2row(const float* x, int cin, int in_len, int kernel, int stride,
            int out_len, float* panel, std::size_t ldp);
void gemm_bias(const float* a, const float* bias, const float* p, float* c,
               int m, int kd, int n);
void gemm_acc_nt(const float* a, const float* b, float* c, int m, int n,
                 int kd);
void gemm_tn(const float* a, const float* p, float* c, int m, int kd, int n);
void row_sum_acc(const float* a, float* y, int m, int n, std::size_t lda);
void conv1d_grad_input(const float* w, const float* gy, float* gx, int cin,
                       int cout, int kernel, int stride, int in_len,
                       int out_len, std::size_t ldg);
void gemm_bias_i8(const std::int8_t* a, const float* bias,
                  const std::int8_t* p, float* c, int m, int kd, int n,
                  float scale);
void synth_channel(const SynthParams& sp, const double* t, double* clean,
                   int len);
void gauss_fill(std::uint64_t key, double* out, std::size_t n);

}  // namespace ref
}  // namespace origin::nn::kernels
