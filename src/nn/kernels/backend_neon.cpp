// NEON backend (aarch64). Compile-tested where an ARM toolchain is
// available; on other targets this TU collapses to a nullptr stub.
//
// It follows the SAME element-wise fused recipe as the AVX2 backend:
// every float multiply-accumulate is a single-rounded fused FMA
// (vfmaq_f32 lane or std::fma scalar) in strict k order. IEEE-754
// specifies fma exactly, so this backend's outputs are bit-identical to
// the AVX2 backend's — the two share the "fused" golden checksums in
// tests/test_backends.cpp — and differ from the reference backend only
// by the fused rounding (tolerance-gated).
//
// Built with -ffp-contract=off so the only fusions are the explicit
// ones (see backend_avx2.cpp for the full rationale).
#include "nn/kernels/backend_detail.hpp"

#if defined(__ARM_NEON) && defined(__aarch64__)

#include <arm_neon.h>

#include <cmath>
#include <cstddef>

namespace origin::nn::kernels {
namespace {

void gemm_bias(const float* a, const float* bias, const float* p, float* c,
               int m, int kd, int n) {
  const std::size_t lda = static_cast<std::size_t>(kd);
  const std::size_t ldp = static_cast<std::size_t>(n);
  for (int i = 0; i < m; ++i) {
    const float* arow = a + static_cast<std::size_t>(i) * lda;
    float* crow = c + static_cast<std::size_t>(i) * ldp;
    int j = 0;
    for (; j + 4 <= n; j += 4) {
      float32x4_t acc = vdupq_n_f32(bias[i]);
      const float* prow = p + j;
      for (int k = 0; k < kd; ++k, prow += ldp) {
        acc = vfmaq_n_f32(acc, vld1q_f32(prow), arow[k]);
      }
      vst1q_f32(crow + j, acc);
    }
    for (; j < n; ++j) {
      float s = bias[i];
      for (int k = 0; k < kd; ++k) {
        s = std::fmaf(arow[k], p[static_cast<std::size_t>(k) * ldp + j], s);
      }
      crow[j] = s;
    }
  }
}

void gemm_acc_nt(const float* a, const float* b, float* c, int m, int n,
                 int kd) {
  const std::size_t ld = static_cast<std::size_t>(kd);
  const std::size_t ldc = static_cast<std::size_t>(n);
  for (int i = 0; i < m; ++i) {
    const float* arow = a + static_cast<std::size_t>(i) * ld;
    float* crow = c + static_cast<std::size_t>(i) * ldc;
    for (int j = 0; j < n; ++j) {
      const float* brow = b + static_cast<std::size_t>(j) * ld;
      float s = crow[j];
      for (int k = 0; k < kd; ++k) s = std::fmaf(arow[k], brow[k], s);
      crow[j] = s;
    }
  }
}

void gemm_tn(const float* a, const float* p, float* c, int m, int kd, int n) {
  const std::size_t lda = static_cast<std::size_t>(m);
  const std::size_t ldp = static_cast<std::size_t>(n);
  for (int i = 0; i < m; ++i) {
    int j = 0;
    for (; j + 4 <= n; j += 4) {
      float32x4_t acc = vdupq_n_f32(0.0f);
      const float* arow = a + i;
      const float* prow = p + j;
      for (int k = 0; k < kd; ++k, arow += lda, prow += ldp) {
        acc = vfmaq_n_f32(acc, vld1q_f32(prow), arow[0]);
      }
      vst1q_f32(c + static_cast<std::size_t>(i) * ldp + j, acc);
    }
    for (; j < n; ++j) {
      float s = 0.0f;
      for (int k = 0; k < kd; ++k) {
        s = std::fmaf(a[static_cast<std::size_t>(k) * lda + i],
                      p[static_cast<std::size_t>(k) * ldp + j], s);
      }
      c[static_cast<std::size_t>(i) * ldp + j] = s;
    }
  }
}

void conv1d_grad_input(const float* w, const float* gy, float* gx, int cin,
                       int cout, int kernel, int stride, int in_len,
                       int out_len, std::size_t ldg) {
  if (stride != 1) {
    ref::conv1d_grad_input(w, gy, gx, cin, cout, kernel, stride, in_len,
                           out_len, ldg);
    return;
  }
  for (int ci = 0; ci < cin; ++ci) {
    float* gxrow = gx + static_cast<std::size_t>(ci) * in_len;
    const auto scalar_at = [&](int p) {
      const int kk_hi = (kernel - 1 < p) ? kernel - 1 : p;
      const int kk_lo = (p - (out_len - 1) > 0) ? p - (out_len - 1) : 0;
      float acc = 0.0f;
      for (int co = 0; co < cout; ++co) {
        const float* wrow =
            w + (static_cast<std::size_t>(co) * cin + ci) * kernel;
        const float* grow = gy + static_cast<std::size_t>(co) * ldg;
        for (int kk = kk_hi; kk >= kk_lo; --kk) {
          acc = std::fmaf(grow[p - kk], wrow[kk], acc);
        }
      }
      gxrow[p] = acc;
    };
    int p = 0;
    for (; p < kernel - 1; ++p) scalar_at(p);
    for (; p + 4 <= out_len; p += 4) {
      float32x4_t acc = vdupq_n_f32(0.0f);
      for (int co = 0; co < cout; ++co) {
        const float* wrow =
            w + (static_cast<std::size_t>(co) * cin + ci) * kernel;
        const float* grow = gy + static_cast<std::size_t>(co) * ldg;
        for (int kk = kernel - 1; kk >= 0; --kk) {
          acc = vfmaq_n_f32(acc, vld1q_f32(grow + (p - kk)), wrow[kk]);
        }
      }
      vst1q_f32(gxrow + p, acc);
    }
    for (; p < in_len; ++p) scalar_at(p);
  }
}

// --- det_sin, fused (same element-wise recipe as the AVX2 backend) ----

constexpr double kRoundMagic = 6755399441055744.0;  // 1.5 * 2^52
constexpr double kInvPi = 0x1.45f306dc9c883p-2;
constexpr double kPi1 = 0x1.921fb54400000p+1;
constexpr double kPi2 = 0x1.0b4611a400000p-33;
constexpr double kPi3 = 0x1.13198a2e03707p-64;
constexpr double kS1 = -0x1.5555555555555p-3;
constexpr double kS2 = 0x1.1111111111111p-7;
constexpr double kS3 = -0x1.a01a01a01a01ap-13;
constexpr double kS4 = 0x1.71de3a556c734p-19;
constexpr double kS5 = -0x1.ae64567f544e4p-26;
constexpr double kS6 = 0x1.6124613a86d09p-33;
constexpr double kS7 = -0x1.ae7f3e733b81fp-41;

inline double det_sin_fused(double x) {
  const double n = std::fma(x, kInvPi, kRoundMagic) - kRoundMagic;
  double r = std::fma(-n, kPi1, x);
  r = std::fma(-n, kPi2, r);
  r = std::fma(-n, kPi3, r);
  const double parity = n - 2.0 * (std::fma(n, 0.5, kRoundMagic) - kRoundMagic);
  const double sign = std::fma(-2.0, parity * parity, 1.0);
  const double r2 = r * r;
  double pl = kS7;
  pl = std::fma(pl, r2, kS6);
  pl = std::fma(pl, r2, kS5);
  pl = std::fma(pl, r2, kS4);
  pl = std::fma(pl, r2, kS3);
  pl = std::fma(pl, r2, kS2);
  pl = std::fma(pl, r2, kS1);
  return sign * std::fma(r, r2 * pl, r);
}

inline double sig_eval_fused(const SynthSig& s, double t, double ph,
                             double amp) {
  const double w = std::fma(s.omega, t, ph);
  const double s1 = det_sin_fused(w + s.p1);
  const double s2 = det_sin_fused(std::fma(2.0, w, s.p2));
  const double s3 = det_sin_fused(std::fma(3.0, w, s.p3));
  double acc = std::fma(s.a2, s2, s.a1 * s1);
  acc = std::fma(s.a3, s3, acc);
  return std::fma(amp, acc, s.dc);
}

void synth_channel(const SynthParams& sp, const double* t, double* clean,
                   int len) {
  if (!sp.ambiguous) {
    for (int i = 0; i < len; ++i) {
      const double vm = sig_eval_fused(sp.main, t[i], sp.ph, sp.amp);
      const double va = sig_eval_fused(sp.alt, t[i], sp.ph, sp.amp);
      clean[i] = std::fma(sp.beta, va, sp.blend_main * vm);
    }
  } else {
    for (int i = 0; i < len; ++i) {
      const double vm = sig_eval_fused(sp.main, t[i], sp.ph, sp.amp);
      const double va = sig_eval_fused(sp.alt, t[i], sp.ph, sp.amp);
      const double vb = sig_eval_fused(sp.amb, t[i], sp.ph, sp.amp);
      clean[i] = std::fma(
          sp.mix, vb, sp.keep * std::fma(sp.beta, va, sp.blend_main * vm));
    }
  }
}

}  // namespace

const Backend* neon_backend() {
  // aarch64 mandates NEON, so compile-time support implies runtime
  // support — no probe needed.
  static const Backend backend = {
      "neon",           ref::im2row,  gemm_bias,
      gemm_acc_nt,      gemm_tn,
      ref::row_sum_acc, conv1d_grad_input,
      ref::gemm_bias_i8, synth_channel,
      ref::polar_scan,
  };
  return &backend;
}

}  // namespace origin::nn::kernels

#else  // not an aarch64/NEON target

namespace origin::nn::kernels {

const Backend* neon_backend() { return nullptr; }

}  // namespace origin::nn::kernels

#endif
