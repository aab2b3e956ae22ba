// The scalar reference backend: the portable kernels every golden number
// in EXPERIMENTS.md was measured on, relocated verbatim from the
// pre-dispatch nn/kernels.cpp. This TU is compiled with
// -ffp-contract=off (src/CMakeLists.txt) so no multiply-add ever fuses:
// the reference bits are the unfused bits, on every compiler, at every
// optimization level. SIMD backends differ from these kernels only by
// fusing each multiply-accumulate (see backend.hpp for the contract
// split).
#include <algorithm>
#include <cmath>
#include <cstring>

#include "nn/kernels/backend_detail.hpp"
#include "util/det_math.hpp"
#include "util/rng.hpp"

namespace origin::nn::kernels {
namespace ref {

namespace {

// Register tile: MR rows x NR columns of C in flight. NR is a multiple of
// the SSE width so the column loop vectorizes; MR x NR accumulators fit
// the register file with room for the A broadcasts and P row loads.
constexpr int kMR = 4;
constexpr int kNR = 8;

}  // namespace

void im2row(const float* x, int cin, int in_len, int kernel, int stride,
            int out_len, float* panel, std::size_t ldp) {
  for (int ci = 0; ci < cin; ++ci) {
    const float* xrow = x + static_cast<std::size_t>(ci) * in_len;
    for (int kk = 0; kk < kernel; ++kk) {
      float* prow = panel + (static_cast<std::size_t>(ci) * kernel + kk) * ldp;
      if (stride == 1) {
        // Unit stride: row j is a contiguous slice of the input row.
        std::memcpy(prow, xrow + kk, sizeof(float) * static_cast<std::size_t>(out_len));
      } else {
        for (int t = 0; t < out_len; ++t) prow[t] = xrow[t * stride + kk];
      }
    }
  }
}

void gemm_bias(const float* a, const float* bias, const float* p, float* c,
               int m, int kd, int n) {
  const std::size_t lda = static_cast<std::size_t>(kd);
  const std::size_t ldp = static_cast<std::size_t>(n);
  int i = 0;
  for (; i + kMR <= m; i += kMR) {
    const float* a0 = a + static_cast<std::size_t>(i) * lda;
    int j = 0;
    for (; j + kNR <= n; j += kNR) {
      float acc[kMR][kNR];
      for (int r = 0; r < kMR; ++r) {
        for (int q = 0; q < kNR; ++q) acc[r][q] = bias[i + r];
      }
      const float* prow = p + j;
      for (int k = 0; k < kd; ++k, prow += ldp) {
        for (int r = 0; r < kMR; ++r) {
          const float av = a0[static_cast<std::size_t>(r) * lda + k];
          for (int q = 0; q < kNR; ++q) acc[r][q] += av * prow[q];
        }
      }
      for (int r = 0; r < kMR; ++r) {
        float* crow = c + static_cast<std::size_t>(i + r) * ldp + j;
        for (int q = 0; q < kNR; ++q) crow[q] = acc[r][q];
      }
    }
    for (; j < n; ++j) {
      // Column remainder: still kMR rows per pass over P's column.
      float acc[kMR];
      for (int r = 0; r < kMR; ++r) acc[r] = bias[i + r];
      for (int k = 0; k < kd; ++k) {
        const float pv = p[static_cast<std::size_t>(k) * ldp + j];
        for (int r = 0; r < kMR; ++r) {
          acc[r] += a0[static_cast<std::size_t>(r) * lda + k] * pv;
        }
      }
      for (int r = 0; r < kMR; ++r) {
        c[static_cast<std::size_t>(i + r) * ldp + j] = acc[r];
      }
    }
  }
  for (; i < m; ++i) {
    const float* arow = a + static_cast<std::size_t>(i) * lda;
    float* crow = c + static_cast<std::size_t>(i) * ldp;
    int j = 0;
    for (; j + kNR <= n; j += kNR) {
      float acc[kNR];
      for (int q = 0; q < kNR; ++q) acc[q] = bias[i];
      const float* prow = p + j;
      for (int k = 0; k < kd; ++k, prow += ldp) {
        const float av = arow[k];
        for (int q = 0; q < kNR; ++q) acc[q] += av * prow[q];
      }
      for (int q = 0; q < kNR; ++q) crow[j + q] = acc[q];
    }
    for (; j < n; ++j) {
      float acc = bias[i];
      for (int k = 0; k < kd; ++k) {
        acc += arow[k] * p[static_cast<std::size_t>(k) * ldp + j];
      }
      crow[j] = acc;
    }
  }
}

void gemm_acc_nt(const float* a, const float* b, float* c, int m, int n,
                 int kd) {
  const std::size_t ld = static_cast<std::size_t>(kd);
  const std::size_t ldc = static_cast<std::size_t>(n);
  // Both operands stream contiguously along k; the MR x NR accumulators
  // (seeded from C — gradients accumulate) give the ILP. The k loop stays
  // strictly sequential per element: that IS the contract.
  constexpr int kGMR = 4;
  constexpr int kGNR = 4;
  int i = 0;
  for (; i + kGMR <= m; i += kGMR) {
    int j = 0;
    for (; j + kGNR <= n; j += kGNR) {
      float acc[kGMR][kGNR];
      for (int r = 0; r < kGMR; ++r) {
        for (int q = 0; q < kGNR; ++q) {
          acc[r][q] = c[static_cast<std::size_t>(i + r) * ldc + (j + q)];
        }
      }
      const float* a0 = a + static_cast<std::size_t>(i) * ld;
      const float* b0 = b + static_cast<std::size_t>(j) * ld;
      for (int k = 0; k < kd; ++k) {
        float bv[kGNR];
        for (int q = 0; q < kGNR; ++q) {
          bv[q] = b0[static_cast<std::size_t>(q) * ld + k];
        }
        for (int r = 0; r < kGMR; ++r) {
          const float av = a0[static_cast<std::size_t>(r) * ld + k];
          for (int q = 0; q < kGNR; ++q) acc[r][q] += av * bv[q];
        }
      }
      for (int r = 0; r < kGMR; ++r) {
        for (int q = 0; q < kGNR; ++q) {
          c[static_cast<std::size_t>(i + r) * ldc + (j + q)] = acc[r][q];
        }
      }
    }
    for (; j < n; ++j) {
      const float* brow = b + static_cast<std::size_t>(j) * ld;
      float acc[kGMR];
      for (int r = 0; r < kGMR; ++r) {
        acc[r] = c[static_cast<std::size_t>(i + r) * ldc + j];
      }
      for (int k = 0; k < kd; ++k) {
        const float bv = brow[k];
        for (int r = 0; r < kGMR; ++r) {
          acc[r] += a[static_cast<std::size_t>(i + r) * ld + k] * bv;
        }
      }
      for (int r = 0; r < kGMR; ++r) {
        c[static_cast<std::size_t>(i + r) * ldc + j] = acc[r];
      }
    }
  }
  for (; i < m; ++i) {
    const float* arow = a + static_cast<std::size_t>(i) * ld;
    float* crow = c + static_cast<std::size_t>(i) * ldc;
    for (int j = 0; j < n; ++j) {
      const float* brow = b + static_cast<std::size_t>(j) * ld;
      float acc = crow[j];
      for (int k = 0; k < kd; ++k) acc += arow[k] * brow[k];
      crow[j] = acc;
    }
  }
}

void gemm_tn(const float* a, const float* p, float* c, int m, int kd, int n) {
  const std::size_t lda = static_cast<std::size_t>(m);
  const std::size_t ldp = static_cast<std::size_t>(n);
  // A row k holds column values for all i, P row k for all j — both loads
  // contiguous, and the q loop vectorizes. k sequential per element.
  int i = 0;
  for (; i + kMR <= m; i += kMR) {
    int j = 0;
    for (; j + kNR <= n; j += kNR) {
      float acc[kMR][kNR] = {};
      const float* arow = a + i;
      const float* prow = p + j;
      for (int k = 0; k < kd; ++k, arow += lda, prow += ldp) {
        for (int r = 0; r < kMR; ++r) {
          const float av = arow[r];
          for (int q = 0; q < kNR; ++q) acc[r][q] += av * prow[q];
        }
      }
      for (int r = 0; r < kMR; ++r) {
        float* crow = c + static_cast<std::size_t>(i + r) * ldp + j;
        for (int q = 0; q < kNR; ++q) crow[q] = acc[r][q];
      }
    }
    for (; j < n; ++j) {
      float acc[kMR] = {};
      for (int k = 0; k < kd; ++k) {
        const float pv = p[static_cast<std::size_t>(k) * ldp + j];
        const float* arow = a + static_cast<std::size_t>(k) * lda + i;
        for (int r = 0; r < kMR; ++r) acc[r] += arow[r] * pv;
      }
      for (int r = 0; r < kMR; ++r) {
        c[static_cast<std::size_t>(i + r) * ldp + j] = acc[r];
      }
    }
  }
  for (; i < m; ++i) {
    for (int j = 0; j < n; ++j) {
      float acc = 0.0f;
      for (int k = 0; k < kd; ++k) {
        acc += a[static_cast<std::size_t>(k) * lda + i] *
               p[static_cast<std::size_t>(k) * ldp + j];
      }
      c[static_cast<std::size_t>(i) * ldp + j] = acc;
    }
  }
}

void row_sum_acc(const float* a, float* y, int m, int n, std::size_t lda) {
  for (int i = 0; i < m; ++i) {
    const float* row = a + static_cast<std::size_t>(i) * lda;
    float acc = y[i];
    for (int j = 0; j < n; ++j) acc += row[j];
    y[i] = acc;
  }
}

void conv1d_grad_input(const float* w, const float* gy, float* gx, int cin,
                       int cout, int kernel, int stride, int in_len,
                       int out_len, std::size_t ldg) {
  if (stride != 1) {
    // General stride: scalar, with the t range solved per input position.
    // Per element the order is (co asc, t asc) — the naive loop's.
    for (int ci = 0; ci < cin; ++ci) {
      float* gxrow = gx + static_cast<std::size_t>(ci) * in_len;
      for (int p = 0; p < in_len; ++p) {
        const int t_lo = p < kernel ? 0 : (p - kernel + stride) / stride;
        const int t_hi = std::min(out_len - 1, p / stride);
        float acc = 0.0f;
        for (int co = 0; co < cout; ++co) {
          const float* wrow =
              w + (static_cast<std::size_t>(co) * cin + ci) * kernel;
          const float* grow = gy + static_cast<std::size_t>(co) * ldg;
          for (int t = t_lo; t <= t_hi; ++t) {
            acc += grow[t] * wrow[p - t * stride];
          }
        }
        gxrow[p] = acc;
      }
    }
    return;
  }
  // Unit stride: t == p - kk, so t-ascending order is kk-descending order
  // and interior positions (every kernel tap in range) vectorize over a
  // block of consecutive p with contiguous grad-output loads. The first
  // and last kernel-1 positions fall back to the bounds-checked scalar.
  constexpr int kPB = 8;
  for (int ci = 0; ci < cin; ++ci) {
    float* gxrow = gx + static_cast<std::size_t>(ci) * in_len;
    const auto scalar_at = [&](int p) {
      const int kk_hi = std::min(kernel - 1, p);
      const int kk_lo = std::max(0, p - (out_len - 1));
      float acc = 0.0f;
      for (int co = 0; co < cout; ++co) {
        const float* wrow =
            w + (static_cast<std::size_t>(co) * cin + ci) * kernel;
        const float* grow = gy + static_cast<std::size_t>(co) * ldg;
        for (int kk = kk_hi; kk >= kk_lo; --kk) acc += grow[p - kk] * wrow[kk];
      }
      gxrow[p] = acc;
    };
    int p = 0;
    for (; p < kernel - 1; ++p) scalar_at(p);
    for (; p + kPB <= out_len; p += kPB) {
      float acc[kPB] = {};
      for (int co = 0; co < cout; ++co) {
        const float* wrow =
            w + (static_cast<std::size_t>(co) * cin + ci) * kernel;
        const float* grow = gy + static_cast<std::size_t>(co) * ldg;
        for (int kk = kernel - 1; kk >= 0; --kk) {
          const float wv = wrow[kk];
          const float* gsrc = grow + (p - kk);
          for (int q = 0; q < kPB; ++q) acc[q] += gsrc[q] * wv;
        }
      }
      for (int q = 0; q < kPB; ++q) gxrow[p + q] = acc[q];
    }
    for (; p < in_len; ++p) scalar_at(p);
  }
}

void gemm_bias_i8(const std::int8_t* a, const float* bias,
                  const std::int8_t* p, float* c, int m, int kd, int n,
                  float scale) {
  // Exact int32 accumulation (127*127*kd stays far below 2^31 at any
  // plausible layer size), then a dequant that is mul-THEN-add — this TU
  // is built -ffp-contract=off, so the compiler cannot fuse it and the
  // int8 path is bit-identical on every backend.
  for (int i = 0; i < m; ++i) {
    const std::int8_t* arow = a + static_cast<std::size_t>(i) * kd;
    float* crow = c + static_cast<std::size_t>(i) * n;
    for (int j = 0; j < n; ++j) {
      std::int32_t acc = 0;
      for (int k = 0; k < kd; ++k) {
        acc += static_cast<std::int32_t>(arow[k]) *
               static_cast<std::int32_t>(p[static_cast<std::size_t>(k) * n + j]);
      }
      crow[j] = bias[i] + scale * static_cast<float>(acc);
    }
  }
}

void synth_channel(const SynthParams& sp, const double* t, double* clean,
                   int len) {
  // The deterministic waveform pass of SignalModel::synthesize_window,
  // expression-for-expression (pinned by tests/test_data_golden): no
  // branches inside the loop, pure double arithmetic, autovectorizes.
  const SynthSig& m = sp.main;
  const SynthSig& a = sp.alt;
  if (!sp.ambiguous) {
    for (int i = 0; i < len; ++i) {
      const double wm = m.omega * t[i] + sp.ph;
      const double v_main =
          m.dc + sp.amp * ((m.a1 * util::det_sin(wm + m.p1) +
                            m.a2 * util::det_sin(2.0 * wm + m.p2)) +
                           m.a3 * util::det_sin(3.0 * wm + m.p3));
      const double wa = a.omega * t[i] + sp.ph;
      const double v_alt =
          a.dc + sp.amp * ((a.a1 * util::det_sin(wa + a.p1) +
                            a.a2 * util::det_sin(2.0 * wa + a.p2)) +
                           a.a3 * util::det_sin(3.0 * wa + a.p3));
      clean[i] = sp.blend_main * v_main + sp.beta * v_alt;
    }
  } else {
    const SynthSig& b = sp.amb;
    for (int i = 0; i < len; ++i) {
      const double wm = m.omega * t[i] + sp.ph;
      const double v_main =
          m.dc + sp.amp * ((m.a1 * util::det_sin(wm + m.p1) +
                            m.a2 * util::det_sin(2.0 * wm + m.p2)) +
                           m.a3 * util::det_sin(3.0 * wm + m.p3));
      const double wa = a.omega * t[i] + sp.ph;
      const double v_alt =
          a.dc + sp.amp * ((a.a1 * util::det_sin(wa + a.p1) +
                            a.a2 * util::det_sin(2.0 * wa + a.p2)) +
                           a.a3 * util::det_sin(3.0 * wa + a.p3));
      const double wb = b.omega * t[i] + sp.ph;
      const double v_amb =
          b.dc + sp.amp * ((b.a1 * util::det_sin(wb + b.p1) +
                            b.a2 * util::det_sin(2.0 * wb + b.p2)) +
                           b.a3 * util::det_sin(3.0 * wb + b.p3));
      clean[i] = sp.keep * (sp.blend_main * v_main + sp.beta * v_alt) +
                 sp.mix * v_amb;
    }
  }
}

void gauss_fill(std::uint64_t key, double* out, std::size_t n) {
  // nn::kernels::gauss_fill's definition, one pair at a time; the AVX2
  // fill performs these operations in this order, four pairs per vector.
  for (std::size_t i = 0; i < n; i += 2) {
    const auto counter = static_cast<std::uint32_t>(i);
    const double u1 =
        (static_cast<double>(util::keyed_word(key, counter)) + 0.5) * 0x1.0p-32;
    const double theta =
        static_cast<double>(util::keyed_word(key, counter + 1)) *
            kFillThetaScale -
        kFillPi;
    const double r = std::sqrt(-2.0 * util::det_log(u1));
    out[i] = r * util::det_sin(theta);
    if (i + 1 < n) out[i + 1] = r * util::det_sin(theta + kFillHalfPi);
  }
}

}  // namespace ref

const Backend& reference_backend() {
  static const Backend backend = {
      "reference",          ref::im2row,       ref::gemm_bias,
      ref::gemm_acc_nt,     ref::gemm_tn,
      ref::row_sum_acc,     ref::conv1d_grad_input,
      ref::gemm_bias_i8,    ref::synth_channel,
      ref::gauss_fill,
  };
  return backend;
}

}  // namespace origin::nn::kernels
