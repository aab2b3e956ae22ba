// AVX2/FMA backend.
//
// Bit-identity strategy: every float multiply-accumulate — vector lane
// or scalar remainder — is a single-rounded fused FMA applied in the
// contract's strict k order. IEEE-754 specifies fma(a,b,c) exactly, so
// an element's value is the same whether it sits in a _mm256_fmadd lane
// or goes through std::fma in a remainder loop. That makes every output
// independent of blocking/vector width, which is what preserves
// batch == single and any-thread-count bit-identity WITHIN this backend.
// Versus the
// reference backend the bits differ (fused vs unfused rounding): that
// pairing is tolerance-gated, not bit-gated.
//
// This TU is compiled with "-mavx2;-mfma;-ffp-contract=off": contraction
// stays off so the only fusions are the explicit ones, keeping the
// scalar remainders and the int8 dequant (mul-then-add, never fused)
// exactly as written.
#include "nn/kernels/backend_detail.hpp"
#include "util/det_math.hpp"

#if defined(__AVX2__) && defined(__FMA__) && \
    (defined(__x86_64__) || defined(_M_X64))

#include <immintrin.h>

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

namespace origin::nn::kernels {
namespace {

// --- gemm_bias: one register-tile template for every edge -------------
// A tile is R rows x V 8-float vectors of C: R*V independent FMA chains,
// each one output lane's chain from the bias in strict k order. The FMA
// latency (4 cycles) times its issue rate (2 per cycle) asks for at
// least 8 chains in flight, so every tile shape below keeps 8-12 of
// them: 4x3 in the main body, 3x4 / 2x6 / 1x8 for the remainder rows,
// and 8x1 for panels narrower than one vector (single samples and the
// serve tier's small Dense panels). A partial last vector is loaded and
// stored under a lane mask, so there are no scalar remainder columns;
// the masked-off lanes read zeros and are never stored. Tile shape only
// decides which chains run side by side, never the order inside one, so
// the output bits equal a plain std::fmaf k loop for every m, n, kd.

struct GemmArgs {
  const float* a;
  const float* bias;
  const float* p;
  float* c;
  std::size_t lda, ldp;
  int kd, n;
  __m256i tail_mask;  // lanes [0, n % 8) set
};

template <int R, int V, bool kTail>
inline void gemm_tile(const GemmArgs& g, int i, int j) {
  __m256 acc[R][V];
#pragma GCC unroll 8
  for (int r = 0; r < R; ++r) {
    const __m256 b = _mm256_set1_ps(g.bias[i + r]);
#pragma GCC unroll 8
    for (int v = 0; v < V; ++v) acc[r][v] = b;
  }
  const float* arow = g.a + static_cast<std::size_t>(i) * g.lda;
  const float* prow = g.p + j;
  for (int k = 0; k < g.kd; ++k, prow += g.ldp) {
    __m256 pv[V];
#pragma GCC unroll 8
    for (int v = 0; v < V; ++v) {
      pv[v] = (kTail && v == V - 1)
                  ? _mm256_maskload_ps(prow + 8 * v, g.tail_mask)
                  : _mm256_loadu_ps(prow + 8 * v);
    }
#pragma GCC unroll 8
    for (int r = 0; r < R; ++r) {
      const __m256 av = _mm256_broadcast_ss(arow + r * g.lda + k);
#pragma GCC unroll 8
      for (int v = 0; v < V; ++v) {
        acc[r][v] = _mm256_fmadd_ps(av, pv[v], acc[r][v]);
      }
    }
  }
#pragma GCC unroll 8
  for (int r = 0; r < R; ++r) {
    float* crow = g.c + static_cast<std::size_t>(i + r) * g.ldp + j;
#pragma GCC unroll 8
    for (int v = 0; v < V; ++v) {
      if (kTail && v == V - 1) {
        _mm256_maskstore_ps(crow + 8 * v, g.tail_mask, acc[r][v]);
      } else {
        _mm256_storeu_ps(crow + 8 * v, acc[r][v]);
      }
    }
  }
}

/// The last 0 < n - j <= 8*V columns of rows [i, i+R): one tile of
/// ceil((n - j) / 8) vectors, its last vector masked when partial.
template <int R, int V>
inline void gemm_edge(const GemmArgs& g, int i, int j) {
  const int rem = g.n - j;
  if constexpr (V > 1) {
    if (rem <= 8 * (V - 1)) return gemm_edge<R, V - 1>(g, i, j);
  }
  if (rem == 8 * V) {
    gemm_tile<R, V, false>(g, i, j);
  } else {
    gemm_tile<R, V, true>(g, i, j);
  }
}

/// Every column of rows [i, i+R) in R x V tiles plus one edge tile.
template <int R, int V>
inline void gemm_rows(const GemmArgs& g, int i) {
  int j = 0;
  for (; j + 8 * V <= g.n; j += 8 * V) gemm_tile<R, V, false>(g, i, j);
  if (j < g.n) gemm_edge<R, V>(g, i, j);
}

void gemm_bias(const float* a, const float* bias, const float* p, float* c,
               int m, int kd, int n) {
  const int tail = n % 8;
  const __m256i lane = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
  const GemmArgs g{a, bias, p, c,
                   static_cast<std::size_t>(kd), static_cast<std::size_t>(n),
                   kd, n, _mm256_cmpgt_epi32(_mm256_set1_epi32(tail), lane)};
  int i = 0;
  if (n < 8) {
    // Narrow panel: one masked vector per row, eight rows in flight.
    for (; i + 8 <= m; i += 8) gemm_tile<8, 1, true>(g, i, 0);
    switch (m - i) {
      case 7: gemm_tile<7, 1, true>(g, i, 0); break;
      case 6: gemm_tile<6, 1, true>(g, i, 0); break;
      case 5: gemm_tile<5, 1, true>(g, i, 0); break;
      case 4: gemm_tile<4, 1, true>(g, i, 0); break;
      case 3: gemm_tile<3, 1, true>(g, i, 0); break;
      case 2: gemm_tile<2, 1, true>(g, i, 0); break;
      case 1: gemm_tile<1, 1, true>(g, i, 0); break;
      default: break;
    }
    return;
  }
  for (; i + 4 <= m; i += 4) gemm_rows<4, 3>(g, i);
  switch (m - i) {
    case 3: gemm_rows<3, 4>(g, i); break;
    case 2: gemm_rows<2, 6>(g, i); break;
    case 1: gemm_rows<1, 8>(g, i); break;
    default: break;
  }
}

void gemm_acc_nt(const float* a, const float* b, float* c, int m, int n,
                 int kd) {
  const std::size_t ld = static_cast<std::size_t>(kd);
  const std::size_t ldc = static_cast<std::size_t>(n);
  // B rows are contiguous along k but strided along j; pack the 8-column
  // tile transposed once per j block so the k loop gets contiguous
  // 8-wide loads. Packing moves data only — the per-element fused chain
  // stays in k order.
  thread_local std::vector<float> btile;
  int j = 0;
  for (; j + 8 <= n; j += 8) {
    btile.resize(static_cast<std::size_t>(kd) * 8);
    for (int q = 0; q < 8; ++q) {
      const float* brow = b + static_cast<std::size_t>(j + q) * ld;
      for (int k = 0; k < kd; ++k) {
        btile[static_cast<std::size_t>(k) * 8 + q] = brow[k];
      }
    }
    int i = 0;
    for (; i + 4 <= m; i += 4) {
      __m256 c0 = _mm256_loadu_ps(c + static_cast<std::size_t>(i) * ldc + j);
      __m256 c1 =
          _mm256_loadu_ps(c + static_cast<std::size_t>(i + 1) * ldc + j);
      __m256 c2 =
          _mm256_loadu_ps(c + static_cast<std::size_t>(i + 2) * ldc + j);
      __m256 c3 =
          _mm256_loadu_ps(c + static_cast<std::size_t>(i + 3) * ldc + j);
      const float* a0 = a + static_cast<std::size_t>(i) * ld;
      const float* a1 = a0 + ld;
      const float* a2 = a1 + ld;
      const float* a3 = a2 + ld;
      const float* bt = btile.data();
      for (int k = 0; k < kd; ++k, bt += 8) {
        const __m256 bv = _mm256_loadu_ps(bt);
        c0 = _mm256_fmadd_ps(_mm256_set1_ps(a0[k]), bv, c0);
        c1 = _mm256_fmadd_ps(_mm256_set1_ps(a1[k]), bv, c1);
        c2 = _mm256_fmadd_ps(_mm256_set1_ps(a2[k]), bv, c2);
        c3 = _mm256_fmadd_ps(_mm256_set1_ps(a3[k]), bv, c3);
      }
      _mm256_storeu_ps(c + static_cast<std::size_t>(i) * ldc + j, c0);
      _mm256_storeu_ps(c + static_cast<std::size_t>(i + 1) * ldc + j, c1);
      _mm256_storeu_ps(c + static_cast<std::size_t>(i + 2) * ldc + j, c2);
      _mm256_storeu_ps(c + static_cast<std::size_t>(i + 3) * ldc + j, c3);
    }
    for (; i < m; ++i) {
      __m256 acc = _mm256_loadu_ps(c + static_cast<std::size_t>(i) * ldc + j);
      const float* arow = a + static_cast<std::size_t>(i) * ld;
      const float* bt = btile.data();
      for (int k = 0; k < kd; ++k, bt += 8) {
        acc = _mm256_fmadd_ps(_mm256_set1_ps(arow[k]), _mm256_loadu_ps(bt),
                              acc);
      }
      _mm256_storeu_ps(c + static_cast<std::size_t>(i) * ldc + j, acc);
    }
  }
  for (; j < n; ++j) {
    const float* brow = b + static_cast<std::size_t>(j) * ld;
    for (int i = 0; i < m; ++i) {
      const float* arow = a + static_cast<std::size_t>(i) * ld;
      float s = c[static_cast<std::size_t>(i) * ldc + j];
      for (int k = 0; k < kd; ++k) s = std::fmaf(arow[k], brow[k], s);
      c[static_cast<std::size_t>(i) * ldc + j] = s;
    }
  }
}

void gemm_tn(const float* a, const float* p, float* c, int m, int kd, int n) {
  const std::size_t lda = static_cast<std::size_t>(m);
  const std::size_t ldp = static_cast<std::size_t>(n);
  int i = 0;
  for (; i + 4 <= m; i += 4) {
    int j = 0;
    for (; j + 8 <= n; j += 8) {
      __m256 c0 = _mm256_setzero_ps();
      __m256 c1 = _mm256_setzero_ps();
      __m256 c2 = _mm256_setzero_ps();
      __m256 c3 = _mm256_setzero_ps();
      const float* arow = a + i;
      const float* prow = p + j;
      for (int k = 0; k < kd; ++k, arow += lda, prow += ldp) {
        const __m256 pv = _mm256_loadu_ps(prow);
        c0 = _mm256_fmadd_ps(_mm256_set1_ps(arow[0]), pv, c0);
        c1 = _mm256_fmadd_ps(_mm256_set1_ps(arow[1]), pv, c1);
        c2 = _mm256_fmadd_ps(_mm256_set1_ps(arow[2]), pv, c2);
        c3 = _mm256_fmadd_ps(_mm256_set1_ps(arow[3]), pv, c3);
      }
      _mm256_storeu_ps(c + static_cast<std::size_t>(i) * ldp + j, c0);
      _mm256_storeu_ps(c + static_cast<std::size_t>(i + 1) * ldp + j, c1);
      _mm256_storeu_ps(c + static_cast<std::size_t>(i + 2) * ldp + j, c2);
      _mm256_storeu_ps(c + static_cast<std::size_t>(i + 3) * ldp + j, c3);
    }
    for (; j < n; ++j) {
      float s0 = 0.0f, s1 = 0.0f, s2 = 0.0f, s3 = 0.0f;
      for (int k = 0; k < kd; ++k) {
        const float pv = p[static_cast<std::size_t>(k) * ldp + j];
        const float* arow = a + static_cast<std::size_t>(k) * lda + i;
        s0 = std::fmaf(arow[0], pv, s0);
        s1 = std::fmaf(arow[1], pv, s1);
        s2 = std::fmaf(arow[2], pv, s2);
        s3 = std::fmaf(arow[3], pv, s3);
      }
      c[static_cast<std::size_t>(i) * ldp + j] = s0;
      c[static_cast<std::size_t>(i + 1) * ldp + j] = s1;
      c[static_cast<std::size_t>(i + 2) * ldp + j] = s2;
      c[static_cast<std::size_t>(i + 3) * ldp + j] = s3;
    }
  }
  for (; i < m; ++i) {
    int j = 0;
    for (; j + 8 <= n; j += 8) {
      __m256 acc = _mm256_setzero_ps();
      const float* arow = a + i;
      const float* prow = p + j;
      for (int k = 0; k < kd; ++k, arow += lda, prow += ldp) {
        acc = _mm256_fmadd_ps(_mm256_set1_ps(arow[0]), _mm256_loadu_ps(prow),
                              acc);
      }
      _mm256_storeu_ps(c + static_cast<std::size_t>(i) * ldp + j, acc);
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
    // Strided layers are off the hot path (one per net, short outputs);
    // fusing would change bits for no measurable win, so keep the
    // reference exactly.
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
    for (; p + 8 <= out_len; p += 8) {
      __m256 acc = _mm256_setzero_ps();
      for (int co = 0; co < cout; ++co) {
        const float* wrow =
            w + (static_cast<std::size_t>(co) * cin + ci) * kernel;
        const float* grow = gy + static_cast<std::size_t>(co) * ldg;
        for (int kk = kernel - 1; kk >= 0; --kk) {
          acc = _mm256_fmadd_ps(_mm256_loadu_ps(grow + (p - kk)),
                                _mm256_set1_ps(wrow[kk]), acc);
        }
      }
      _mm256_storeu_ps(gxrow + p, acc);
    }
    for (; p < in_len; ++p) scalar_at(p);
  }
}

void gemm_bias_i8(const std::int8_t* a, const float* bias,
                  const std::int8_t* p, float* c, int m, int kd, int n,
                  float scale) {
  // Integer accumulation is exact and associative, so vectorizing is
  // free; the dequant stays mul-then-add (no fmadd) so the result is
  // bit-identical to the reference backend.
  for (int i = 0; i < m; ++i) {
    const std::int8_t* arow = a + static_cast<std::size_t>(i) * kd;
    float* crow = c + static_cast<std::size_t>(i) * n;
    const __m256 biasv = _mm256_set1_ps(bias[i]);
    const __m256 scalev = _mm256_set1_ps(scale);
    int j = 0;
    for (; j + 8 <= n; j += 8) {
      __m256i acc = _mm256_setzero_si256();
      for (int k = 0; k < kd; ++k) {
        const __m256i av = _mm256_set1_epi32(arow[k]);
        const __m128i pb = _mm_loadl_epi64(reinterpret_cast<const __m128i*>(
            p + static_cast<std::size_t>(k) * n + j));
        acc = _mm256_add_epi32(
            acc, _mm256_mullo_epi32(av, _mm256_cvtepi8_epi32(pb)));
      }
      _mm256_storeu_ps(
          crow + j,
          _mm256_add_ps(biasv, _mm256_mul_ps(scalev, _mm256_cvtepi32_ps(acc))));
    }
    for (; j < n; ++j) {
      std::int32_t acc = 0;
      for (int k = 0; k < kd; ++k) {
        acc += static_cast<std::int32_t>(arow[k]) *
               static_cast<std::int32_t>(
                   p[static_cast<std::size_t>(k) * n + j]);
      }
      crow[j] = bias[i] + scale * static_cast<float>(acc);
    }
  }
}

// --- det_sin, fused ---------------------------------------------------
// The constants are util::det_sin's exactly; the algorithm differs only
// in fusing each multiply-add. Both the 4-wide vector body and the
// scalar remainder follow ONE element-wise recipe (every a*b+c is a
// single-rounded fma in the same position), so lanes equal remainders.

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

/// (-1)^n applied to `v`, where `tq` = n + 1.5 * 2^52 is the rounding
/// word n was taken from: its lowest mantissa bit is n's parity, so
/// shifting it into the sign position and xor-ing flips v exactly when n
/// is odd. Multiplying by +/-1 is exact, so this equals util::det_sin's
/// `sign * v` bit for bit.
inline __m256d flip_by_parity_pd(__m256d v, __m256d tq) {
  return _mm256_xor_pd(
      v, _mm256_castsi256_pd(_mm256_slli_epi64(_mm256_castpd_si256(tq), 63)));
}

inline __m256d det_sin_pd(__m256d x) {
  const __m256d magic = _mm256_set1_pd(kRoundMagic);
  const __m256d tq = _mm256_fmadd_pd(x, _mm256_set1_pd(kInvPi), magic);
  const __m256d n = _mm256_sub_pd(tq, magic);
  __m256d r = _mm256_fnmadd_pd(n, _mm256_set1_pd(kPi1), x);
  r = _mm256_fnmadd_pd(n, _mm256_set1_pd(kPi2), r);
  r = _mm256_fnmadd_pd(n, _mm256_set1_pd(kPi3), r);
  const __m256d r2 = _mm256_mul_pd(r, r);
  __m256d pl = _mm256_set1_pd(kS7);
  pl = _mm256_fmadd_pd(pl, r2, _mm256_set1_pd(kS6));
  pl = _mm256_fmadd_pd(pl, r2, _mm256_set1_pd(kS5));
  pl = _mm256_fmadd_pd(pl, r2, _mm256_set1_pd(kS4));
  pl = _mm256_fmadd_pd(pl, r2, _mm256_set1_pd(kS3));
  pl = _mm256_fmadd_pd(pl, r2, _mm256_set1_pd(kS2));
  pl = _mm256_fmadd_pd(pl, r2, _mm256_set1_pd(kS1));
  return flip_by_parity_pd(_mm256_fmadd_pd(r, _mm256_mul_pd(r2, pl), r), tq);
}

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

struct SigV {
  __m256d omega, dc, a1, a2, a3, p1, p2, p3;
  explicit SigV(const SynthSig& s)
      : omega(_mm256_set1_pd(s.omega)),
        dc(_mm256_set1_pd(s.dc)),
        a1(_mm256_set1_pd(s.a1)),
        a2(_mm256_set1_pd(s.a2)),
        a3(_mm256_set1_pd(s.a3)),
        p1(_mm256_set1_pd(s.p1)),
        p2(_mm256_set1_pd(s.p2)),
        p3(_mm256_set1_pd(s.p3)) {}
};

inline __m256d sig_eval_pd(const SigV& s, __m256d t, __m256d ph, __m256d amp) {
  const __m256d w = _mm256_fmadd_pd(s.omega, t, ph);
  const __m256d s1 = det_sin_pd(_mm256_add_pd(w, s.p1));
  const __m256d s2 =
      det_sin_pd(_mm256_fmadd_pd(_mm256_set1_pd(2.0), w, s.p2));
  const __m256d s3 =
      det_sin_pd(_mm256_fmadd_pd(_mm256_set1_pd(3.0), w, s.p3));
  __m256d acc = _mm256_fmadd_pd(s.a2, s2, _mm256_mul_pd(s.a1, s1));
  acc = _mm256_fmadd_pd(s.a3, s3, acc);
  return _mm256_fmadd_pd(amp, acc, s.dc);
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
  const __m256d phv = _mm256_set1_pd(sp.ph);
  const __m256d ampv = _mm256_set1_pd(sp.amp);
  const __m256d bmv = _mm256_set1_pd(sp.blend_main);
  const __m256d betav = _mm256_set1_pd(sp.beta);
  const SigV mainv(sp.main), altv(sp.alt);
  int i = 0;
  if (!sp.ambiguous) {
    for (; i + 4 <= len; i += 4) {
      const __m256d tv = _mm256_loadu_pd(t + i);
      const __m256d vm = sig_eval_pd(mainv, tv, phv, ampv);
      const __m256d va = sig_eval_pd(altv, tv, phv, ampv);
      _mm256_storeu_pd(clean + i,
                       _mm256_fmadd_pd(betav, va, _mm256_mul_pd(bmv, vm)));
    }
    for (; i < len; ++i) {
      const double vm = sig_eval_fused(sp.main, t[i], sp.ph, sp.amp);
      const double va = sig_eval_fused(sp.alt, t[i], sp.ph, sp.amp);
      clean[i] = std::fma(sp.beta, va, sp.blend_main * vm);
    }
  } else {
    const __m256d keepv = _mm256_set1_pd(sp.keep);
    const __m256d mixv = _mm256_set1_pd(sp.mix);
    const SigV ambv(sp.amb);
    for (; i + 4 <= len; i += 4) {
      const __m256d tv = _mm256_loadu_pd(t + i);
      const __m256d vm = sig_eval_pd(mainv, tv, phv, ampv);
      const __m256d va = sig_eval_pd(altv, tv, phv, ampv);
      const __m256d vb = sig_eval_pd(ambv, tv, phv, ampv);
      const __m256d kept = _mm256_mul_pd(
          keepv, _mm256_fmadd_pd(betav, va, _mm256_mul_pd(bmv, vm)));
      _mm256_storeu_pd(clean + i, _mm256_fmadd_pd(mixv, vb, kept));
    }
    for (; i < len; ++i) {
      const double vm = sig_eval_fused(sp.main, t[i], sp.ph, sp.amp);
      const double va = sig_eval_fused(sp.alt, t[i], sp.ph, sp.amp);
      const double vb = sig_eval_fused(sp.amb, t[i], sp.ph, sp.amp);
      clean[i] = std::fma(
          sp.mix, vb, sp.keep * std::fma(sp.beta, va, sp.blend_main * vm));
    }
  }
}

// --- gauss_fill: four Box–Muller pairs per vector ----------------------
// ref::gauss_fill's operations in its order, as explicit unfused vector
// mul/add/div/sqrt (each one IEEE rounding per lane, like the scalar
// ones), so every value is the reference's bits: this kernel, unlike the
// float GEMMs, is bit-identical ACROSS backends.

inline __m256i lowbias32_epi32(__m256i x) {
  x = _mm256_xor_si256(x, _mm256_srli_epi32(x, 16));
  x = _mm256_mullo_epi32(x, _mm256_set1_epi32(0x7feb352d));
  x = _mm256_xor_si256(x, _mm256_srli_epi32(x, 15));
  x = _mm256_mullo_epi32(x, _mm256_set1_epi32(static_cast<int>(0x846ca68bU)));
  return _mm256_xor_si256(x, _mm256_srli_epi32(x, 16));
}

/// Four unsigned 32-bit words as exact doubles. AVX2 converts only signed
/// words: flipping the top bit gives w - 2^31, and adding 2^31 back is
/// exact.
inline __m256d u32_to_pd(__m128i w) {
  return _mm256_add_pd(
      _mm256_cvtepi32_pd(_mm_xor_si128(w, _mm_set1_epi32(INT32_MIN))),
      _mm256_set1_pd(0x1.0p31));
}

/// util::det_sin, unfused (det_sin_pd above fuses for synth_channel).
inline __m256d det_sin_unfused_pd(__m256d x) {
  const __m256d magic = _mm256_set1_pd(kRoundMagic);
  const __m256d tq =
      _mm256_add_pd(_mm256_mul_pd(x, _mm256_set1_pd(kInvPi)), magic);
  const __m256d n = _mm256_sub_pd(tq, magic);
  __m256d r = _mm256_sub_pd(x, _mm256_mul_pd(n, _mm256_set1_pd(kPi1)));
  r = _mm256_sub_pd(r, _mm256_mul_pd(n, _mm256_set1_pd(kPi2)));
  r = _mm256_sub_pd(r, _mm256_mul_pd(n, _mm256_set1_pd(kPi3)));
  const __m256d r2 = _mm256_mul_pd(r, r);
  constexpr double kCoeffs[] = {kS6, kS5, kS4, kS3, kS2, kS1};
  __m256d p = _mm256_set1_pd(kS7);
  for (double c : kCoeffs) {
    p = _mm256_add_pd(_mm256_mul_pd(p, r2), _mm256_set1_pd(c));
  }
  return flip_by_parity_pd(
      _mm256_add_pd(r, _mm256_mul_pd(r, _mm256_mul_pd(r2, p))), tq);
}

/// util::det_log, lane for lane.
inline __m256d det_log_pd(__m256d x) {
  const __m256i bits = _mm256_castpd_si256(x);
  const __m256d biased = _mm256_sub_pd(
      _mm256_castsi256_pd(
          _mm256_or_si256(_mm256_srli_epi64(bits, 52),
                          _mm256_set1_epi64x(0x4330000000000000LL))),
      _mm256_set1_pd(0x1.0p52));
  const __m256d m1 = _mm256_castsi256_pd(_mm256_or_si256(
      _mm256_and_si256(bits, _mm256_set1_epi64x(0x000FFFFFFFFFFFFFLL)),
      _mm256_set1_epi64x(0x3FF0000000000000LL)));
  const __m256d high =
      _mm256_cmp_pd(m1, _mm256_set1_pd(util::kDetLogSqrt2), _CMP_GT_OQ);
  const __m256d m =
      _mm256_blendv_pd(m1, _mm256_mul_pd(m1, _mm256_set1_pd(0.5)), high);
  const __m256d e = _mm256_sub_pd(
      biased, _mm256_blendv_pd(_mm256_set1_pd(1023.0),
                               _mm256_set1_pd(1022.0), high));
  const __m256d one = _mm256_set1_pd(1.0);
  const __m256d s =
      _mm256_div_pd(_mm256_sub_pd(m, one), _mm256_add_pd(m, one));
  const __m256d s2 = _mm256_mul_pd(s, s);
  __m256d p = _mm256_set1_pd(util::kDetLogAtanh[0]);
  for (int k = 1; k < 9; ++k) {
    p = _mm256_add_pd(_mm256_mul_pd(p, s2),
                      _mm256_set1_pd(util::kDetLogAtanh[k]));
  }
  const __m256d t = _mm256_mul_pd(_mm256_set1_pd(2.0), s);
  const __m256d log_m =
      _mm256_add_pd(t, _mm256_mul_pd(t, _mm256_mul_pd(s2, p)));
  return _mm256_add_pd(
      _mm256_mul_pd(e, _mm256_set1_pd(util::kDetLogLn2Hi)),
      _mm256_add_pd(_mm256_mul_pd(e, _mm256_set1_pd(util::kDetLogLn2Lo)),
                    log_m));
}

/// Values i .. i + 7 of gauss_fill(key): pairs i/2 .. i/2 + 3, stored in
/// pair order to out[0..8).
inline void gauss_block(__m256i key_lo, __m256i key_hi, std::size_t i,
                        double* out) {
  const __m256i counters =
      _mm256_add_epi32(_mm256_set1_epi32(static_cast<int>(i)),
                       _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
  // Even counters (the u1 words) to the low half, odd ones (theta) high.
  const __m256i words = _mm256_permutevar8x32_epi32(
      lowbias32_epi32(_mm256_xor_si256(
          lowbias32_epi32(_mm256_xor_si256(counters, key_lo)), key_hi)),
      _mm256_setr_epi32(0, 2, 4, 6, 1, 3, 5, 7));
  const __m256d u1 = _mm256_mul_pd(
      _mm256_add_pd(u32_to_pd(_mm256_castsi256_si128(words)),
                    _mm256_set1_pd(0.5)),
      _mm256_set1_pd(0x1.0p-32));
  const __m256d theta = _mm256_sub_pd(
      _mm256_mul_pd(u32_to_pd(_mm256_extracti128_si256(words, 1)),
                    _mm256_set1_pd(kFillThetaScale)),
      _mm256_set1_pd(kFillPi));
  const __m256d r =
      _mm256_sqrt_pd(_mm256_mul_pd(_mm256_set1_pd(-2.0), det_log_pd(u1)));
  const __m256d g0 = _mm256_mul_pd(r, det_sin_unfused_pd(theta));
  const __m256d g1 = _mm256_mul_pd(
      r, det_sin_unfused_pd(
             _mm256_add_pd(theta, _mm256_set1_pd(kFillHalfPi))));
  // Back to pair order: [g0 g1] of pairs 0, 1, then of pairs 2, 3.
  const __m256d even = _mm256_unpacklo_pd(g0, g1);  // pairs 0, 2
  const __m256d odd = _mm256_unpackhi_pd(g0, g1);   // pairs 1, 3
  _mm256_storeu_pd(out, _mm256_permute2f128_pd(even, odd, 0x20));
  _mm256_storeu_pd(out + 4, _mm256_permute2f128_pd(even, odd, 0x31));
}

void gauss_fill(std::uint64_t key, double* out, std::size_t n) {
  const __m256i key_lo = _mm256_set1_epi32(static_cast<int>(key));
  const __m256i key_hi = _mm256_set1_epi32(static_cast<int>(key >> 32));
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) gauss_block(key_lo, key_hi, i, out + i);
  if (i < n) {
    double block[8];
    gauss_block(key_lo, key_hi, i, block);
    std::memcpy(out + i, block, (n - i) * sizeof(double));
  }
}

}  // namespace

const Backend* avx2_backend() {
  static const Backend backend = {
      "avx2",           ref::im2row,  gemm_bias,
      gemm_acc_nt,      gemm_tn,
      ref::row_sum_acc, conv1d_grad_input,
      gemm_bias_i8,     synth_channel,
      gauss_fill,
  };
  static const bool supported =
      __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
  return supported ? &backend : nullptr;
}

}  // namespace origin::nn::kernels

#else  // no AVX2/FMA target support in this TU

namespace origin::nn::kernels {

const Backend* avx2_backend() { return nullptr; }

}  // namespace origin::nn::kernels

#endif
