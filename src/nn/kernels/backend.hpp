// Runtime-dispatched kernel backends.
//
// A Backend is a table of function pointers covering every hot-path
// kernel: the im2row/GEMM family (nn/kernels.hpp), the int8 serving
// GEMM, the window-synthesis inner loop and the keyed Gaussian noise fill
// (data/signal_model.cpp).
// The scalar "reference" backend is always available and is the oracle
// every other backend is tested against. The SIMD backend (AVX2/FMA on
// x86-64) is compiled when the toolchain supports the target flags and
// probed at runtime before being offered; other targets, aarch64
// included, run the reference backend.
//
// Contract split (DESIGN.md §13):
//   * WITHIN a backend, the full bit-identity contract of nn/kernels.hpp
//     holds: batched == single-sample, any thread count, serve-loop
//     logs byte-identical. SIMD backends achieve this by computing every
//     float multiply-accumulate as a single-rounded fused FMA in strict
//     k order, so an element's value does not depend on whether it was
//     produced by a vector lane or a scalar remainder loop.
//   * ACROSS backends, float outputs agree only to tolerance (fused vs
//     unfused rounding); equivalence is gated by tolerance + accuracy-
//     identical classification tests (tests/test_backends.cpp).
//   * The int8 GEMM is bit-identical across ALL backends: the int32
//     accumulation is exact and the dequantization is a fixed
//     mul-then-add (never fused). So is gauss_fill: its hash is integer
//     arithmetic and every floating-point step is one unfused IEEE
//     operation, so window-noise bits are backend-invariant.
//
// The active backend defaults to "reference" so every existing golden
// number is unchanged; opt into SIMD via ORIGIN_BACKEND=avx2|auto
// or the --backend flag of the serving/bench binaries.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace origin::nn::kernels {

/// One sinusoid signature of the synthesis model: for sample time t,
///   v(t) = dc + amp * ((a1*sin(w + p1) + a2*sin(2w + p2)) + a3*sin(3w + p3))
/// with w = omega * t + ph (amp and ph live in SynthParams — they are
/// per-window, the signature coefficients are per-activity).
struct SynthSig {
  double omega = 0.0, dc = 0.0;
  double a1 = 0.0, a2 = 0.0, a3 = 0.0;
  double p1 = 0.0, p2 = 0.0, p3 = 0.0;
};

/// Everything the synthesis inner loop needs to fill one clean channel:
/// clean[i] = blend_main*main(t[i]) + beta*alt(t[i]), or, for ambiguous
/// activities, keep*(that) + mix*amb(t[i]). The ambiguous combination is
/// kept as a distinct code path even when mix == 0 would be equivalent
/// in exact arithmetic: folding it through `keep*x + 0.0*y` can flip the
/// sign of a -0.0 and break the golden checksums.
struct SynthParams {
  double ph = 0.0;          // window phase + per-channel user phase
  double amp = 0.0;         // amp_scale * per-window wobble
  double blend_main = 1.0;  // 1 - beta
  double beta = 0.0;
  double keep = 1.0;        // 1 - mix (ambiguous activities only)
  double mix = 0.0;
  bool ambiguous = false;
  SynthSig main, alt, amb;
};

/// Kernel table. All float kernels follow the accumulation-order
/// contract documented in nn/kernels.hpp; gemm_bias_i8, synth_channel
/// and gauss_fill are documented at their dispatch wrappers (kernels.hpp).
struct Backend {
  const char* name;

  void (*im2row)(const float* x, int cin, int in_len, int kernel, int stride,
                 int out_len, float* panel, std::size_t ldp);
  void (*gemm_bias)(const float* a, const float* bias, const float* p,
                    float* c, int m, int kd, int n);
  void (*gemm_acc_nt)(const float* a, const float* b, float* c, int m, int n,
                      int kd);
  void (*gemm_tn)(const float* a, const float* p, float* c, int m, int kd,
                  int n);
  void (*row_sum_acc)(const float* a, float* y, int m, int n, std::size_t lda);
  void (*conv1d_grad_input)(const float* w, const float* gy, float* gx,
                            int cin, int cout, int kernel, int stride,
                            int in_len, int out_len, std::size_t ldg);
  void (*gemm_bias_i8)(const std::int8_t* a, const float* bias,
                       const std::int8_t* p, float* c, int m, int kd, int n,
                       float scale);
  void (*synth_channel)(const SynthParams& sp, const double* t, double* clean,
                        int len);
  void (*gauss_fill)(std::uint64_t key, double* out, std::size_t n);
};

/// Backends usable on THIS machine, probed once: always starts with
/// "reference"; SIMD backends appear only when both compiled in and
/// supported by the CPU. Ordered worst-to-best, so `auto` == back().
const std::vector<const Backend*>& available_backends();

/// The backend every kernels:: free function dispatches through. Resolved
/// lazily on first use: ORIGIN_BACKEND env var if set (falling back to
/// reference, with a stderr warning, when it names something unavailable),
/// else "reference".
const Backend& active_backend();

/// Select by name ("reference", "avx2", or "auto" for the best
/// available). Returns false — leaving the active backend unchanged —
/// when the name is unknown or the backend is unavailable here. Intended
/// for process startup; swapping mid-run is safe but changes float bits
/// from that point on.
bool set_backend(const std::string& name);

/// Lookup without activation; nullptr when unknown/unavailable.
const Backend* find_backend(const std::string& name);

/// Human-readable SIMD capability string for manifests/History records,
/// e.g. "avx2 fma avx512f" or "scalar-only".
std::string simd_features();

}  // namespace origin::nn::kernels
