// Inference + training kernels: im2row packing, the register-tiled GEMM
// and its backward counterparts, plus the per-thread scratch workspace
// the fast paths allocate from. Every free function here dispatches
// through the runtime-selected Backend (nn/kernels/backend.hpp); the
// default backend is the scalar reference, so all golden numbers are
// those of the reference kernels unless a SIMD backend is opted into.
//
// Accumulation-order contract (load-bearing for the fleet determinism
// guarantees, see DESIGN.md §13): every output element is produced by ONE
// float accumulator initialized with the bias and updated strictly in
// packed-row order j = 0..kd-1, exactly the (ci-major, then kernel-tap)
// order of the naive loops kept as test oracles (tests/nn_oracles.hpp
// conv1d_forward_oracle / dense_forward_oracle). Blocking and unrolling only regroup *which*
// output elements are in flight together — never the per-element order —
// so, WITHIN any one backend, kernel outputs are bit-identical to that
// backend's element recipe, and batched calls are bit-identical to
// repeated single-sample calls. The reference backend computes each
// multiply-accumulate unfused (bit-identical to the reference loops);
// SIMD backends compute it as a single-rounded fused FMA (bit-identical
// to each other, tolerance-equivalent to the reference).
//
// The backward kernels extend the same contract to gradients: a gradient
// accumulator starts from its *current* value (grads accumulate across a
// minibatch) and receives contributions in exactly the order of the naive
// backward loops (conv1d_backward_oracle / dense_backward_oracle) —
// sample-major across a batch, then the loop-nest order within each sample.
// Because a float store/load round-trip is exact, chaining per-sample
// updates through memory (the reference) equals keeping the accumulator
// in a register across the whole batch (the kernels), so trained weights
// are bit-identical whichever path ran — per backend.
#pragma once

#include <cstddef>
#include <cstdint>

#include "nn/kernels/backend.hpp"

namespace origin::nn::kernels {

/// Scratch slots of the per-thread workspace. Layers run sequentially on
/// a thread, so each slot has at most one live user at a time; distinct
/// slots exist for buffers that are alive simultaneously inside one
/// batched layer call (input panel vs. staged GEMM output).
enum class Slot : int {
  Panel = 0,   // packed im2row / dense input panel
  Stage,       // staged GEMM output (batched conv/dense)
  kCount,
};

/// Borrowed pointer to `count` floats of thread-local scratch for `slot`.
/// Contents are unspecified; valid until the next request for the same
/// slot on the same thread. Never returns nullptr (count 0 gives a valid
/// empty buffer).
float* scratch(Slot slot, std::size_t count);

/// im2row packing of a [cin, in_len] row-major signal for a valid
/// convolution with the given kernel/stride: writes
///   panel[(ci*kernel + kk) * ldp + t] = x[ci*in_len + t*stride + kk]
/// for t in [0, out_len). `ldp` is the panel's leading dimension (row
/// length), >= out_len; a batched caller packs sample b at column offset
/// b*out_len of a wide panel with ldp = batch*out_len.
void im2row(const float* x, int cin, int in_len, int kernel, int stride,
            int out_len, float* panel, std::size_t ldp);

/// C[m x n] = broadcast(bias[m]) + A[m x kd] * P[kd x n], all row-major
/// and dense. Register-tiled over rows/columns; the j loop over kd is
/// innermost-sequential per output element (see contract above), so any
/// n — including the single-sample n == 1 of Dense::forward — gives each
/// column the bits it would get in any other panel. The AVX2 backend
/// tiles 4 rows x 24 columns (12 FMA chains in flight), runs remainder
/// rows in wider 3x32 / 2x48 / 1x64 tiles, covers a partial last vector
/// with a masked load/store, and gives panels narrower than 8 columns an
/// 8-row x 1-masked-vector tile (DESIGN.md §13).
void gemm_bias(const float* a, const float* bias, const float* p, float* c,
               int m, int kd, int n);

/// C[m x n] += A[m x kd] * B[n x kd]^T, all row-major (A rows and B rows
/// both contiguous along the reduction). The grad-weight GEMM: each C
/// element is one accumulator seeded from its current value and updated
/// over k = 0..kd-1 in order — with the batch (or batch x time) axis as
/// the reduction, that is exactly the naive backward loop's sample-major
/// accumulation into the persistent gradient tensors.
void gemm_acc_nt(const float* a, const float* b, float* c, int m, int n,
                 int kd);

/// C[m x n] = A[kd x m]^T * P[kd x n] (no bias, accumulators start at 0,
/// k = 0..kd-1 in order per element). The grad-input GEMM for Dense: with
/// A = W [out x in] and P the packed grad-output panel [out x batch],
/// each input-gradient element accumulates over the out axis in ascending
/// order, exactly as the naive backward loop's `o` loop does.
void gemm_tn(const float* a, const float* p, float* c, int m, int kd, int n);

/// y[i] += sum_j a[i*lda + j] for j = 0..n-1 in order — the bias-gradient
/// row reduction (one accumulator per row, seeded from y's current value).
void row_sum_acc(const float* a, float* y, int m, int n, std::size_t lda);

/// Gradient w.r.t. the input of a valid 1-D convolution, ONE sample:
///   gx[ci*in_len + p] = sum over (co asc, t asc with p == t*stride + kk)
///                       of gy[co, t] * w[(co*cin + ci)*kernel + kk]
/// with gx's accumulators starting at 0 and contributions applied in
/// the naive backward loop's (co-major, t-ascending) per-element order
/// — a transposed-kernel correlation that must NOT be reassociated into a
/// col2im scatter. `gy` row co starts at gy + co*ldg (wide-panel batched
/// callers pass ldg > out_len). Overwrites gx (no accumulation across
/// calls); stride 1 takes a vectorizable interior fast path.
void conv1d_grad_input(const float* w, const float* gy, float* gx, int cin,
                       int cout, int kernel, int stride, int in_len,
                       int out_len, std::size_t ldg);

/// Borrowed pointer to `count` bytes of thread-local int8 scratch (the
/// quantized-activation panel of the int8 serving path). Same lifetime
/// rules as scratch().
std::int8_t* scratch_i8(std::size_t count);

/// Symmetric per-tensor quantization of `count` floats onto the
/// (1 << (bits-1)) - 1 level grid — the same grid quantize_tensor
/// (nn/quantize.hpp) fake-quantizes onto. Writes the int8 codes to `q`
/// and returns the scale (0 when the tensor is all-zero, with q zeroed).
/// Backend-independent: scale search and rounding are scalar double
/// arithmetic, so codes are identical on every backend.
float quantize_to_i8(const float* x, std::size_t count, int bits,
                     std::int8_t* q);

/// Quantized GEMM of the int8 serving path:
///   C[m x n] = broadcast(bias[m]) + scale * (A[m x kd] * P[kd x n])
/// with A and P int8 and the reduction in exact int32 (127*127*kd stays
/// far below 2^31). `scale` is weight_scale * activation_scale. The
/// dequantization is mul-then-add — never fused — so this kernel is
/// bit-identical across ALL backends, not just within one.
void gemm_bias_i8(const std::int8_t* a, const float* bias,
                  const std::int8_t* p, float* c, int m, int kd, int n,
                  float scale);

/// The window-synthesis inner loop (SignalModel::synthesize_window's
/// deterministic pass): fills clean[0..len) from the time grid t[0..len)
/// per the SynthParams combination. The reference backend reproduces the
/// pre-dispatch loops expression-for-expression (pinned by
/// tests/test_data_golden); SIMD backends fuse per their recipe.
void synth_channel(const SynthParams& sp, const double* t, double* clean,
                   int len);

/// The keyed standard-normal fill of window synthesis: out[i] is value i
/// of `key`'s stream, a pure function of (key, i), so any prefix, any
/// order and any backend give the same values. Pair j (values 2j, 2j + 1)
/// is Box–Muller over the counter-hash words w = util::keyed_word(key, 2j)
/// and w' = util::keyed_word(key, 2j + 1):
///   u1 = (w + 0.5) * 2^-32 in (0, 1),  theta = w' * (2 pi 2^-32) - pi,
///   r  = sqrt(-2 * util::det_log(u1)),
///   out[2j]     = r * util::det_sin(theta),
///   out[2j + 1] = r * util::det_sin(theta + pi/2).
/// Every step is exact or one IEEE rounding with no FMA, so the outputs
/// are bit-identical across ALL backends, and no libm function is called.
void gauss_fill(std::uint64_t key, double* out, std::size_t n);

}  // namespace origin::nn::kernels
