// Delta-encoded model state: a personalized model stored as a sparse,
// quantized diff against a shared base `Sequential` instead of a full
// model file. Personalization touches few tensors (fine-tuning adapts
// the classifier head), so the delta is sparse at tensor granularity —
// untouched parameter tensors are simply absent — and dense int16 within
// a touched tensor.
//
// Quantization uses a power-of-two scale per tensor (the smallest 2^e
// with max|diff| <= 32767 * 2^e). Power-of-two scales make dequant
// (q * scale) exact in float arithmetic, which gives the projection
// property the serving tier builds on: applying a delta and re-encoding
// against the same base reproduces the identical float parameters, so a
// model restored from disk is bit-identical to the live one that wrote
// it. After every fine-tune the serving shard *realizes* the quantized
// state in the live model (base + dequant(encode(tuned - base))) so
// in-memory and stored weights never diverge.
//
// File format (little-endian):
//   magic "ORGNDELT", u32 version
//   u64 base fingerprint (FNV-1a over the base model's parameter bytes,
//       param-index order) — refuses to apply against a different base
//   u32 total param-tensor count of the base (layout sanity check)
//   u32 entry count
//   per entry: u32 param_index, f32 scale, u64 count, int16[count]
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "nn/model.hpp"

namespace origin::nn {

struct TensorDelta {
  /// Index into Sequential::params() order (layer order, weight first).
  std::uint32_t param_index = 0;
  /// Power-of-two dequant scale: diff value = q * scale.
  float scale = 0.0f;
  std::vector<std::int16_t> q;
};

struct ModelDelta {
  std::uint64_t base_fingerprint = 0;
  std::uint32_t base_param_tensors = 0;
  /// Sorted by param_index; tensors whose diff is all-zero are absent.
  std::vector<TensorDelta> entries;

  bool empty() const { return entries.empty(); }
};

/// FNV-1a over every parameter tensor's raw f32 bytes in params() order.
/// Identifies a base model for delta compatibility checks.
std::uint64_t params_fingerprint(const Sequential& model);

/// Encodes `tuned - base` per parameter tensor. Throws when the two
/// models have different parameter layouts.
ModelDelta delta_encode(const Sequential& base, const Sequential& tuned);

/// delta_encode over the parameter tensors [first_param, end) in
/// params() order, with the base fingerprint supplied by the caller —
/// the hot-path form for serving shards, which hash their base models
/// once and only ever tune the tail. The tensors before `first_param`
/// are neither read nor encoded: the caller guarantees they equal the
/// base's. `fingerprint` must equal params_fingerprint(base).
ModelDelta delta_encode_with_fingerprint(const Sequential& base,
                                         std::uint64_t fingerprint,
                                         const Sequential& tuned,
                                         std::size_t first_param);

/// Sets every parameter tensor of `model` to base + dequant(delta):
/// tensors with a delta entry get base + q*scale, the rest are copied
/// from base. Throws on fingerprint/layout mismatch. `model` must share
/// the base's architecture (it is typically a copy of it).
void delta_apply(const Sequential& base, const ModelDelta& delta,
                 Sequential& model);

/// delta_apply over the parameter tensors [first_param, end) only, with
/// the base fingerprint supplied by the caller: the tensors before
/// `first_param` are left untouched. Runs delta_check first, so a delta
/// with an entry below `first_param` is rejected before anything is
/// written. `fingerprint` must equal params_fingerprint(base).
void delta_apply_with_fingerprint(const Sequential& base,
                                  std::uint64_t fingerprint,
                                  const ModelDelta& delta, Sequential& model,
                                  std::size_t first_param);

/// Throws std::runtime_error unless `delta` applies to `base` over
/// [first_param, end): the identity always does; any other delta must
/// carry `fingerprint` and the base's parameter-tensor count, and its
/// entries must be in order, at or past `first_param` and as long as
/// the tensors they cover.
void delta_check(const Sequential& base, std::uint64_t fingerprint,
                 const ModelDelta& delta, std::size_t first_param);

std::string delta_to_string(const ModelDelta& delta);
ModelDelta delta_from_string(const std::string& blob);

/// Atomic save via util::write_file_atomic (tmp + rename, cleanup on
/// every error path) — same contract as save_model.
void save_delta_atomic(const ModelDelta& delta, const std::string& path);
ModelDelta load_delta(const std::string& path);

}  // namespace origin::nn
