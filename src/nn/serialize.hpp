// Binary (de)serialization of Sequential models — the model-zoo cache that
// lets every bench/example binary share one training run. Encoded with
// util::ByteWriter/ByteReader (util/bytes.hpp).
//
// Format (little-endian):
//   magic "ORGN", u32 version
//   u32 layer_count
//   per layer: string kind (u32 length + bytes), kind-specific i32/f32
//              config, param tensors (u64 element count + raw f32 data,
//              weight before bias)
#pragma once

#include <string>

#include "nn/model.hpp"

namespace origin::nn {

std::string model_to_string(const Sequential& model);

/// Throws std::runtime_error on malformed/truncated input, unknown kinds,
/// or layer dimensions whose parameters could not fit in the input.
Sequential model_from_string(const std::string& blob);

/// Atomic save via util::write_file_atomic: the model is serialized to
/// memory first, then staged through `<path>.tmp.<pid>` and renamed, so
/// concurrent readers never see a torn file and a failed write leaves
/// neither a corrupt `path` nor a stale temp file behind.
void save_model(const Sequential& model, const std::string& path);

/// model_from_string over the file's bytes; throws std::runtime_error when
/// the file is unreadable or malformed.
Sequential load_model(const std::string& path);

}  // namespace origin::nn
