#include "nn/delta.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <string>

#include "util/bytes.hpp"
#include "util/fileio.hpp"

namespace origin::nn {

namespace {

constexpr char kMagic[8] = {'O', 'R', 'G', 'N', 'D', 'E', 'L', 'T'};
constexpr std::uint32_t kVersion = 1;

std::vector<Tensor*> params_of(const Sequential& model) {
  // params() is non-const by design (callers usually mutate); reading
  // through it is the established idiom (see Layer::param_count).
  return const_cast<Sequential&>(model).params();
}

/// Smallest power of two `s` with max_abs <= 32767 * s. Power-of-two
/// scales keep q * scale exact (outside the subnormal range), which is
/// what makes apply-then-encode a projection.
float pow2_scale(float max_abs) {
  int exp = 0;
  std::frexp(max_abs / 32767.0f, &exp);  // max_abs/32767 = m * 2^exp, m<1
  return std::ldexp(1.0f, exp);
}

/// delta_check on the base's parameter list (apply has it already).
void check_against(const std::vector<Tensor*>& bp, std::uint64_t fingerprint,
                   const ModelDelta& delta, std::size_t first_param) {
  if (first_param > bp.size()) {
    throw std::runtime_error("delta_apply: parameter range out of bounds");
  }
  // A default-constructed delta is the identity: restore plain base.
  if (delta.base_param_tensors == 0 && delta.entries.empty()) return;
  if (delta.base_param_tensors != static_cast<std::uint32_t>(bp.size())) {
    throw std::runtime_error("delta_apply: parameter layout mismatch");
  }
  if (delta.base_fingerprint != fingerprint) {
    throw std::runtime_error("delta_apply: delta was taken against a "
                             "different base model");
  }
  std::size_t previous = 0;
  for (std::size_t e = 0; e < delta.entries.size(); ++e) {
    const TensorDelta& entry = delta.entries[e];
    if (entry.param_index >= bp.size() ||
        (e > 0 && entry.param_index <= previous)) {
      throw std::runtime_error("delta_apply: entries out of order or out of "
                               "range");
    }
    previous = entry.param_index;
    if (entry.param_index < first_param) {
      throw std::runtime_error("delta_apply: entry for parameter tensor " +
                               std::to_string(entry.param_index) +
                               " lies below the applied range, which starts "
                               "at " + std::to_string(first_param));
    }
    if (entry.q.size() != bp[entry.param_index]->size()) {
      throw std::runtime_error("delta_apply: entry size mismatch");
    }
  }
}

}  // namespace

std::uint64_t params_fingerprint(const Sequential& model) {
  std::uint64_t h = 1469598103934665603ULL;  // FNV-1a offset basis
  for (const Tensor* p : params_of(model)) {
    const auto* bytes = reinterpret_cast<const unsigned char*>(p->data());
    for (std::size_t i = 0; i < p->size() * sizeof(float); ++i) {
      h = (h ^ bytes[i]) * 1099511628211ULL;
    }
  }
  return h;
}

ModelDelta delta_encode(const Sequential& base, const Sequential& tuned) {
  return delta_encode_with_fingerprint(base, params_fingerprint(base), tuned,
                                       0);
}

ModelDelta delta_encode_with_fingerprint(const Sequential& base,
                                         std::uint64_t fingerprint,
                                         const Sequential& tuned,
                                         std::size_t first_param) {
  const std::vector<Tensor*> bp = params_of(base);
  const std::vector<Tensor*> tp = params_of(tuned);
  if (bp.size() != tp.size() || first_param > bp.size()) {
    throw std::runtime_error("delta_encode: parameter layout mismatch");
  }
  ModelDelta delta;
  delta.base_fingerprint = fingerprint;
  delta.base_param_tensors = static_cast<std::uint32_t>(bp.size());
  for (std::size_t i = first_param; i < bp.size(); ++i) {
    if (bp[i]->size() != tp[i]->size()) {
      throw std::runtime_error("delta_encode: tensor size mismatch");
    }
    const float* b = bp[i]->data();
    const float* t = tp[i]->data();
    float max_abs = 0.0f;
    for (std::size_t k = 0; k < bp[i]->size(); ++k) {
      max_abs = std::max(max_abs, std::fabs(t[k] - b[k]));
    }
    if (max_abs == 0.0f) continue;
    TensorDelta entry;
    entry.param_index = static_cast<std::uint32_t>(i);
    entry.scale = pow2_scale(max_abs);
    entry.q.resize(bp[i]->size());
    for (std::size_t k = 0; k < bp[i]->size(); ++k) {
      const float q = std::nearbyint((t[k] - b[k]) / entry.scale);
      entry.q[k] = static_cast<std::int16_t>(
          std::min(32767.0f, std::max(-32767.0f, q)));
    }
    delta.entries.push_back(std::move(entry));
  }
  return delta;
}

void delta_apply(const Sequential& base, const ModelDelta& delta,
                 Sequential& model) {
  delta_apply_with_fingerprint(base, params_fingerprint(base), delta, model,
                               0);
}

void delta_check(const Sequential& base, std::uint64_t fingerprint,
                 const ModelDelta& delta, std::size_t first_param) {
  check_against(params_of(base), fingerprint, delta, first_param);
}

void delta_apply_with_fingerprint(const Sequential& base,
                                  std::uint64_t fingerprint,
                                  const ModelDelta& delta, Sequential& model,
                                  std::size_t first_param) {
  const std::vector<Tensor*> bp = params_of(base);
  const std::vector<Tensor*> mp = model.params();
  if (bp.size() != mp.size()) {
    throw std::runtime_error("delta_apply: parameter layout mismatch");
  }
  check_against(bp, fingerprint, delta, first_param);
  std::size_t next_entry = 0;
  for (std::size_t i = first_param; i < bp.size(); ++i) {
    if (bp[i]->size() != mp[i]->size()) {
      throw std::runtime_error("delta_apply: tensor size mismatch");
    }
    const float* b = bp[i]->data();
    float* m = mp[i]->data();
    const TensorDelta* entry = nullptr;
    if (next_entry < delta.entries.size() &&
        delta.entries[next_entry].param_index == i) {
      entry = &delta.entries[next_entry++];
    }
    for (std::size_t k = 0; k < bp[i]->size(); ++k) {
      m[k] = entry ? b[k] + static_cast<float>(entry->q[k]) * entry->scale
                   : b[k];
    }
  }
}

std::string delta_to_string(const ModelDelta& delta) {
  util::ByteWriter w;
  w.raw(kMagic, sizeof kMagic);
  w.u32(kVersion);
  w.u64(delta.base_fingerprint);
  w.u32(delta.base_param_tensors);
  w.u32(static_cast<std::uint32_t>(delta.entries.size()));
  for (const TensorDelta& entry : delta.entries) {
    w.u32(entry.param_index);
    w.f32(entry.scale);
    w.u64(entry.q.size());
    for (std::int16_t q : entry.q) w.i16(q);
  }
  return w.bytes();
}

ModelDelta delta_from_string(const std::string& blob) {
  util::ByteReader r(blob, "delta");
  if (std::memcmp(r.take(sizeof kMagic), kMagic, sizeof kMagic) != 0) {
    throw std::runtime_error("delta: bad magic (not a model delta)");
  }
  const std::uint32_t version = r.u32();
  if (version != kVersion) {
    throw std::runtime_error("delta: unsupported version " +
                             std::to_string(version));
  }
  ModelDelta delta;
  delta.base_fingerprint = r.u64();
  delta.base_param_tensors = r.u32();
  const std::uint32_t entries = r.u32();
  if (entries > delta.base_param_tensors) {
    throw std::runtime_error("delta: implausible entry count");
  }
  std::uint32_t previous_index = 0;
  for (std::uint32_t e = 0; e < entries; ++e) {
    TensorDelta entry;
    entry.param_index = r.u32();
    if (entry.param_index >= delta.base_param_tensors ||
        (e > 0 && entry.param_index <= previous_index)) {
      throw std::runtime_error("delta: entries out of order");
    }
    previous_index = entry.param_index;
    entry.scale = r.f32();
    entry.q.resize(r.length(r.u64(), sizeof(std::int16_t)));
    for (std::int16_t& q : entry.q) q = r.i16();
    delta.entries.push_back(std::move(entry));
  }
  if (!r.exhausted()) throw std::runtime_error("delta: trailing bytes");
  return delta;
}

void save_delta_atomic(const ModelDelta& delta, const std::string& path) {
  util::write_file_atomic(path, delta_to_string(delta));
}

ModelDelta load_delta(const std::string& path) {
  return delta_from_string(util::read_file(path));
}

}  // namespace origin::nn
