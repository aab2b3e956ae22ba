// Binary codec primitives for ServeLoop snapshots (implementation of
// ServeLoop::save/restore lives in snapshot.cpp). Format: little-endian,
// versioned, with an explicit config fingerprint — a snapshot taken under
// one workload config refuses to load into another, while thread count
// and batching (which never affect results) are free to differ. Files are
// written atomically: `<path>.tmp.<pid>` then rename, like the model
// cache, so a crash mid-save never corrupts the previous snapshot.
#pragma once

#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>

#include "util/fileio.hpp"

namespace origin::serve {

inline constexpr char kSnapshotMagic[8] = {'O', 'R', 'G', 'N',
                                           'S', 'N', 'A', 'P'};
/// Version 2 added the inference word width (ServeConfig::bits) and the
/// active kernel backend name to the config fingerprint: both change the
/// served bits, so a snapshot refuses to load under a different one.
/// Version 3 added per-user personalization: the PersonalizeConfig fields
/// join the fingerprint (fine-tuning changes results), completed records
/// carry fine-tune aggregates, and active sessions store their sample
/// buffer plus per-sensor weight deltas so a restored fleet resumes
/// serving personalized models.
/// Version 4 added the cross-session batching stats (serve.batch_panels /
/// serve.batch_windows counters and the serve.batch_occupancy histogram
/// cell), carried wholesale so /status stays continuous across a restore
/// — unlike the deterministic metrics, they cannot be replayed from the
/// completed log. The serve_batch mode itself stays out of the
/// fingerprint (it never affects results).
/// Version 5 dropped the per-node precomputed-result record: an in-flight
/// NVP task carries only the window it began on.
inline constexpr std::uint32_t kSnapshotVersion = 5;

/// Append-only little-endian byte buffer.
class SnapshotWriter {
 public:
  void u8(std::uint8_t v) { buf_.push_back(static_cast<char>(v)); }
  void u32(std::uint32_t v) { le(v); }
  void u64(std::uint64_t v) { le(v); }
  void i32(std::int32_t v) { le(static_cast<std::uint32_t>(v)); }
  void f32(float v) {
    std::uint32_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    le(bits);
  }
  void f64(double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    le(bits);
  }
  void raw(const void* data, std::size_t n) {
    buf_.append(static_cast<const char*>(data), n);
  }

  const std::string& bytes() const { return buf_; }

 private:
  template <typename T>
  void le(T v) {
    for (std::size_t b = 0; b < sizeof(T); ++b) {
      buf_.push_back(static_cast<char>((v >> (8 * b)) & 0xFF));
    }
  }

  std::string buf_;
};

/// Bounds-checked reader over a snapshot's bytes; throws
/// std::runtime_error("snapshot truncated") past the end.
class SnapshotReader {
 public:
  explicit SnapshotReader(std::string bytes) : buf_(std::move(bytes)) {}

  std::uint8_t u8() { return static_cast<std::uint8_t>(take(1)[0]); }
  std::uint32_t u32() { return le<std::uint32_t>(); }
  std::uint64_t u64() { return le<std::uint64_t>(); }
  std::int32_t i32() { return static_cast<std::int32_t>(le<std::uint32_t>()); }
  float f32() {
    const std::uint32_t bits = le<std::uint32_t>();
    float v;
    std::memcpy(&v, &bits, sizeof v);
    return v;
  }
  double f64() {
    const std::uint64_t bits = le<std::uint64_t>();
    double v;
    std::memcpy(&v, &bits, sizeof v);
    return v;
  }
  const char* take(std::size_t n) {
    if (pos_ + n > buf_.size()) {
      throw std::runtime_error("snapshot truncated");
    }
    const char* p = buf_.data() + pos_;
    pos_ += n;
    return p;
  }
  bool exhausted() const { return pos_ == buf_.size(); }

 private:
  template <typename T>
  T le() {
    const char* p = take(sizeof(T));
    T v = 0;
    for (std::size_t b = 0; b < sizeof(T); ++b) {
      v |= static_cast<T>(static_cast<unsigned char>(p[b])) << (8 * b);
    }
    return v;
  }

  std::string buf_;
  std::size_t pos_ = 0;
};

/// Atomic file write / whole-file read — shared with the model cache and
/// the per-user delta store (see util/fileio.hpp for the contract).
using util::write_file_atomic;
using util::read_file;

}  // namespace origin::serve
