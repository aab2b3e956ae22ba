// The one binary codec under every persisted format: the model cache
// (nn/serialize.hpp), per-user fine-tune deltas (nn/delta.hpp) and serve
// snapshots (serve/snapshot.hpp). Values are little-endian by
// construction, whatever the host. The reader is bounds-checked: reading
// past the end, or a length prefix that claims more elements than the
// bytes left can hold, throws std::runtime_error before anything is
// allocated.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <string_view>

namespace origin::util {

/// Append-only little-endian byte buffer.
class ByteWriter {
 public:
  void u8(std::uint8_t v) { buf_.push_back(static_cast<char>(v)); }
  void i16(std::int16_t v) { le(static_cast<std::uint16_t>(v)); }
  void u32(std::uint32_t v) { le(v); }
  void u64(std::uint64_t v) { le(v); }
  void i32(std::int32_t v) { le(static_cast<std::uint32_t>(v)); }
  void f32(float v) { le(std::bit_cast<std::uint32_t>(v)); }
  void f64(double v) { le(std::bit_cast<std::uint64_t>(v)); }
  void raw(const void* data, std::size_t n) {
    buf_.append(static_cast<const char*>(data), n);
  }
  /// u32 length, then the bytes.
  void str(std::string_view s) {
    u32(static_cast<std::uint32_t>(s.size()));
    raw(s.data(), s.size());
  }
  /// `n` floats with no prefix; one copy on little-endian hosts.
  void f32s(const float* v, std::size_t n) {
    if constexpr (std::endian::native == std::endian::little) {
      raw(v, n * sizeof(float));
    } else {
      for (std::size_t i = 0; i < n; ++i) f32(v[i]);
    }
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

/// Bounds-checked reader over bytes the caller keeps alive. `what` names
/// the format in error messages ("<what>: truncated").
class ByteReader {
 public:
  ByteReader(std::string_view bytes, const char* what)
      : buf_(bytes), what_(what) {}

  std::uint8_t u8() { return static_cast<std::uint8_t>(take(1)[0]); }
  std::int16_t i16() { return static_cast<std::int16_t>(le<std::uint16_t>()); }
  std::uint32_t u32() { return le<std::uint32_t>(); }
  std::uint64_t u64() { return le<std::uint64_t>(); }
  std::int32_t i32() { return static_cast<std::int32_t>(le<std::uint32_t>()); }
  float f32() { return std::bit_cast<float>(le<std::uint32_t>()); }
  double f64() { return std::bit_cast<double>(le<std::uint64_t>()); }
  std::string str() {
    const std::size_t n = length(u32());
    return std::string(take(n), n);
  }
  /// `n` floats with no prefix into `out`; one copy on little-endian hosts.
  void f32s(float* out, std::size_t n) {
    length(n, sizeof(float));
    if constexpr (std::endian::native == std::endian::little) {
      if (n > 0) std::memcpy(out, take(n * sizeof(float)), n * sizeof(float));
    } else {
      for (std::size_t i = 0; i < n; ++i) out[i] = f32();
    }
  }
  const char* take(std::size_t n) {
    if (n > remaining()) fail("truncated");
    const char* p = buf_.data() + pos_;
    pos_ += n;
    return p;
  }

  /// Validates a length prefix read from the input: returns `n` when `n`
  /// elements of `elem_bytes` each fit in the bytes left, throws
  /// otherwise. Call it before sizing a container from the prefix.
  std::size_t length(std::uint64_t n, std::size_t elem_bytes = 1) const {
    if (n > remaining() / elem_bytes) fail("length prefix exceeds the input");
    return static_cast<std::size_t>(n);
  }

  std::size_t remaining() const { return buf_.size() - pos_; }
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

  [[noreturn]] void fail(const char* why) const {
    throw std::runtime_error(std::string(what_) + ": " + why);
  }

  std::string_view buf_;
  const char* what_;
  std::size_t pos_ = 0;
};

}  // namespace origin::util
