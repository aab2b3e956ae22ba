// Deterministic pseudo-random number generation for all stochastic
// components. Every simulator/ generator takes an explicit Rng (or seed) so
// experiments are reproducible bit-for-bit across runs and platforms.
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace origin::util {

/// xoshiro256** by Blackman & Vigna, seeded through splitmix64. Small,
/// fast, and with far better statistical quality than std::minstd. We
/// deliberately avoid std::mt19937 distributions because libstdc++ /
/// libc++ may produce different streams; this class is self-contained.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) { reseed(seed); }

  void reseed(std::uint64_t seed) {
    // splitmix64 expansion of the seed into the 256-bit state.
    std::uint64_t x = seed;
    for (auto& s : state_) {
      x += 0x9e3779b97f4a7c15ULL;
      std::uint64_t z = x;
      z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
      z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
      s = z ^ (z >> 31);
    }
    has_gauss_ = false;
  }

  /// Uniform 64-bit integer.
  std::uint64_t next_u64() {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1).
  double uniform() { return static_cast<double>(next_u64() >> 11) * 0x1.0p-53; }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

  /// Uniform integer in [0, n). n must be > 0.
  std::uint64_t below(std::uint64_t n) {
    // Lemire's nearly-divisionless method would be overkill; modulo bias is
    // negligible for the small n used here, but we still use rejection.
    const std::uint64_t threshold = (~n + 1) % n;  // (2^64 - n) mod n
    for (;;) {
      const std::uint64_t r = next_u64();
      if (r >= threshold) return r % n;
    }
  }

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) {
    return lo + static_cast<std::int64_t>(below(static_cast<std::uint64_t>(hi - lo + 1)));
  }

  bool bernoulli(double p) { return uniform() < p; }

  /// Standard normal via Marsaglia polar method (cached second value).
  /// Calls libm's std::log. Window synthesis draws its Gaussians from
  /// keyed fills instead (nn::kernels::gauss_fill, below).
  double gauss() {
    if (has_gauss_) {
      has_gauss_ = false;
      return cached_gauss_;
    }
    double u, v, s;
    do {
      u = uniform(-1.0, 1.0);
      v = uniform(-1.0, 1.0);
      s = u * u + v * v;
    } while (s >= 1.0 || s == 0.0);
    const double m = std::sqrt(-2.0 * std::log(s) / s);
    cached_gauss_ = v * m;
    has_gauss_ = true;
    return u * m;
  }

  double gauss(double mean, double stddev) { return mean + stddev * gauss(); }

  /// Exponential with the given mean (= 1/rate).
  double exponential(double mean) {
    double u;
    do { u = uniform(); } while (u <= 0.0);
    return -mean * std::log(u);
  }

  /// Lognormal parameterized by the mean/stddev of the underlying normal.
  double lognormal(double mu, double sigma) { return std::exp(gauss(mu, sigma)); }

  /// Sample an index from a discrete distribution given non-negative
  /// weights (need not be normalized). Returns weights.size()-1 on
  /// accumulated round-off. Empty weights are a caller bug.
  std::size_t categorical(std::span<const double> weights) {
    double total = 0.0;
    for (double w : weights) total += w;
    double r = uniform() * total;
    for (std::size_t i = 0; i + 1 < weights.size(); ++i) {
      r -= weights[i];
      if (r < 0.0) return i;
    }
    return weights.empty() ? 0 : weights.size() - 1;
  }

  /// Derive an independent child stream (for per-node / per-sensor rngs).
  Rng fork() { return Rng(next_u64()); }

  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::size_t j = below(i);
      using std::swap;
      swap(v[i - 1], v[j]);
    }
  }

 private:
  static std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t state_[4] = {};
  bool has_gauss_ = false;
  double cached_gauss_ = 0.0;
};

// --- Keyed draws ---------------------------------------------------------
// Randomness addressed by a 64-bit key instead of drawn from a sequential
// stream: a value is a pure function of (key, index), so whatever nobody
// reads costs nothing and anything can be read in any order. Window
// synthesis keys each window by (stream seed, slot, sensor); see
// data::StreamCursor and nn::kernels::gauss_fill.

/// splitmix64's finalizer: a bijective 64-bit mix with full avalanche.
inline std::uint64_t mix64(std::uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// The key of child `index` of `parent` (a slot of a stream, a sensor of
/// a slot): adjacent indices give unrelated keys.
inline std::uint64_t derive_key(std::uint64_t parent, std::uint64_t index) {
  return mix64(mix64(parent) + (index + 1) * 0x9e3779b97f4a7c15ULL);
}

/// A uniform double in [0, 1) that is a function of `key` alone.
inline double key_uniform(std::uint64_t key) {
  return static_cast<double>(mix64(key) >> 11) * 0x1.0p-53;
}

/// Chris Wellons' lowbias32 integer hash (bijective on 32 bits).
inline std::uint32_t lowbias32(std::uint32_t x) {
  x ^= x >> 16;
  x *= 0x7feb352dU;
  x ^= x >> 15;
  x *= 0x846ca68bU;
  x ^= x >> 16;
  return x;
}

/// Word `counter` of `key`'s counter-hash stream: two lowbias32 rounds,
/// keyed by the key's low and high halves. 32-bit lanes, so the AVX2 fill
/// hashes eight words per vector.
inline std::uint32_t keyed_word(std::uint64_t key, std::uint32_t counter) {
  const auto lo = static_cast<std::uint32_t>(key);
  const auto hi = static_cast<std::uint32_t>(key >> 32);
  return lowbias32(lowbias32(counter ^ lo) ^ hi);
}

}  // namespace origin::util
