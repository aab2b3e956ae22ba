// Deterministic pseudo-random number generation for all stochastic
// components. Every simulator/ generator takes an explicit Rng (or seed) so
// experiments are reproducible bit-for-bit across runs and platforms.
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <optional>
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
  std::uint64_t next_u64() { return step(state_); }

  /// Writes the next `n` next_u64() outputs to `out`, leaving the state
  /// where n next_u64() calls would. The state lives in a local copy,
  /// which `out` cannot alias, so the serial chain stays in registers: the
  /// word source of the block polar draws (data::skip_gauss /
  /// data::fill_gauss).
  void fill_u64(std::uint64_t* out, std::size_t n) {
    std::uint64_t s[4] = {state_[0], state_[1], state_[2], state_[3]};
    for (std::size_t i = 0; i < n; ++i) out[i] = step(s);
    for (int k = 0; k < 4; ++k) state_[k] = s[k];
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
  /// A pair's draw count depends only on the rejection test, which is
  /// what lets data::skip_gauss / data::fill_gauss reproduce this loop's
  /// state and values from bulk words; this per-call form is their oracle.
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

  /// gauss()'s cached second value, consumed: the value the next gauss()
  /// would return without drawing, or nullopt when it would draw a pair.
  std::optional<double> take_cached_gauss() {
    if (!has_gauss_) return std::nullopt;
    has_gauss_ = false;
    return cached_gauss_;
  }

  /// Makes `g` the value the next gauss() returns, as gauss() does with
  /// the second value of a polar pair.
  void set_cached_gauss(double g) {
    cached_gauss_ = g;
    has_gauss_ = true;
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

  /// One xoshiro256** step of the state `s`; returns its output word.
  static std::uint64_t step(std::uint64_t* s) {
    const std::uint64_t result = rotl(s[1] * 5, 7) * 9;
    const std::uint64_t t = s[1] << 17;
    s[2] ^= s[0];
    s[3] ^= s[1];
    s[1] ^= s[2];
    s[0] ^= s[3];
    s[2] ^= t;
    s[3] = rotl(s[3], 45);
    return result;
  }

  std::uint64_t state_[4] = {};
  bool has_gauss_ = false;
  double cached_gauss_ = 0.0;
};

}  // namespace origin::util
