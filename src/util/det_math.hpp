// Deterministic, self-contained transcendental kernels for the data path.
//
// The synthetic-data generators must be reproducible bit-for-bit across
// runs *and platforms* (the same contract util::Rng documents). libm's
// sin() and log() break that: glibc, musl and Apple's libm round the last
// ulp differently and change between versions (glibc even picks its
// variant per CPU), so every window — and hence every downstream accuracy
// number — would silently depend on the host's libm. det_sin() and
// det_log() (the Box–Muller radius of the keyed noise fill) remove that
// dependency. det_sin() is a branchless Cody–Waite reduction plus odd
// Taylor polynomial built only from IEEE-754 +,-,* (which are exactly
// specified), so every platform computes the same bits. It is also ~3-5x
// faster than libm sin and autovectorizes (no branches, no integer
// pipeline), which is what the window-synthesis kernels in src/data are
// built on.
//
// Accuracy: |det_sin(x) - sin(x)| < 2e-11 over the supported range
// |x| <= 2^20 (the synthesis path never exceeds ~4e5 rad). Outside that
// range the n*PI products of the reduction lose exactness — callers with
// unbounded arguments must reduce first.
//
// Note on FP contraction: a compiler fusing a*b+c into an FMA would
// change these bits on FMA-capable targets. The data-path translation
// units are compiled with -ffp-contract=off (see src/CMakeLists.txt) so
// the kernel means the same thing everywhere; plain x86-64 never
// contracts, making x86-64 and ARM builds agree.
#pragma once

#include <bit>
#include <cstdint>

namespace origin::util {

/// sin(x) computed deterministically from IEEE-754 arithmetic only.
/// Valid for |x| <= 2^20; see file comment.
inline double det_sin(double x) {
  // Round-to-nearest integer via the 1.5*2^52 shift trick (exact for
  // |v| < 2^51, default rounding mode — nothing in this codebase touches
  // fesetround). Avoids int<->double conversions, which keeps the whole
  // function in the SIMD double pipeline under autovectorization.
  constexpr double kRoundMagic = 6755399441055744.0;  // 1.5 * 2^52
  constexpr double kInvPi = 0x1.45f306dc9c883p-2;
  // pi split into 30+30+53 mantissa bits: n*kPi1 and n*kPi2 are exact for
  // |n| < 2^23, so the reduced argument keeps ~2 ulp accuracy without
  // extended precision.
  constexpr double kPi1 = 0x1.921fb54400000p+1;
  constexpr double kPi2 = 0x1.0b4611a400000p-33;
  constexpr double kPi3 = 0x1.13198a2e03707p-64;
  // Taylor coefficients of sin around 0: (-1)^k / (2k+1)!. With |r| <=
  // pi/2 the x^17 truncation term is < 7e-12.
  constexpr double kS1 = -0x1.5555555555555p-3;
  constexpr double kS2 = 0x1.1111111111111p-7;
  constexpr double kS3 = -0x1.a01a01a01a01ap-13;
  constexpr double kS4 = 0x1.71de3a556c734p-19;
  constexpr double kS5 = -0x1.ae64567f544e4p-26;
  constexpr double kS6 = 0x1.6124613a86d09p-33;
  constexpr double kS7 = -0x1.ae7f3e733b81fp-41;

  // n = round(x / pi); r = x - n*pi in [-pi/2, pi/2].
  const double n = (x * kInvPi + kRoundMagic) - kRoundMagic;
  const double r = ((x - n * kPi1) - n * kPi2) - n * kPi3;

  // sign = (-1)^n, extracted branchlessly: n - 2*round(n/2) is exactly
  // -1, 0 or +1, so its square is the parity bit.
  const double parity = n - 2.0 * ((n * 0.5 + kRoundMagic) - kRoundMagic);
  const double sign = 1.0 - 2.0 * (parity * parity);

  const double r2 = r * r;
  double p = kS7;
  p = p * r2 + kS6;
  p = p * r2 + kS5;
  p = p * r2 + kS4;
  p = p * r2 + kS3;
  p = p * r2 + kS2;
  p = p * r2 + kS1;
  return sign * (r + r * (r2 * p));
}

/// log(x) computed deterministically from IEEE-754 +,-,*,/ and bit
/// operations only. Valid for positive, normal, finite x; relative error
/// below 4e-16 on (0, 1) (tests/test_data_golden.cpp).
///
/// x = 2^e * m with m in (sqrt(1/2), sqrt(2)], then
/// log(m) = 2 atanh(s) = 2 (s + s^3/3 + ... + s^19/19) with
/// s = (m - 1) / (m + 1), |s| < 0.172, so the next term is below 1e-17.
/// Every step is a correctly rounded operation on exact inputs, so the
/// AVX2 noise fill (nn/kernels/backend_avx2.cpp) reproduces it bit for bit.
inline constexpr double kDetLogSqrt2 = 0x1.6a09e667f3bcdp+0;
/// ln 2 split so e * kDetLogLn2Hi is exact for every exponent (fdlibm's).
inline constexpr double kDetLogLn2Hi = 0x1.62e42feep-1;
inline constexpr double kDetLogLn2Lo = 0x1.a39ef35793c76p-33;
/// The atanh series coefficients 1/19, 1/17, ..., 1/3, in Horner order.
inline constexpr double kDetLogAtanh[9] = {
    1.0 / 19.0, 1.0 / 17.0, 1.0 / 15.0, 1.0 / 13.0, 1.0 / 11.0,
    1.0 / 9.0,  1.0 / 7.0,  1.0 / 5.0,  1.0 / 3.0};

inline double det_log(double x) {
  const auto bits = std::bit_cast<std::uint64_t>(x);
  // The biased exponent as a double through the 2^52 shift: exact, and no
  // int -> double conversion (AVX2 has none for 64-bit lanes).
  const double biased =
      std::bit_cast<double>((bits >> 52) | 0x4330000000000000ULL) - 0x1.0p52;
  const double m1 = std::bit_cast<double>(
      (bits & 0x000FFFFFFFFFFFFFULL) | 0x3FF0000000000000ULL);  // [1, 2)
  const bool high = m1 > kDetLogSqrt2;
  const double m = high ? m1 * 0.5 : m1;
  const double e = biased - (high ? 1022.0 : 1023.0);

  const double s = (m - 1.0) / (m + 1.0);
  const double s2 = s * s;
  double p = kDetLogAtanh[0];
  for (int k = 1; k < 9; ++k) p = p * s2 + kDetLogAtanh[k];
  const double t = 2.0 * s;
  const double log_m = t + t * (s2 * p);
  return e * kDetLogLn2Hi + (e * kDetLogLn2Lo + log_m);
}

}  // namespace origin::util
