#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <set>
#include <vector>

namespace origin::util {
namespace {

TEST(Rng, SameSeedSameStream) {
  Rng a(42), b(42);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, ReseedRestartsStream) {
  Rng a(7);
  const auto first = a.next_u64();
  a.next_u64();
  a.reseed(7);
  EXPECT_EQ(a.next_u64(), first);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(3);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng rng(4);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform(-2.5, 7.25);
    ASSERT_GE(u, -2.5);
    ASSERT_LT(u, 7.25);
  }
}

TEST(Rng, UniformMeanNearHalf) {
  Rng rng(5);
  double sum = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) sum += rng.uniform();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, BelowStaysBelow) {
  Rng rng(6);
  for (int i = 0; i < 10000; ++i) {
    ASSERT_LT(rng.below(17), 17u);
  }
}

TEST(Rng, BelowCoversAllValues) {
  Rng rng(7);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.below(5));
  EXPECT_EQ(seen.size(), 5u);
}

TEST(Rng, UniformIntInclusiveBounds) {
  Rng rng(8);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.uniform_int(-3, 3);
    ASSERT_GE(v, -3);
    ASSERT_LE(v, 3);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, GaussMomentsMatchStandardNormal) {
  Rng rng(9);
  const int n = 200000;
  double sum = 0.0, sq = 0.0;
  for (int i = 0; i < n; ++i) {
    const double g = rng.gauss();
    sum += g;
    sq += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sq / n, 1.0, 0.03);
}

TEST(Rng, GaussShiftScale) {
  Rng rng(10);
  const int n = 100000;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) sum += rng.gauss(5.0, 2.0);
  EXPECT_NEAR(sum / n, 5.0, 0.05);
}

TEST(Rng, ExponentialMean) {
  Rng rng(11);
  const int n = 200000;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) sum += rng.exponential(3.0);
  EXPECT_NEAR(sum / n, 3.0, 0.05);
}

TEST(Rng, ExponentialNonNegative) {
  Rng rng(12);
  for (int i = 0; i < 10000; ++i) {
    ASSERT_GE(rng.exponential(0.5), 0.0);
  }
}

TEST(Rng, LognormalMedianNearExpMu) {
  Rng rng(13);
  std::vector<double> v(50001);
  for (auto& x : v) x = rng.lognormal(std::log(4.0), 0.5);
  std::nth_element(v.begin(), v.begin() + 25000, v.end());
  EXPECT_NEAR(v[25000], 4.0, 0.15);
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(14);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    if (rng.bernoulli(0.3)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, CategoricalZeroWeightNeverPicked) {
  Rng rng(15);
  for (int i = 0; i < 5000; ++i) {
    const auto idx = rng.categorical(std::array{0.0, 1.0, 2.0, 0.0});
    ASSERT_TRUE(idx == 1 || idx == 2);
  }
}

TEST(Rng, CategoricalProportions) {
  Rng rng(16);
  std::vector<int> counts(3, 0);
  const int n = 90000;
  for (int i = 0; i < n; ++i) {
    ++counts[rng.categorical(std::array{1.0, 2.0, 3.0})];
  }
  EXPECT_NEAR(counts[0] / static_cast<double>(n), 1.0 / 6.0, 0.01);
  EXPECT_NEAR(counts[1] / static_cast<double>(n), 2.0 / 6.0, 0.01);
  EXPECT_NEAR(counts[2] / static_cast<double>(n), 3.0 / 6.0, 0.01);
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(17);
  std::vector<int> v(100);
  for (int i = 0; i < 100; ++i) v[static_cast<std::size_t>(i)] = i;
  auto w = v;
  rng.shuffle(w);
  EXPECT_NE(v, w);  // astronomically unlikely to be identity
  std::sort(w.begin(), w.end());
  EXPECT_EQ(v, w);
}

TEST(Rng, ForkIndependentOfParentContinuation) {
  Rng parent(18);
  Rng child = parent.fork();
  const auto c1 = child.next_u64();
  // Recreate: fork from same seed yields same child stream.
  Rng parent2(18);
  Rng child2 = parent2.fork();
  EXPECT_EQ(child2.next_u64(), c1);
}

TEST(Rng, CachedGaussRoundTrips) {
  // gauss() draws a polar pair, returns its first value and caches the
  // second for the next call, which draws nothing.
  Rng rng(78), oracle(78);
  double u, v, s;
  do {
    u = oracle.uniform(-1.0, 1.0);
    v = oracle.uniform(-1.0, 1.0);
    s = u * u + v * v;
  } while (s >= 1.0 || s == 0.0);
  const double m = std::sqrt(-2.0 * std::log(s) / s);
  EXPECT_EQ(rng.gauss(), u * m);
  EXPECT_EQ(rng.gauss(), v * m);
  EXPECT_EQ(rng.next_u64(), oracle.next_u64());
}

TEST(Rng, GaussCacheDoesNotBreakDeterminism) {
  Rng a(19), b(19);
  for (int i = 0; i < 100; ++i) {
    ASSERT_DOUBLE_EQ(a.gauss(), b.gauss());
  }
}

}  // namespace
}  // namespace origin::util
