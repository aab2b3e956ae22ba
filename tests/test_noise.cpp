#include "data/noise.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "util/rng.hpp"

namespace origin::data {
namespace {

nn::Tensor sine_window() {
  nn::Tensor t({2, 64});
  for (int c = 0; c < 2; ++c) {
    for (int i = 0; i < 64; ++i) {
      t.at(c, i) = static_cast<float>(std::sin(0.3 * i + c));
    }
  }
  return t;
}

TEST(Noise, AchievesRequestedSnr) {
  util::Rng rng(1);
  for (double target : {0.0, 10.0, 20.0, 30.0}) {
    // Average measured SNR over several trials (single draws fluctuate).
    double sum = 0.0;
    const int trials = 30;
    for (int t = 0; t < trials; ++t) {
      const nn::Tensor clean = sine_window();
      nn::Tensor noisy = clean;
      add_gaussian_noise_snr(noisy, target, rng.next_u64());
      sum += measure_snr_db(clean, noisy);
    }
    EXPECT_NEAR(sum / trials, target, 1.5) << "target " << target << " dB";
  }
}

TEST(Noise, HigherSnrMeansLessDistortion) {
  util::Rng rng(2);
  nn::Tensor clean = sine_window();
  nn::Tensor low = clean, high = clean;
  add_gaussian_noise_snr(low, 5.0, rng.next_u64());
  add_gaussian_noise_snr(high, 30.0, rng.next_u64());
  double dl = 0.0, dh = 0.0;
  for (std::size_t i = 0; i < clean.size(); ++i) {
    dl += std::fabs(low[i] - clean[i]);
    dh += std::fabs(high[i] - clean[i]);
  }
  EXPECT_GT(dl, dh);
}

TEST(Noise, SilentWindowUntouched) {
  util::Rng rng(3);
  nn::Tensor silent({2, 8});
  add_gaussian_noise_snr(silent, 20.0, rng.next_u64());
  for (std::size_t i = 0; i < silent.size(); ++i) {
    EXPECT_FLOAT_EQ(silent[i], 0.0f);
  }
}

TEST(Noise, DcOnlyWindowUntouched) {
  // AC power is zero for a constant window; no noise should be added.
  util::Rng rng(4);
  nn::Tensor dc = nn::Tensor::full({2, 8}, 3.0f);
  add_gaussian_noise_snr(dc, 20.0, rng.next_u64());
  for (std::size_t i = 0; i < dc.size(); ++i) EXPECT_FLOAT_EQ(dc[i], 3.0f);
}

TEST(Noise, EmptyWindowNoop) {
  util::Rng rng(5);
  nn::Tensor empty;
  EXPECT_NO_THROW(add_gaussian_noise_snr(empty, 20.0, rng.next_u64()));
}

TEST(Noise, MeasureSnrShapeMismatchThrows) {
  EXPECT_THROW(measure_snr_db(nn::Tensor({2}), nn::Tensor({3})),
               std::invalid_argument);
}

TEST(Noise, MeasureSnrIdenticalIsHuge) {
  const nn::Tensor w = sine_window();
  EXPECT_GT(measure_snr_db(w, w), 1e6);
}

}  // namespace
}  // namespace origin::data
