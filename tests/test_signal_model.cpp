#include "data/signal_model.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "util/stats.hpp"

namespace origin::data {
namespace {

class SignalModelTest : public ::testing::Test {
 protected:
  DatasetSpec spec = dataset_spec(DatasetKind::MHealthLike);
  SignalModel model{spec, reference_user()};
};

TEST_F(SignalModelTest, WindowShape) {
  const auto w =
      model.window(Activity::Walking, SensorLocation::Chest, 0.0, 1, SharedStyle{});
  EXPECT_EQ(w.shape(), (std::vector<int>{6, 64}));
}

TEST_F(SignalModelTest, DeterministicGivenRngAndStyle) {
  const SharedStyle style;
  const auto wa = model.window(Activity::Running, SensorLocation::LeftAnkle, 1.0, 2, style);
  const auto wb = model.window(Activity::Running, SensorLocation::LeftAnkle, 1.0, 2, style);
  for (std::size_t i = 0; i < wa.size(); ++i) ASSERT_FLOAT_EQ(wa[i], wb[i]);
}

TEST_F(SignalModelTest, DifferentWindowsDiffer) {
  const SharedStyle style;
  const auto w1 = model.window(Activity::Walking, SensorLocation::Chest, 0.0, 3, style);
  const auto w2 = model.window(Activity::Walking, SensorLocation::Chest, 0.0, 4, style);
  double diff = 0.0;
  for (std::size_t i = 0; i < w1.size(); ++i) diff += std::fabs(w1[i] - w2[i]);
  EXPECT_GT(diff, 1.0);
}

TEST(Signature, StableAcrossCalls) {
  const auto a = signature(Activity::Cycling, SensorLocation::RightWrist);
  const auto b = signature(Activity::Cycling, SensorLocation::RightWrist);
  EXPECT_DOUBLE_EQ(a.fundamental_hz, b.fundamental_hz);
  for (int c = 0; c < kImuChannels; ++c) {
    EXPECT_DOUBLE_EQ(a.amp1[static_cast<std::size_t>(c)],
                     b.amp1[static_cast<std::size_t>(c)]);
  }
}

TEST(Signature, DistinctPerActivityAndLocation) {
  const auto a = signature(Activity::Walking, SensorLocation::Chest);
  const auto b = signature(Activity::Running, SensorLocation::Chest);
  const auto c = signature(Activity::Walking, SensorLocation::LeftAnkle);
  EXPECT_NE(a.fundamental_hz, b.fundamental_hz);
  EXPECT_NE(a.amp1[0], c.amp1[0]);
}

TEST(Distinctiveness, InUnitInterval) {
  for (int a = 0; a < kNumActivityKinds; ++a) {
    for (int s = 0; s < kNumSensors; ++s) {
      const double d = distinctiveness(static_cast<Activity>(a),
                                       static_cast<SensorLocation>(s));
      EXPECT_GT(d, 0.0);
      EXPECT_LE(d, 1.0);
    }
  }
}

TEST(Distinctiveness, AnkleBestOverallChestBestForClimbing) {
  // The Fig. 2 structure the scheduler exploits.
  double chest = 0, ankle = 0, wrist = 0;
  for (int a = 0; a < kNumActivityKinds; ++a) {
    chest += distinctiveness(static_cast<Activity>(a), SensorLocation::Chest);
    ankle += distinctiveness(static_cast<Activity>(a), SensorLocation::LeftAnkle);
    wrist += distinctiveness(static_cast<Activity>(a), SensorLocation::RightWrist);
  }
  EXPECT_GT(ankle, chest);
  EXPECT_GT(chest, wrist);
  EXPECT_GT(distinctiveness(Activity::Climbing, SensorLocation::Chest),
            distinctiveness(Activity::Climbing, SensorLocation::LeftAnkle));
}

TEST(ConfusableNeighbor, NeverSelf) {
  for (int a = 0; a < kNumActivityKinds; ++a) {
    for (int s = 0; s < kNumSensors; ++s) {
      EXPECT_NE(confusable_neighbor(static_cast<Activity>(a),
                                    static_cast<SensorLocation>(s)),
                static_cast<Activity>(a));
    }
  }
}

TEST(ConfusableNeighbor, LocationDependent) {
  // Decorrelated error directions across sensors (§DESIGN): at least one
  // activity must have different confusion targets at different locations.
  bool differs = false;
  for (int a = 0; a < kNumActivityKinds; ++a) {
    const auto act = static_cast<Activity>(a);
    if (confusable_neighbor(act, SensorLocation::Chest) !=
        confusable_neighbor(act, SensorLocation::LeftAnkle)) {
      differs = true;
    }
  }
  EXPECT_TRUE(differs);
}

TEST(NoiseSigma, WristNoisiest) {
  EXPECT_GT(noise_sigma(SensorLocation::RightWrist),
            noise_sigma(SensorLocation::Chest));
  EXPECT_GT(noise_sigma(SensorLocation::Chest),
            noise_sigma(SensorLocation::LeftAnkle));
}

TEST(SharedStyle, DrawRespectsAmbiguityProbability) {
  const auto spec = dataset_spec(DatasetKind::MHealthLike);
  util::Rng rng(5);
  int ambiguous = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    if (draw_shared_style(spec, Activity::Jogging, rng, 0.25).ambiguous_with) {
      ++ambiguous;
    }
  }
  EXPECT_NEAR(ambiguous / static_cast<double>(n), 0.25, 0.02);
}

TEST(SharedStyle, AmbiguousPartnerNeverSelf) {
  const auto spec = dataset_spec(DatasetKind::MHealthLike);
  util::Rng rng(6);
  for (int i = 0; i < 2000; ++i) {
    const auto s = draw_shared_style(spec, Activity::Cycling, rng, 1.0);
    ASSERT_TRUE(s.ambiguous_with.has_value());
    EXPECT_NE(*s.ambiguous_with, Activity::Cycling);
    EXPECT_GT(s.ambiguity_mix, 0.0);
    EXPECT_LT(s.ambiguity_mix, 1.0);
  }
  // One weight slot per activity kind: a repeated activity is refused.
  auto repeated = spec;
  repeated.activities.push_back(Activity::Walking);
  EXPECT_THROW(draw_shared_style(repeated, Activity::Cycling, rng, 1.0),
               std::invalid_argument);
}

TEST_F(SignalModelTest, SharedStyleCorrelatesAcrossSensors) {
  // With the same deep-ambiguity style, all sensors' windows shift; with a
  // clean style they stay near the clean prototype. Compare chest windows
  // under the two styles.
  SharedStyle clean;
  SharedStyle shuffled = clean;
  shuffled.ambiguous_with = Activity::Running;
  shuffled.ambiguity_mix = 0.6;
  const auto w_clean = model.window(Activity::Jogging, SensorLocation::Chest, 0.0, 7, clean);
  const auto w_amb = model.window(Activity::Jogging, SensorLocation::Chest, 0.0, 7, shuffled);
  double diff = 0.0;
  for (std::size_t i = 0; i < w_clean.size(); ++i) {
    diff += std::fabs(w_clean[i] - w_amb[i]);
  }
  EXPECT_GT(diff / static_cast<double>(w_clean.size()), 0.05);
}

TEST_F(SignalModelTest, UserAmplitudeScaleChangesMagnitude) {
  UserProfile strong = reference_user();
  strong.name = "strong";
  strong.amp_scale = 2.0;
  const SignalModel strong_model(spec, strong);
  SharedStyle style;
  const auto w1 = model.window(Activity::Running, SensorLocation::LeftAnkle, 0.0, 8, style);
  const auto w2 = strong_model.window(Activity::Running, SensorLocation::LeftAnkle, 0.0, 8, style);
  // Compare AC energy.
  auto ac_power = [](const nn::Tensor& w) {
    double mean = 0.0;
    for (std::size_t i = 0; i < w.size(); ++i) mean += w[i];
    mean /= static_cast<double>(w.size());
    double p = 0.0;
    for (std::size_t i = 0; i < w.size(); ++i) p += (w[i] - mean) * (w[i] - mean);
    return p;
  };
  EXPECT_GT(ac_power(w2), 1.5 * ac_power(w1));
}

TEST(UserProfile, RandomUsersVaryButBounded) {
  util::Rng rng(9);
  for (int i = 0; i < 50; ++i) {
    const auto u = random_user(i, rng);
    EXPECT_GE(u.freq_scale, 0.75);
    EXPECT_LE(u.freq_scale, 1.25);
    EXPECT_GE(u.amp_scale, 0.6);
    EXPECT_LE(u.amp_scale, 1.4);
    EXPECT_GE(u.noise_scale, 0.8);
    EXPECT_LE(u.noise_scale, 1.6);
    EXPECT_EQ(u.name, "user" + std::to_string(i));
  }
}

TEST(SignalModel, RejectsWrongChannelCount) {
  auto spec = dataset_spec(DatasetKind::MHealthLike);
  spec.channels = 4;
  EXPECT_THROW(SignalModel(spec, reference_user()), std::invalid_argument);
}

}  // namespace
}  // namespace origin::data
