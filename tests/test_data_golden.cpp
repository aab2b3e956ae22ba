// Bit-identity and golden-checksum pins for the data-path kernels.
//
// The fast synthesis path (SignalModel::synthesize_window and friends)
// must match the preserved oracle (synthesize_window_reference) bit for
// bit AND consume the RNG in the same order; the FNV-1a checksums below
// additionally pin the absolute output so a future edit to *both*
// implementations can't silently shift every downstream accuracy number.
// If a pinned value changes on purpose, regenerate the constants and say
// so loudly in the commit — every experiment table downstream moves.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>

#include "data/dataset.hpp"
#include "data/signal_model.hpp"
#include "util/det_math.hpp"
#include "util/rng.hpp"

namespace origin::data {
namespace {

constexpr std::uint64_t kFnvOffset = 1469598103934665603ULL;
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

std::uint64_t fnv1a_mix(std::uint64_t h, std::uint64_t v) {
  const auto* b = reinterpret_cast<const unsigned char*>(&v);
  for (int i = 0; i < 8; ++i) {
    h ^= b[i];
    h *= kFnvPrime;
  }
  return h;
}

std::uint64_t fnv1a(const nn::Tensor& t) {
  std::uint64_t h = kFnvOffset;
  const auto* bytes = reinterpret_cast<const unsigned char*>(t.data());
  const std::size_t n = sizeof(float) * t.vec().size();
  for (std::size_t i = 0; i < n; ++i) {
    h ^= bytes[i];
    h *= kFnvPrime;
  }
  return h;
}

bool same_bits(const nn::Tensor& a, const nn::Tensor& b) {
  return a.vec().size() == b.vec().size() &&
         std::memcmp(a.data(), b.data(),
                     sizeof(float) * a.vec().size()) == 0;
}

TEST(DetMath, TracksLibmSinAcrossSynthesisRange) {
  // Synthesis arguments stay within a few thousand radians (omega * t for
  // minutes-long streams); sweep well past that plus the reduction seams.
  double max_err = 0.0;
  for (int i = 0; i <= 400000; ++i) {
    const double x = -2000.0 + static_cast<double>(i) * 0.01;
    max_err = std::max(max_err, std::abs(util::det_sin(x) - std::sin(x)));
  }
  EXPECT_LT(max_err, 2e-11);
  EXPECT_EQ(util::det_sin(0.0), 0.0);
  EXPECT_EQ(util::det_sin(-1.25), -util::det_sin(1.25));
}

class DataGoldenTest : public ::testing::Test {
 protected:
  DataGoldenTest()
      : spec_(dataset_spec(DatasetKind::MHealthLike)),
        model_(spec_, reference_user()) {}

  DatasetSpec spec_;
  SignalModel model_;
};

TEST_F(DataGoldenTest, FastPathBitIdenticalToReference) {
  // Full (activity, location) grid under many styles — including drawn
  // ambiguous ones — from identical RNG states; both the samples and the
  // post-call RNG state must agree.
  for (int a = 0; a < kNumActivityKinds; ++a) {
    for (int s = 0; s < kNumSensors; ++s) {
      util::Rng style_rng(77);
      for (int trial = 0; trial < 40; ++trial) {
        const auto style = draw_shared_style(
            spec_, static_cast<Activity>(a), style_rng, 0.5);
        const std::uint64_t seed =
            1000 + static_cast<std::uint64_t>(a * 1000 + s * 100 + trial);
        util::Rng rng_ref(seed);
        util::Rng rng_fast(seed);
        const double t0 = 0.25 * trial;
        const auto want = model_.synthesize_window_reference(
            static_cast<Activity>(a), static_cast<SensorLocation>(s), t0,
            rng_ref, style);
        nn::Tensor got;
        model_.synthesize_window(got, static_cast<Activity>(a),
                                 static_cast<SensorLocation>(s), t0, rng_fast,
                                 style);
        ASSERT_TRUE(same_bits(got, want))
            << "activity " << a << " sensor " << s << " trial " << trial;
        ASSERT_EQ(rng_fast.next_u64(), rng_ref.next_u64())
            << "RNG draw order diverged: activity " << a << " sensor " << s
            << " trial " << trial;
      }
    }
  }
}

TEST_F(DataGoldenTest, DrawnStylePathMatchesReference) {
  // Omitted style → both paths draw it themselves, from the same stream.
  for (int a = 0; a < kNumActivityKinds; ++a) {
    util::Rng rng_ref(42 + static_cast<std::uint64_t>(a));
    util::Rng rng_fast(42 + static_cast<std::uint64_t>(a));
    for (int trial = 0; trial < 20; ++trial) {
      const auto want = model_.synthesize_window_reference(
          static_cast<Activity>(a), SensorLocation::RightWrist, 1.5, rng_ref);
      const auto got = model_.window(static_cast<Activity>(a),
                                     SensorLocation::RightWrist, 1.5, rng_fast);
      ASSERT_TRUE(same_bits(got, want)) << "activity " << a << " trial "
                                        << trial;
    }
    EXPECT_EQ(rng_fast.next_u64(), rng_ref.next_u64());
  }
}

TEST_F(DataGoldenTest, SkipWindowConsumesSynthesisDraws) {
  // The stream cursor steps over unread windows with skip_window; it must
  // leave the RNG exactly where synthesize_window would, for every pair
  // and both with a plain and an ambiguous shared style.
  util::Rng style_rng(6);
  for (int a = 0; a < kNumActivityKinds; ++a) {
    const auto act = static_cast<Activity>(a);
    SharedStyle ambiguous;
    do {
      ambiguous = draw_shared_style(spec_, act, style_rng, 1.0);
    } while (!ambiguous.ambiguous_with);
    const SharedStyle plain = draw_shared_style(spec_, act, style_rng, 0.0);
    ASSERT_FALSE(plain.ambiguous_with);
    for (int s = 0; s < kNumSensors; ++s) {
      for (const SharedStyle& style : {plain, ambiguous}) {
        // With and without a cached gauss value in the RNG.
        for (int cached = 0; cached < 2; ++cached) {
          const std::uint64_t seed =
              7000 + static_cast<std::uint64_t>(a * 10 + s);
          util::Rng synthesized(seed), skipped(seed);
          if (cached) {
            synthesized.gauss();
            skipped.gauss();
          }
          nn::Tensor w;
          model_.synthesize_window(w, act, static_cast<SensorLocation>(s),
                                   1.0, synthesized, style);
          model_.skip_window(skipped);
          ASSERT_EQ(skipped.gauss(), synthesized.gauss())
              << "activity " << a << " sensor " << s << " cached " << cached;
          ASSERT_EQ(skipped.next_u64(), synthesized.next_u64())
              << "activity " << a << " sensor " << s << " cached " << cached;
        }
      }
    }
  }
}

// Golden values generated from the reference user on the MHealthLike spec
// (det_sin synthesis, -ffp-contract=off data path). Window w[a][s] is the
// s-th of three consecutive window() calls on Rng(9000 + a) at t0 = 3.25;
// the RNG pin is next_u64() right after the third call, which also locks
// the number of draws each window consumes.
constexpr std::uint64_t kGoldenWindows[kNumActivityKinds][kNumSensors] = {
    {0x0b9fa34bc949e8e6ULL, 0x4de5d81dea2c2fd9ULL, 0xc908a612ed21f2f4ULL},
    {0xaca4a063bdb9d332ULL, 0xb3c2684890afc5a4ULL, 0xbc84392afd1a6196ULL},
    {0xe57a0692c735be02ULL, 0x93e5a8361415ea47ULL, 0x6bedd82b978e7f5fULL},
    {0x3cd2ecdd315e4240ULL, 0x7943ecaeba54fbdbULL, 0x841c94432b45092bULL},
    {0xdf002291094ae34bULL, 0x55ee5ca49434183aULL, 0xe5a5ba459344a4f7ULL},
    {0x582db716fe4f4cadULL, 0x7150e84c722e3d63ULL, 0x9e3b8f08056d9047ULL},
};
constexpr std::uint64_t kGoldenRngAfter[kNumActivityKinds] = {
    0x4273cf36eb7e6234ULL, 0x88b05ec484970367ULL, 0xf418712f4953c7abULL,
    0xcc6dd44fcb76910fULL, 0x71ade460702e30dbULL, 0x523b77cd1bb84156ULL,
};

TEST_F(DataGoldenTest, WindowChecksumsAndRngOrderPinned) {
  for (int a = 0; a < kNumActivityKinds; ++a) {
    util::Rng rng(9000 + static_cast<std::uint64_t>(a));
    for (int s = 0; s < kNumSensors; ++s) {
      const auto w = model_.window(static_cast<Activity>(a),
                                   static_cast<SensorLocation>(s), 3.25, rng);
      EXPECT_EQ(fnv1a(w), kGoldenWindows[a][s])
          << "activity " << a << " sensor " << s;
    }
    EXPECT_EQ(rng.next_u64(), kGoldenRngAfter[a]) << "activity " << a;
  }
}

TEST_F(DataGoldenTest, StreamChecksumPinned) {
  // One checksum over a whole stream — labels, ambiguity flags and every
  // window — covers make_stream's slot loop end to end (anchor
  // interpolation, ambiguous episodes, per-sensor synthesis order).
  const auto stream = make_stream(spec_, 25, reference_user(), 424242);
  std::uint64_t h = kFnvOffset;
  for (const auto& slot : stream.slots) {
    h = fnv1a_mix(h, static_cast<std::uint64_t>(slot.label));
    h = fnv1a_mix(h, slot.ambiguous ? 1u : 0u);
    for (std::size_t s = 0; s < kNumSensors; ++s) {
      h = fnv1a_mix(h, fnv1a(slot.window(s)));
    }
  }
  EXPECT_EQ(h, 0x765b89f29aebdae6ULL);
}

}  // namespace
}  // namespace origin::data
