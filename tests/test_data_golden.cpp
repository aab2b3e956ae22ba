// Bit-identity and golden-checksum pins for the data-path kernels.
//
// The fast synthesis path (SignalModel::synthesize_window) must match the
// plain scalar oracle below bit for bit; the FNV-1a checksums additionally
// pin the absolute output so a future edit to *both* implementations
// can't silently shift every downstream accuracy number. If a pinned
// value changes on purpose, regenerate the constants and say so loudly in
// the commit — every experiment table downstream moves.
//
// This binary also interposes libm's transcendentals (log, exp, sin, cos,
// pow) to count calls, forwarding each to the real function, so a test
// can show that window synthesis calls none of them.
#include <gtest/gtest.h>

#include <dlfcn.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstring>

#include "backend_scope.hpp"
#include "data/dataset.hpp"
#include "data/signal_model.hpp"
#include "data/stream_cursor.hpp"
#include "nn/kernels/backend.hpp"
#include "util/det_math.hpp"
#include "util/rng.hpp"

namespace {

std::atomic<std::uint64_t> g_libm_calls{0};

template <typename Fn>
Fn real_libm(const char* name) {
  return reinterpret_cast<Fn>(dlsym(RTLD_NEXT, name));
}

}  // namespace

extern "C" {
double log(double x) noexcept {
  static const auto real = real_libm<double (*)(double)>("log");
  g_libm_calls.fetch_add(1, std::memory_order_relaxed);
  return real(x);
}
double exp(double x) noexcept {
  static const auto real = real_libm<double (*)(double)>("exp");
  g_libm_calls.fetch_add(1, std::memory_order_relaxed);
  return real(x);
}
double sin(double x) noexcept {
  static const auto real = real_libm<double (*)(double)>("sin");
  g_libm_calls.fetch_add(1, std::memory_order_relaxed);
  return real(x);
}
double cos(double x) noexcept {
  static const auto real = real_libm<double (*)(double)>("cos");
  g_libm_calls.fetch_add(1, std::memory_order_relaxed);
  return real(x);
}
double pow(double x, double y) noexcept {
  static const auto real = real_libm<double (*)(double, double)>("pow");
  g_libm_calls.fetch_add(1, std::memory_order_relaxed);
  return real(x, y);
}
}

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

TEST(DetMath, LogTracksLibmOnUnitInterval) {
  // The Box–Muller radius takes det_log of (w + 0.5) * 2^-32 for every
  // 32-bit word w: sweep that grid, both ends, and the m = sqrt(2) seam.
  double max_rel = 0.0;
  const auto track = [&](double x) {
    const double want = std::log(x);
    max_rel = std::max(max_rel, std::fabs(util::det_log(x) - want) /
                                    std::max(std::fabs(want), 1e-300));
  };
  for (std::uint64_t w = 0; w < (std::uint64_t{1} << 32); w += 4099) {
    track((static_cast<double>(w) + 0.5) * 0x1.0p-32);
  }
  track(0.5 * 0x1.0p-32);
  track((0x1.0p32 - 0.5) * 0x1.0p-32);
  for (int k = -64; k <= 64; ++k) {
    track(std::nextafter(0x1.6a09e667f3bcdp-1, 0.0) + k * 0x1.0p-53);
  }
  EXPECT_LT(max_rel, 4e-16);
  EXPECT_EQ(util::det_log(1.0), 0.0);
  EXPECT_EQ(util::det_log(0.5), -util::det_log(2.0));
}

/// The synthesis oracle: the window as a plain scalar loop over the model,
/// every draw taken from `key` as documented at SignalModel — the phase
/// from util::key_uniform, the wobble and then channel-major noise from
/// the reference backend's keyed fill.
nn::Tensor synthesize_window_oracle(const SignalModel& model, Activity a,
                                    SensorLocation loc, double t0_s,
                                    std::uint64_t key, const SharedStyle& st) {
  constexpr double kTwoPi = 6.283185307179586;
  const DatasetSpec& spec = model.spec();
  const UserProfile& user = model.user();
  const ActivitySignature main = signature(a, loc);
  const ActivitySignature alt = signature(confusable_neighbor(a, loc), loc);
  const double weakness = 1.0 - distinctiveness(a, loc);
  const double beta =
      std::clamp(weakness * st.blend_u + user.style_shift * 0.5, 0.0, 0.95);
  const double fs = static_cast<double>(spec.sample_rate_hz);
  const double jitter = 1.0 + st.cadence_g * (0.05 + 0.10 * weakness);
  const double f_main = main.fundamental_hz * user.freq_scale * jitter;
  const double f_alt = alt.fundamental_hz * user.freq_scale * jitter;

  std::vector<double> g(1 + static_cast<std::size_t>(spec.channels) *
                                static_cast<std::size_t>(spec.window_len));
  nn::kernels::find_backend("reference")->gauss_fill(key, g.data(), g.size());
  const double window_phase = kTwoPi * util::key_uniform(key);
  const double wobble = std::max(0.3, 1.0 + 0.10 * g[0]);
  const double sigma = noise_sigma(loc) * user.noise_scale *
                       user.placement_noise[static_cast<std::size_t>(loc)] *
                       (1.0 + 2.5 * weakness);

  const bool ambiguous = st.ambiguous_with && *st.ambiguous_with != a;
  const ActivitySignature amb =
      ambiguous ? signature(*st.ambiguous_with, loc) : main;
  const double f_amb =
      ambiguous ? amb.fundamental_hz * user.freq_scale * jitter : f_main;
  const double mix = ambiguous ? st.ambiguity_mix : 0.0;

  auto sig_value = [&](const ActivitySignature& sig, double f, double ph,
                       double t, std::size_t ci) {
    const double w = kTwoPi * f * t + ph;
    return sig.dc[ci] +
           user.amp_scale * wobble *
               (sig.amp1[ci] * util::det_sin(w + sig.phase[ci]) +
                sig.amp2[ci] * util::det_sin(2.0 * w + 1.7 * sig.phase[ci]) +
                sig.amp3[ci] * util::det_sin(3.0 * w + 0.6 * sig.phase[ci]));
  };

  nn::Tensor out({spec.channels, spec.window_len});
  std::size_t next_noise = 1;
  for (int c = 0; c < spec.channels; ++c) {
    const auto ci = static_cast<std::size_t>(c);
    const double ph = window_phase + model.user_phase()[ci];
    for (int i = 0; i < spec.window_len; ++i) {
      const double t = t0_s + static_cast<double>(i) / fs;
      const double v_main = sig_value(main, f_main, ph, t, ci);
      const double v_alt = sig_value(alt, f_alt, ph, t, ci);
      double v = (1.0 - beta) * v_main + beta * v_alt;
      if (ambiguous) {
        v = (1.0 - mix) * v + mix * sig_value(amb, f_amb, ph, t, ci);
      }
      out.at(c, i) = static_cast<float>(v + sigma * g[next_noise++]);
    }
  }
  return out;
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
  // ambiguous ones — and many keys.
  test_support::BackendScope scope("reference");
  for (int a = 0; a < kNumActivityKinds; ++a) {
    for (int s = 0; s < kNumSensors; ++s) {
      util::Rng style_rng(77);
      for (int trial = 0; trial < 40; ++trial) {
        const auto style = draw_shared_style(
            spec_, static_cast<Activity>(a), style_rng, 0.5);
        const std::uint64_t key = util::derive_key(
            1000, static_cast<std::uint64_t>(a * 1000 + s * 100 + trial));
        const double t0 = 0.25 * trial;
        const auto want = synthesize_window_oracle(
            model_, static_cast<Activity>(a), static_cast<SensorLocation>(s),
            t0, key, style);
        nn::Tensor got;
        model_.synthesize_window(got, static_cast<Activity>(a),
                                 static_cast<SensorLocation>(s), t0, key,
                                 style);
        ASSERT_TRUE(same_bits(got, want))
            << "activity " << a << " sensor " << s << " trial " << trial;
      }
    }
  }
}

TEST_F(DataGoldenTest, DrawnStylePathMatchesReference) {
  // Training windows draw their start, style and key from one stream:
  // make_training_set's samples are the oracle's windows of those draws,
  // shuffled by the same stream.
  test_support::BackendScope scope("reference");
  constexpr std::uint64_t kSeed = 42;
  constexpr int kPerClass = 5;
  const auto got = make_training_set(spec_, SensorLocation::RightWrist,
                                     kPerClass, reference_user(), kSeed);
  util::Rng rng(kSeed);
  nn::Samples want;
  for (int c = 0; c < spec_.num_classes(); ++c) {
    const Activity act = spec_.activity_of(c);
    for (int i = 0; i < kPerClass; ++i) {
      const double t0 = rng.uniform(0.0, 3600.0);
      const SharedStyle style = draw_shared_style(spec_, act, rng);
      want.push_back({synthesize_window_oracle(model_, act,
                                               SensorLocation::RightWrist, t0,
                                               rng.next_u64(), style),
                      c});
    }
  }
  rng.shuffle(want);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].label, want[i].label) << "sample " << i;
    ASSERT_TRUE(same_bits(got[i].input, want[i].input)) << "sample " << i;
  }
}

TEST_F(DataGoldenTest, SlotWindowsReadInAnyOrderMatch) {
  // A slot's windows are keyed, not drawn in sequence: every read order of
  // the three sensors, read at once or only after the cursor has moved
  // three slots on (still within the ring), gives make_stream's bits.
  constexpr int kSlots = 14;
  constexpr std::size_t kLag = 3;
  const Stream want = make_stream(spec_, kSlots, reference_user(), 99);
  std::array<std::size_t, kNumSensors> order = {0, 1, 2};
  do {
    for (std::size_t lag : {std::size_t{0}, kLag}) {
      StreamCursor cursor(spec_, kSlots, reference_user(), 99, {},
                          /*ring_capacity=*/4);
      const auto read_slot = [&](std::size_t i) {
        for (std::size_t s : order) {
          ASSERT_TRUE(same_bits(cursor.slot(i).window(s),
                                want.slots[i].window(s)))
              << "slot " << i << " sensor " << s << " lag " << lag
              << " order " << order[0] << order[1] << order[2];
        }
      };
      for (std::size_t i = 0; i < kSlots; ++i) {
        cursor.slot(i);
        if (i >= lag) read_slot(i - lag);
      }
      for (std::size_t i = kSlots - lag; i < kSlots; ++i) read_slot(i);
      EXPECT_EQ(cursor.windows_synthesized(), 3u * kSlots);
    }
  } while (std::next_permutation(order.begin(), order.end()));
}

TEST_F(DataGoldenTest, WindowSynthesisCallsNoLibmTranscendental) {
  // The interposers above see calls made inside the library: drawing a
  // style calls std::exp and Rng::gauss's std::log.
  util::Rng rng(3);
  const std::uint64_t before_style = g_libm_calls.load();
  for (int k = 0; k < 8; ++k) draw_shared_style(spec_, Activity::Walking, rng, 1.0);
  ASSERT_GT(g_libm_calls.load(), before_style);

  // Styles are drawn before counting; synthesis on every backend, every
  // (activity, location), plain and ambiguous, calls none.
  std::vector<SharedStyle> styles;
  for (int a = 0; a < kNumActivityKinds; ++a) {
    styles.push_back(draw_shared_style(spec_, static_cast<Activity>(a), rng, 0.0));
    styles.push_back(draw_shared_style(spec_, static_cast<Activity>(a), rng, 1.0));
  }
  nn::Tensor w;
  for (const nn::kernels::Backend* b : nn::kernels::available_backends()) {
    test_support::BackendScope scope(b->name);
    const std::uint64_t before = g_libm_calls.load();
    for (int a = 0; a < kNumActivityKinds; ++a) {
      for (int s = 0; s < kNumSensors; ++s) {
        for (int k = 0; k < 2; ++k) {
          model_.synthesize_window(
              w, static_cast<Activity>(a), static_cast<SensorLocation>(s),
              1.5, util::derive_key(5, static_cast<std::uint64_t>(a * 10 + s)),
              styles[static_cast<std::size_t>(2 * a + k)]);
        }
      }
    }
    EXPECT_EQ(g_libm_calls.load(), before) << b->name;
  }
}

// Golden values generated from the reference user on the MHealthLike spec
// (keyed det_sin/det_log synthesis, -ffp-contract=off data path). Window
// w[a][s] draws its style and then its key from Rng(9000 + a), three
// windows in sensor order, at t0 = 3.25; the RNG pin is next_u64() right
// after the third window, which locks that a window takes nothing from
// the caller's stream but its key.
constexpr std::uint64_t kGoldenWindows[kNumActivityKinds][kNumSensors] = {
    {0xb55a7cea3c15cc78ULL, 0x9c5b7822c5264c18ULL, 0x406eef553249b737ULL},
    {0x12f31b648116de2cULL, 0x99017e4ea80dc3efULL, 0xddce8bf0d75a3ab5ULL},
    {0x0933f3257299572cULL, 0xe9ee6f12366ea703ULL, 0xef8d33e4080e4b2aULL},
    {0x77735ac2cc34c41aULL, 0x3a5ced2be2c031beULL, 0x6e9454a13e12160eULL},
    {0x378fd9ebda580340ULL, 0x1829359540bba38fULL, 0xeacc7ef1e7c15c09ULL},
    {0xbd1f4855e10dd7caULL, 0x9575751c0fb37603ULL, 0x7779378f09a56ee0ULL},
};
constexpr std::uint64_t kGoldenRngAfter[kNumActivityKinds] = {
    0x6c7f025da00be6edULL, 0xa50195b03e12e562ULL, 0x998cda8d90c1f483ULL,
    0x5840a1931ec815cdULL, 0xe7ace2823fea717eULL, 0x821da2b0fd02d801ULL,
};

TEST_F(DataGoldenTest, WindowChecksumsAndRngOrderPinned) {
  for (int a = 0; a < kNumActivityKinds; ++a) {
    util::Rng rng(9000 + static_cast<std::uint64_t>(a));
    for (int s = 0; s < kNumSensors; ++s) {
      const auto style =
          draw_shared_style(spec_, static_cast<Activity>(a), rng);
      const auto w =
          model_.window(static_cast<Activity>(a),
                        static_cast<SensorLocation>(s), 3.25, rng.next_u64(),
                        style);
      EXPECT_EQ(fnv1a(w), kGoldenWindows[a][s])
          << "activity " << a << " sensor " << s;
    }
    EXPECT_EQ(rng.next_u64(), kGoldenRngAfter[a]) << "activity " << a;
  }
}

TEST_F(DataGoldenTest, StreamChecksumPinned) {
  // One checksum over a whole stream — labels, ambiguity flags and every
  // window — covers make_stream's slot loop end to end (anchor
  // interpolation, ambiguous episodes, per-window keys).
  const auto stream = make_stream(spec_, 25, reference_user(), 424242);
  std::uint64_t h = kFnvOffset;
  for (const auto& slot : stream.slots) {
    h = fnv1a_mix(h, static_cast<std::uint64_t>(slot.label));
    h = fnv1a_mix(h, slot.ambiguous ? 1u : 0u);
    for (std::size_t s = 0; s < kNumSensors; ++s) {
      h = fnv1a_mix(h, fnv1a(slot.window(s)));
    }
  }
  EXPECT_EQ(h, 0xd31be4f49a1f888dULL);
}

}  // namespace
}  // namespace origin::data
