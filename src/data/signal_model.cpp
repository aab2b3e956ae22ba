#include "data/signal_model.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "nn/kernels.hpp"
#include "util/det_math.hpp"

namespace origin::data {

namespace {

constexpr double kTwoPi = 6.283185307179586;

/// Fundamental gait/motion frequency per activity (Hz).
double fundamental(Activity a) {
  switch (a) {
    case Activity::Walking: return 1.8;
    case Activity::Climbing: return 1.3;
    case Activity::Cycling: return 2.4;
    case Activity::Running: return 2.9;
    case Activity::Jogging: return 2.3;
    case Activity::Jumping: return 2.0;
  }
  return 1.0;
}

/// Overall motion intensity as seen by each body location. Legs dominate
/// cycling/running at the ankle; the wrist barely moves while cycling.
double location_gain(Activity a, SensorLocation loc) {
  switch (loc) {
    case SensorLocation::Chest:
      switch (a) {
        case Activity::Walking: return 0.7;
        case Activity::Climbing: return 1.1;  // trunk inclination is distinctive
        case Activity::Cycling: return 0.5;
        case Activity::Running: return 1.2;
        case Activity::Jogging: return 0.9;
        case Activity::Jumping: return 1.3;
      }
      break;
    case SensorLocation::LeftAnkle:
      switch (a) {
        case Activity::Walking: return 1.2;
        case Activity::Climbing: return 1.0;
        case Activity::Cycling: return 1.4;
        case Activity::Running: return 1.6;
        case Activity::Jogging: return 1.3;
        case Activity::Jumping: return 1.5;
      }
      break;
    case SensorLocation::RightWrist:
      switch (a) {
        case Activity::Walking: return 0.8;
        case Activity::Climbing: return 0.9;  // handrail / arm swing
        case Activity::Cycling: return 0.3;   // hands fixed on the bars
        case Activity::Running: return 1.1;
        case Activity::Jogging: return 0.9;
        case Activity::Jumping: return 1.0;
      }
      break;
  }
  return 1.0;
}

}  // namespace

double distinctiveness(Activity a, SensorLocation loc) {
  // Tuned so the per-sensor accuracy structure of the paper's Fig. 2
  // emerges: left ankle best overall, chest best for climbing, right
  // wrist weakest (especially for the leg-driven cycling).
  switch (loc) {
    case SensorLocation::Chest:
      switch (a) {
        case Activity::Walking: return 0.55;
        case Activity::Climbing: return 0.86;
        case Activity::Cycling: return 0.60;
        case Activity::Running: return 0.64;
        case Activity::Jogging: return 0.54;
        case Activity::Jumping: return 0.68;
      }
      break;
    case SensorLocation::LeftAnkle:
      switch (a) {
        case Activity::Walking: return 0.80;
        case Activity::Climbing: return 0.74;
        case Activity::Cycling: return 0.88;
        case Activity::Running: return 0.82;
        case Activity::Jogging: return 0.76;
        case Activity::Jumping: return 0.80;
      }
      break;
    case SensorLocation::RightWrist:
      switch (a) {
        case Activity::Walking: return 0.50;
        case Activity::Climbing: return 0.54;
        case Activity::Cycling: return 0.42;
        case Activity::Running: return 0.55;
        case Activity::Jogging: return 0.46;
        case Activity::Jumping: return 0.58;
      }
      break;
  }
  return 0.8;
}

Activity confusable_neighbor(Activity a, SensorLocation loc) {
  switch (loc) {
    case SensorLocation::Chest:
      // The trunk mostly reports vertical oscillation and posture, so it
      // mixes up activities with similar torso bounce.
      switch (a) {
        case Activity::Walking: return Activity::Climbing;
        case Activity::Climbing: return Activity::Walking;
        case Activity::Cycling: return Activity::Walking;
        case Activity::Running: return Activity::Jogging;
        case Activity::Jogging: return Activity::Running;
        case Activity::Jumping: return Activity::Running;
      }
      break;
    case SensorLocation::LeftAnkle:
      // The ankle sees leg cadence; intensity-adjacent gaits blur.
      switch (a) {
        case Activity::Walking: return Activity::Jogging;
        case Activity::Climbing: return Activity::Jumping;
        case Activity::Cycling: return Activity::Running;
        case Activity::Running: return Activity::Cycling;
        case Activity::Jogging: return Activity::Walking;
        case Activity::Jumping: return Activity::Climbing;
      }
      break;
    case SensorLocation::RightWrist:
      // The wrist sees arm swing, nearly identical across locomotion, and
      // almost nothing while the hands hold handlebars.
      switch (a) {
        case Activity::Walking: return Activity::Cycling;
        case Activity::Climbing: return Activity::Cycling;
        case Activity::Cycling: return Activity::Jumping;
        case Activity::Running: return Activity::Walking;
        case Activity::Jogging: return Activity::Cycling;
        case Activity::Jumping: return Activity::Walking;
      }
      break;
  }
  return Activity::Walking;
}

double noise_sigma(SensorLocation loc) {
  switch (loc) {
    case SensorLocation::Chest: return 0.32;
    case SensorLocation::LeftAnkle: return 0.28;
    case SensorLocation::RightWrist: return 0.42;
  }
  return 0.3;
}

ActivitySignature signature(Activity a, SensorLocation loc) {
  // Deterministically derived per (activity, location) from a fixed-seed
  // stream: stable "ground truth physics" shared by every experiment.
  const std::uint64_t seed = 0xD15EA5E0ULL + 97ULL * static_cast<std::uint64_t>(a) +
                             1009ULL * static_cast<std::uint64_t>(loc);
  util::Rng rng(seed);
  ActivitySignature sig;
  sig.fundamental_hz = fundamental(a);
  const double gain = location_gain(a, loc);
  for (int c = 0; c < kImuChannels; ++c) {
    const bool accel = c < 3;
    // Accelerometers carry a gravity-projection DC that depends on posture;
    // gyros are near zero-mean.
    sig.dc[static_cast<std::size_t>(c)] = accel ? rng.uniform(-0.8, 0.8) : rng.uniform(-0.1, 0.1);
    sig.amp1[static_cast<std::size_t>(c)] = gain * rng.uniform(0.5, 1.2);
    sig.amp2[static_cast<std::size_t>(c)] = gain * rng.uniform(0.1, 0.5);
    sig.amp3[static_cast<std::size_t>(c)] = gain * rng.uniform(0.02, 0.2);
    sig.phase[static_cast<std::size_t>(c)] = rng.uniform(0.0, kTwoPi);
  }
  return sig;
}

SignalModel::SignalModel(DatasetSpec spec, UserProfile user)
    : spec_(std::move(spec)), user_(std::move(user)) {
  if (spec_.channels != kImuChannels) {
    throw std::invalid_argument("SignalModel: expects 6 IMU channels");
  }
  // A user's fixed per-channel phase habit, derived from the profile name
  // so the same profile always yields the same habit.
  util::Rng rng(0xBADC0FFEULL ^ std::hash<std::string>{}(user_.name));
  for (auto& p : user_phase_) p = rng.uniform(-1.0, 1.0) * user_.phase_jitter;
}

SharedStyle draw_shared_style(const DatasetSpec& spec, Activity a,
                              util::Rng& rng, double p_ambiguous) {
  SharedStyle s;
  s.blend_u = rng.uniform(0.8, 2.4);
  s.cadence_g = rng.gauss();
  if (spec.num_classes() > 1 && rng.bernoulli(p_ambiguous)) {
    // Pick the partner by intensity adjacency (the activities the wearer
    // actually drifts between), then a mixture deep enough to be genuinely
    // ambiguous.
    std::array<double, kNumActivityKinds> weights{};
    const auto classes = static_cast<std::size_t>(spec.num_classes());
    if (classes > weights.size()) {
      throw std::invalid_argument("draw_shared_style: repeated activities");
    }
    for (std::size_t c = 0; c < classes; ++c) {
      const Activity other = spec.activity_of(static_cast<int>(c));
      weights[c] = other == a
                       ? 0.0
                       : std::exp(-2.0 * std::fabs(activity_intensity(a) -
                                                   activity_intensity(other)));
    }
    s.ambiguous_with = spec.activity_of(static_cast<int>(
        rng.categorical(std::span<const double>(weights.data(), classes))));
    s.ambiguity_mix = rng.uniform(0.45, 0.75);
  }
  return s;
}

namespace {

// Signature table, computed once per process. The oracle in
// tests/test_data_golden.cpp derives a signature from its fixed seed on
// every call; synthesize_window looks it up here along with the
// per-channel harmonic phase products (1.7*phase, 0.6*phase) the inner
// loop would otherwise recompute per sample. Products of the same doubles
// in the same order, so cached and inline values agree bit for bit.
struct SignatureEntry {
  ActivitySignature sig;
  std::array<double, kImuChannels> phase2{};  // 1.7 * phase
  std::array<double, kImuChannels> phase3{};  // 0.6 * phase
};

const SignatureEntry& cached_signature(Activity a, SensorLocation loc) {
  static const auto table = [] {
    std::array<SignatureEntry, kNumActivityKinds * kNumSensors> t{};
    for (int ai = 0; ai < kNumActivityKinds; ++ai) {
      for (int li = 0; li < kNumSensors; ++li) {
        auto& e = t[static_cast<std::size_t>(ai * kNumSensors + li)];
        e.sig = signature(static_cast<Activity>(ai),
                          static_cast<SensorLocation>(li));
        for (std::size_t c = 0; c < kImuChannels; ++c) {
          e.phase2[c] = 1.7 * e.sig.phase[c];
          e.phase3[c] = 0.6 * e.sig.phase[c];
        }
      }
    }
    return t;
  }();
  return table[static_cast<std::size_t>(static_cast<int>(a) * kNumSensors +
                                        static_cast<int>(loc))];
}

}  // namespace

nn::Tensor SignalModel::window(Activity a, SensorLocation loc, double t0_s,
                               std::uint64_t key,
                               const SharedStyle& style) const {
  nn::Tensor out;
  synthesize_window(out, a, loc, t0_s, key, style);
  return out;
}

void SignalModel::synthesize_window(nn::Tensor& out, Activity a,
                                    SensorLocation loc, double t0_s,
                                    std::uint64_t key,
                                    const SharedStyle& st) const {
  const SignatureEntry& entry_main = cached_signature(a, loc);
  const SignatureEntry& entry_alt =
      cached_signature(confusable_neighbor(a, loc), loc);
  const ActivitySignature& main = entry_main.sig;
  const ActivitySignature& alt = entry_alt.sig;
  // Blend toward the confusable neighbour where the location expresses the
  // activity weakly. The blend varies per window (people do not execute an
  // activity identically twice) so class distributions genuinely overlap —
  // at weak locations it regularly crosses 50% and the window is more
  // neighbour than activity. The user's idiosyncratic style shifts it
  // further.
  const double weakness = 1.0 - distinctiveness(a, loc);
  const double beta =
      std::clamp(weakness * st.blend_u + user_.style_shift * 0.5, 0.0, 0.95);

  const double fs = static_cast<double>(spec_.sample_rate_hz);
  // Cadence drifts window to window; weakly-expressed activities carry
  // less cadence information at this location, widening the jitter.
  const double jitter = 1.0 + st.cadence_g * (0.05 + 0.10 * weakness);
  const double f_main = main.fundamental_hz * user_.freq_scale * jitter;
  const double f_alt = alt.fundamental_hz * user_.freq_scale * jitter;

  const int len = spec_.window_len;
  out.reset_shape({spec_.channels, len});
  // The window's draws, all from its key: activities are not phase-locked
  // to the schedule, so each window starts at a random point of the gait
  // cycle; noise[0] is a small intensity wobble, and the rest is the
  // sensor noise of every channel, channel-major.
  thread_local std::vector<double> noise;
  noise.resize(1 + out.size());
  nn::kernels::gauss_fill(key, noise.data(), noise.size());
  const double window_phase = kTwoPi * util::key_uniform(key);
  const double wobble = std::max(0.3, 1.0 + 0.10 * noise[0]);
  // Weak expression also means a worse sensor-noise-to-motion ratio; the
  // user's placement quality at this location scales it further.
  const double sigma =
      noise_sigma(loc) * user_.noise_scale *
      user_.placement_noise[static_cast<std::size_t>(loc)] *
      (1.0 + 2.5 * weakness);

  const bool ambiguous = st.ambiguous_with && *st.ambiguous_with != a;
  const SignatureEntry& entry_amb =
      ambiguous ? cached_signature(*st.ambiguous_with, loc) : entry_main;
  const ActivitySignature& amb = entry_amb.sig;
  const double f_amb =
      ambiguous ? amb.fundamental_hz * user_.freq_scale * jitter : f_main;
  const double mix = ambiguous ? st.ambiguity_mix : 0.0;

  // Hoisted per-window invariants. Each matches a subtree of the
  // oracle's expression parse (e.g. `kTwoPi * f * t` associates as
  // `(kTwoPi*f)*t`, `amp_scale * wobble * (...)` as `(amp_scale*wobble)*(...)`,
  // `(1.0-beta)*v_main`, `(1.0-mix)*v`), so precomputing them is exact.
  const double amp = user_.amp_scale * wobble;
  const double omega_main = kTwoPi * f_main;
  const double omega_alt = kTwoPi * f_alt;
  const double omega_amb = kTwoPi * f_amb;
  const double blend_main = 1.0 - beta;
  const double keep = 1.0 - mix;

  float* out_data = out.data();

  // Shared time grid: element-wise identical to the oracle's per-sample
  // `t0_s + i/fs`, computed once per window instead of once per channel.
  thread_local std::vector<double> t_grid;
  thread_local std::vector<double> clean;
  t_grid.resize(static_cast<std::size_t>(len));
  clean.resize(static_cast<std::size_t>(len));
  for (int i = 0; i < len; ++i) {
    t_grid[static_cast<std::size_t>(i)] =
        t0_s + static_cast<double>(i) / fs;
  }

  for (int c = 0; c < spec_.channels; ++c) {
    const auto ci = static_cast<std::size_t>(c);

    // Pass 1: the deterministic waveform — no branches, pure double
    // arithmetic over the shared grid. Dispatched through the kernel
    // backend: the reference backend reproduces the oracle's loop
    // expression-for-expression (test_data_golden pins the bits), SIMD
    // backends fuse per their recipe.
    nn::kernels::SynthParams sp;
    sp.ph = window_phase + user_phase_[ci];
    sp.amp = amp;
    sp.blend_main = blend_main;
    sp.beta = beta;
    sp.keep = keep;
    sp.mix = mix;
    sp.ambiguous = ambiguous;
    sp.main = {omega_main,     main.dc[ci],           main.amp1[ci],
               main.amp2[ci],  main.amp3[ci],         main.phase[ci],
               entry_main.phase2[ci], entry_main.phase3[ci]};
    sp.alt = {omega_alt,      alt.dc[ci],            alt.amp1[ci],
              alt.amp2[ci],   alt.amp3[ci],          alt.phase[ci],
              entry_alt.phase2[ci], entry_alt.phase3[ci]};
    if (ambiguous) {
      sp.amb = {omega_amb,     amb.dc[ci],           amb.amp1[ci],
                amb.amp2[ci],  amb.amp3[ci],         amb.phase[ci],
                entry_amb.phase2[ci], entry_amb.phase3[ci]};
    }
    nn::kernels::synth_channel(sp, t_grid.data(), clean.data(), len);

    // Pass 2: add the noise, sigma * g, unfused.
    const std::size_t offset =
        static_cast<std::size_t>(c) * static_cast<std::size_t>(len);
    float* row = out_data + offset;
    const double* g = noise.data() + 1 + offset;
    for (int i = 0; i < len; ++i) {
      row[i] = static_cast<float>(clean[static_cast<std::size_t>(i)] +
                                  sigma * g[i]);
    }
  }
}

}  // namespace origin::data
