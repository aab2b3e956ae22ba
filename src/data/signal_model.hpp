// Synthetic IMU signal synthesis — the stand-in for MHEALTH/PAMAP2
// recordings (see DESIGN.md, substitution table).
//
// Each (activity, body location) pair has a deterministic quasi-periodic
// *signature*: per-channel DC (gravity/orientation), fundamental frequency
// with two harmonics, and phases. What makes the classification problem
// location-dependent — the property Origin's scheduler exploits — is the
// *distinctiveness* table: at a weakly-expressive location the signature is
// blended toward a confusable neighbour activity, so the local classifier
// genuinely confuses them (ankle is best overall, chest wins for climbing,
// wrist is weakest — the Fig. 2 structure).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>

#include "data/activity.hpp"
#include "data/user_profile.hpp"
#include "nn/tensor.hpp"
#include "util/rng.hpp"

namespace origin::data {

inline constexpr int kImuChannels = 6;  // 3-axis accel + 3-axis gyro

struct ActivitySignature {
  double fundamental_hz = 1.0;
  std::array<double, kImuChannels> dc{};
  std::array<double, kImuChannels> amp1{};   // fundamental
  std::array<double, kImuChannels> amp2{};   // 2nd harmonic
  std::array<double, kImuChannels> amp3{};   // 3rd harmonic
  std::array<double, kImuChannels> phase{};
};

/// Deterministic signature for (activity, location). Stable across runs.
ActivitySignature signature(Activity a, SensorLocation loc);

/// How cleanly `a` expresses at `loc`, in (0, 1]. Drives confusability.
double distinctiveness(Activity a, SensorLocation loc);

/// The activity whose signature bleeds into `a` at a weakly-expressive
/// location. The confusion target depends on the location (an ankle
/// confuses walking with climbing stairs; a wrist confuses it with the
/// arm swing of jogging) — this decorrelates the three sensors' errors,
/// which is what makes their ensemble worth having (Fig. 2's majority
/// voting beats every individual sensor).
Activity confusable_neighbor(Activity a, SensorLocation loc);

/// Per-location sensor noise floor (standard deviation, signal units).
double noise_sigma(SensorLocation loc);

/// How the wearer happens to execute the activity during one window: the
/// blend factor toward the confusable neighbour and the cadence deviation.
/// These are properties of the *person at that instant*, so a stream
/// generator draws one SharedStyle per slot and applies it to all three
/// sensors — making hard moments hard for every sensor simultaneously
/// (correlated ensemble errors, as on real bodies).
struct SharedStyle {
  /// Multiplies the location weakness to produce the blend factor;
  /// nominal range U(0.8, 2.4).
  double blend_u = 1.5;
  /// Standard-normal draw scaling the cadence jitter.
  double cadence_g = 0.0;
  /// Whole-body ambiguous moment: the motion genuinely resembles another
  /// activity (a jog-walk shuffle, a skipping climb) for *every* sensor at
  /// once — the dominant source of correlated ensemble errors.
  std::optional<Activity> ambiguous_with;
  /// Mixture weight of the ambiguous activity in (0, 1).
  double ambiguity_mix = 0.0;
};

/// Draws the style of one instant of `a`: with probability `p_ambiguous`
/// the moment is a whole-body mixture with an intensity-adjacent activity
/// of the dataset.
SharedStyle draw_shared_style(const DatasetSpec& spec, Activity a,
                              util::Rng& rng, double p_ambiguous = 0.33);

/// Synthesizes windows of IMU data for one user.
///
/// A window is a pure function of its inputs and a 64-bit window key: the
/// key gives the window phase (util::key_uniform) and, through the keyed
/// noise fill nn::kernels::gauss_fill, the amplitude wobble and then one
/// noise value per sample, channel-major. Nothing is drawn from a
/// sequential stream, so a window nobody reads costs nothing and windows
/// can be synthesized in any order. The path calls no libm function: the
/// sinusoids are util::det_sin and the noise is Box–Muller on det_log /
/// det_sin. Per-(activity, location) signature tables are cached, a
/// shared time grid and per-window invariants are hoisted out of the
/// inner loop, and the waveform runs through the synth_channel kernel.
/// tests/test_data_golden.cpp keeps the plain scalar loop as the oracle
/// and pins checksums.
class SignalModel {
 public:
  SignalModel(DatasetSpec spec, UserProfile user);

  /// One [channels, window_len] window of activity `a` at location `loc`
  /// starting at absolute time `t0_s`, drawn from `key` under the shared
  /// per-instant `style`.
  nn::Tensor window(Activity a, SensorLocation loc, double t0_s,
                    std::uint64_t key, const SharedStyle& style) const;

  /// window() into a caller-provided buffer: `out` is reshaped in place
  /// (pooled callers never reallocate in steady state) and every element
  /// overwritten.
  void synthesize_window(nn::Tensor& out, Activity a, SensorLocation loc,
                         double t0_s, std::uint64_t key,
                         const SharedStyle& style) const;

  const DatasetSpec& spec() const { return spec_; }
  const UserProfile& user() const { return user_; }
  /// The user's fixed per-channel phase habit (added to the window phase).
  const std::array<double, kImuChannels>& user_phase() const {
    return user_phase_;
  }

 private:
  DatasetSpec spec_;
  UserProfile user_;
  std::array<double, kImuChannels> user_phase_{};
};

}  // namespace origin::data
