// Dataset builders: i.i.d. labeled windows for training/calibration, and
// time-continuous multi-sensor streams (Markov activity sequence) for the
// scheduling/ensemble simulations. A slot served by a StreamCursor
// synthesizes each window on its first read (see SlotSample); a
// materialized Stream holds every window.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "data/activity.hpp"
#include "data/markov.hpp"
#include "data/signal_model.hpp"
#include "data/user_profile.hpp"
#include "nn/trainer.hpp"

namespace origin::data {

namespace detail {
class CursorState;
}
class SynthesisContext;

/// What a keyed slot's windows are a pure function of, beside its
/// stream's SynthesisContext: SynthesisContext::synthesize(recipe, s)
/// rebuilds sensor s's window bit for bit long after the slot has left
/// the cursor's ring. About 64 bytes, against 4.6 KB for the three
/// windows.
struct SlotRecipe {
  Activity activity = Activity::Walking;
  double t0_s = 0.0;
  /// The per-instant style all three windows share.
  SharedStyle style;
  /// util::derive_key(stream seed, slot); a window's key is
  /// util::derive_key(key, sensor).
  std::uint64_t key = 0;
};

/// One scheduler slot of the synchronized body-area network stream: the
/// ground-truth activity and the window each sensor would sample.
///
/// A slot served by a StreamCursor is lazy: it holds its slot key, and
/// each window is Pending until its first window() read synthesizes it
/// from its own key (util::derive_key(slot key, sensor)). A sensor that
/// never samples never costs anything, and the windows can be read in any
/// order while the slot is in the cursor's ring. Copying a slot
/// materializes it: the copy holds all three windows and its recipe, but
/// no hook into the cursor, so it has no context(). (A move is a copy, so
/// a cursor's ring entry can never be moved out from under it.)
struct SlotSample {
  int label = 0;
  Activity activity = Activity::Walking;
  double t0_s = 0.0;
  /// True when this instant was a whole-body ambiguous moment (analysis
  /// only; policies never see it).
  bool ambiguous = false;

  SlotSample() = default;
  SlotSample(const SlotSample& other);
  SlotSample& operator=(const SlotSample& other);

  /// Sensor `s`'s window, synthesized on the first read. The reference
  /// stays valid as long as the slot does.
  const nn::Tensor& window(std::size_t s) const {
    return state_[s] == WindowState::Ready ? windows_[s] : read_lazy(s);
  }

  SlotRecipe recipe() const { return {activity, t0_s, style_, key_}; }
  /// The synthesis context that rebuilds this slot's windows from
  /// recipe(): the owning cursor's, for a slot it serves; null for a
  /// materialized slot, which cannot re-synthesize. Throws
  /// std::logic_error for a slot retired by a reset or rebind.
  std::shared_ptr<const SynthesisContext> context() const;

 private:
  friend class detail::CursorState;

  enum class WindowState : std::uint8_t {
    Ready,    // windows_[s] holds the window
    Pending,  // synthesized from the slot key on the first read
  };

  const nn::Tensor& read_lazy(std::size_t s) const;

  std::array<nn::Tensor, kNumSensors> windows_;
  std::array<WindowState, kNumSensors> state_{};
  /// Lazy slots only: the owning cursor's synthesis state and the cursor
  /// generation the slot was opened in (reset and rebind retire it).
  detail::CursorState* cursor_ = nullptr;
  std::uint64_t generation_ = 0;
  /// The recipe's style and key.
  SharedStyle style_;
  std::uint64_t key_ = 0;
};

struct Stream {
  DatasetSpec spec;
  UserProfile user;
  std::vector<ActivitySegment> segments;
  std::vector<SlotSample> slots;

  double duration_s() const {
    return static_cast<double>(slots.size()) * spec.slot_seconds();
  }
};

/// Labeled i.i.d. windows (`per_class` each) for one sensor location. Each
/// window draws its start time, style and window key from one Rng(seed).
nn::Samples make_training_set(const DatasetSpec& spec, SensorLocation loc,
                              int per_class, const UserProfile& user,
                              std::uint64_t seed);

struct StreamConfig {
  MarkovConfig markov;
  /// If set, white Gaussian noise at this SNR (dB) is added to every
  /// window (Fig. 6's noisy unseen-user condition), keyed by the window.
  std::optional<double> snr_db;
  /// Execution style evolves smoothly: new style anchors are drawn every
  /// this many slots and interpolated between (people drift in and out of
  /// sloppy form over seconds, not per 0.5 s window).
  int style_anchor_slots = 4;
  /// Whole-body ambiguous episodes: mean episode length and mean gap
  /// between episodes, in seconds (duty ~= len / (len + gap)).
  double ambiguous_len_s = 2.5;
  double ambiguous_gap_s = 5.0;
};

/// A `num_slots`-slot synchronized stream for all three sensors.
Stream make_stream(const DatasetSpec& spec, int num_slots,
                   const UserProfile& user, std::uint64_t seed,
                   const StreamConfig& config = {});

/// Per-class sample counts of a training set (sanity checks / tests).
std::vector<int> class_histogram(const nn::Samples& samples, int num_classes);

}  // namespace origin::data
