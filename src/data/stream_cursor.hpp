// Streaming stream generation: slot windows synthesized on demand from a
// pooled ring of buffers instead of a fully materialized data::Stream.
//
// A 4000-slot stream holds 4000 x 3 x [6 x 64] float windows (~18 MB);
// the simulator only ever looks at the current slot, so a fleet job's
// working set is really O(ring), not O(slots). StreamCursor keeps
// the make_stream state machine (Markov segments, style anchors,
// ambiguous-episode process) and advances it exactly when a slot is
// first requested, recycling ring slots whose tensors are reshaped in
// place — zero steady-state allocation. make_stream itself drains a
// cursor, so the two can never diverge: cursor slots are bit-identical to
// the materialized stream by construction.
//
// Windows are lazy and keyed. The per-slot draws (style anchors and the
// ambiguous-episode process, after the Markov segments) come from the one
// sequential stream RNG, in slot order. A window draws nothing from it:
// its phase, wobble and noise are functions of its key,
// util::derive_key(slot key, sensor), where the slot key is
// util::derive_key(stream seed, slot). So a window is synthesized only
// when SlotSample::window() reads it, in any order, while its slot is in
// the ring, and a window nobody reads costs nothing. A scheduled run
// therefore synthesizes only the windows its nodes sample, with the same
// bits as make_stream.
//
// A window is the pure function SynthesisContext::synthesize(recipe,
// sensor): the context is the stream's immutable half (signal model and
// SNR), the SlotRecipe the slot's (activity, start time, style, key). The
// cursor shares its context with every slot it serves, so a consumer that
// keeps a slot's recipe and the context can rebuild its windows after the
// ring has recycled the slot (the personalizer's sample buffer does).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "data/dataset.hpp"

namespace origin::data {

/// The immutable half of a bound stream: its user's signal model and the
/// SNR of the added noise. A cursor makes one per rebind() and hands it
/// out by shared_ptr, so a holder can rebuild any window of that stream
/// from the slot's recipe for as long as it keeps the pointer.
class SynthesisContext {
 public:
  SynthesisContext(DatasetSpec spec, const UserProfile& user,
                   std::optional<double> snr_db);

  /// Sensor `sensor`'s window of the slot `recipe` describes, into `out`
  /// (reshaped in place): the bits SlotSample::window(sensor) serves, SNR
  /// noise included.
  void synthesize(const SlotRecipe& recipe, std::size_t sensor,
                  nn::Tensor& out) const;

 private:
  SignalModel model_;
  std::optional<double> snr_db_;
};

/// A sequence of stream slots the simulator can consume without caring
/// whether it is materialized or generated on the fly. Access is
/// forward-moving: requesting slot i may invalidate slots at indices
/// <= i - lookback().
class SlotSource {
 public:
  virtual ~SlotSource() = default;
  virtual const DatasetSpec& spec() const = 0;
  virtual std::size_t size() const = 0;
  /// Slot i. References stay valid while i stays within lookback() of the
  /// highest index requested so far.
  virtual const SlotSample& slot(std::size_t i) = 0;
  /// How far behind the highest requested index references remain valid.
  virtual std::size_t lookback() const = 0;
};

/// Adapter over a fully materialized Stream (everything stays valid).
class StreamSlotSource final : public SlotSource {
 public:
  /// `stream` is borrowed and must outlive the source.
  explicit StreamSlotSource(const Stream& stream) : stream_(&stream) {}
  const DatasetSpec& spec() const override { return stream_->spec; }
  std::size_t size() const override { return stream_->slots.size(); }
  const SlotSample& slot(std::size_t i) override { return stream_->slots[i]; }
  std::size_t lookback() const override { return size(); }

 private:
  const Stream* stream_;
};

/// On-demand generator of the make_stream slot sequence.
class StreamCursor final : public SlotSource {
 public:
  /// Ring default: ample lookback for consumers that re-read recent slots
  /// (the baseline runners gather blocks of up to 32 slots), while keeping
  /// the working set ~100x smaller than a default-length materialized
  /// stream.
  static constexpr int kDefaultRingCapacity = 40;

  /// Two-phase form for pooling: allocates the ring, binds no user yet.
  /// Call rebind() before the first slot() access.
  StreamCursor(DatasetSpec spec, int num_slots, StreamConfig config = {},
               int ring_capacity = kDefaultRingCapacity);

  /// Ready-to-read cursor for one (user, seed) stream.
  StreamCursor(DatasetSpec spec, int num_slots, const UserProfile& user,
               std::uint64_t seed, StreamConfig config = {},
               int ring_capacity = kDefaultRingCapacity);

  /// Moves keep every served slot live: ring entries point at synthesis
  /// state on the heap, not at the cursor object.
  StreamCursor(StreamCursor&&) noexcept;
  StreamCursor& operator=(StreamCursor&&) noexcept;
  ~StreamCursor() override;

  /// Re-targets the cursor at another (user, seed) stream, reusing the
  /// ring buffers and segment storage. This is the fleet runner's per-job
  /// reset: after the first job a worker's cursor allocates only the new
  /// stream's SynthesisContext.
  void rebind(const UserProfile& user, std::uint64_t seed);

  /// Rewinds to slot 0 of the current stream (same seed, same bits).
  /// Slots served before the rewind are no longer live.
  void reset();

  const DatasetSpec& spec() const override { return spec_; }
  std::size_t size() const override {
    return static_cast<std::size_t>(num_slots_);
  }
  /// Advances forward as needed. Throws std::logic_error when asked for a
  /// slot that has already been recycled (i + lookback() behind). The
  /// slot's windows are synthesized on their first window() read.
  const SlotSample& slot(std::size_t i) override;
  std::size_t lookback() const override;

  const UserProfile& user() const { return user_; }
  /// The bound stream's synthesis context (null before the first
  /// rebind()); every slot served since the last rebind() shares it.
  const std::shared_ptr<const SynthesisContext>& context() const;
  const std::vector<ActivitySegment>& segments() const { return segments_; }
  /// Slots advanced so far (the exclusive upper end of the window).
  std::size_t generated() const { return next_; }
  /// Windows synthesized since the last rebind() or reset(): one per
  /// window read, whatever the read order.
  std::uint64_t windows_synthesized() const;

 private:
  void advance();  // draw slot next_'s per-slot state into the ring

  DatasetSpec spec_;
  StreamConfig config_;
  int num_slots_ = 0;
  UserProfile user_;
  std::uint64_t seed_ = 0;
  std::vector<ActivitySegment> segments_;
  /// The stream RNG of the per-slot draws, and its state right after
  /// segment generation: reset() rewinds to it so a replay draws the
  /// exact same per-slot sequence.
  util::Rng rng_{0};
  util::Rng rng_checkpoint_{0};
  /// Synthesis context and ring.
  std::unique_ptr<detail::CursorState> state_;
  std::size_t next_ = 0;  // slots advanced so far

  // make_stream's per-stream state machine.
  int anchor_gap_ = 1;
  double u_prev_ = 0.0, u_next_ = 0.0;
  double g_prev_ = 0.0, g_next_ = 0.0;
  bool amb_active_ = false;
  SharedStyle episode_;
  Activity episode_activity_ = Activity::Walking;
};

}  // namespace origin::data
