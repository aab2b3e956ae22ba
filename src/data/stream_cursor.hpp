// Streaming stream generation: slot windows synthesized on demand from a
// pooled ring of buffers instead of a fully materialized data::Stream.
//
// A 4000-slot stream holds 4000 x 3 x [6 x 64] float windows (~18 MB);
// the simulator only ever looks at the current slot, so a fleet job's
// working set is really O(ring), not O(slots). StreamCursor keeps
// the make_stream state machine (Markov segments, style anchors,
// ambiguous-episode process) and synthesizes each slot exactly when it is
// first requested, recycling ring slots whose tensors are reshaped in
// place — zero steady-state allocation. make_stream itself drains a
// cursor, so the two can never diverge: cursor slots are bit-identical to
// the materialized stream by construction.
#pragma once

#include <cstdint>
#include <vector>

#include "data/dataset.hpp"

namespace origin::data {

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
  /// (the serve tier re-requests the slot just stepped), while keeping the
  /// working set ~100x smaller than a default-length materialized stream.
  static constexpr int kDefaultRingCapacity = 40;

  /// Two-phase form for pooling: allocates the ring, binds no user yet.
  /// Call rebind() before the first slot() access.
  StreamCursor(DatasetSpec spec, int num_slots, StreamConfig config = {},
               int ring_capacity = kDefaultRingCapacity);

  /// Ready-to-read cursor for one (user, seed) stream.
  StreamCursor(DatasetSpec spec, int num_slots, const UserProfile& user,
               std::uint64_t seed, StreamConfig config = {},
               int ring_capacity = kDefaultRingCapacity);

  /// Re-targets the cursor at another (user, seed) stream, reusing the
  /// ring buffers and segment storage. This is the fleet runner's per-job
  /// reset: after the first job a worker's cursor never allocates again.
  void rebind(const UserProfile& user, std::uint64_t seed);

  /// Rewinds to slot 0 of the current stream (same seed, same bits).
  void reset();

  const DatasetSpec& spec() const override { return spec_; }
  std::size_t size() const override {
    return static_cast<std::size_t>(num_slots_);
  }
  /// Synthesizes forward as needed. Throws std::logic_error when asked
  /// for a slot that has already been recycled (i + lookback() behind).
  const SlotSample& slot(std::size_t i) override;
  std::size_t lookback() const override {
    return ring_.size();
  }

  const UserProfile& user() const { return user_; }
  const std::vector<ActivitySegment>& segments() const { return segments_; }
  /// Slots synthesized so far (the exclusive upper end of the window).
  std::size_t generated() const { return next_; }

 private:
  void advance();  // synthesize slot next_ into the ring

  DatasetSpec spec_;
  StreamConfig config_;
  int num_slots_ = 0;
  UserProfile user_;
  std::uint64_t seed_ = 0;
  std::optional<SignalModel> model_;
  std::vector<ActivitySegment> segments_;
  util::Rng rng_{0};
  /// RNG state right after segment generation; reset() rewinds to it so a
  /// replay draws the exact same per-slot sequence.
  util::Rng rng_checkpoint_{0};

  std::vector<SlotSample> ring_;  // slot i lives at ring_[i % capacity]
  std::size_t next_ = 0;          // slots generated so far

  // make_stream's per-stream state machine.
  int anchor_gap_ = 1;
  double u_prev_ = 0.0, u_next_ = 0.0;
  double g_prev_ = 0.0, g_next_ = 0.0;
  bool amb_active_ = false;
  SharedStyle episode_;
  Activity episode_activity_ = Activity::Walking;
};

}  // namespace origin::data
