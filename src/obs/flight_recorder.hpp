// Flight recorder for the serving tier: a bounded ring of structured
// per-session lifecycle and slot events (admit, slot-step outcome with
// stored-energy levels, fallback hops, NVP checkpoint/restore, session
// completion). Recording is split in two so the hot path stays lock-free:
//
//   FlightLog      — one per unit of parallel work (a session-table
//                    shard). Plain vector append, no locks; exclusivity
//                    is the serving loop's, exactly like MetricsShard.
//   FlightRecorder — the folded ring. The publisher folds every shard's
//                    log in shard-index order under its publish mutex, so
//                    the event stream is a pure function of the workload
//                    and the tick chunking — bit-identical at any thread
//                    count. Oldest events drop first; the drop count is
//                    kept so exports stay honest.
//
// Each event is stored as a FlightRecord: the fields the flight kinds set,
// packed into 64 bytes, in one contiguous ring. Queries return them as
// obs::TraceEvents (the serve-specific kinds of EventKind), so the JSONL
// and Chrome trace_event sinks render flight streams unchanged.
// Timestamps are virtual serve-time (tick x slot seconds), never wall
// clock.
//
// Instrumentation sites use the same ORIGIN_TRACE(log, call) macro as the
// simulator: a null log skips the call, and -DORIGIN_TRACE=OFF compiles
// the sites out entirely (bench/obs_overhead pins the zero-cost claim).
// The classes themselves stay functional in both configurations so their
// tests always run.
#pragma once

#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "obs/trace.hpp"

namespace origin::obs {

/// One flight event, packed: exactly the fields the six flight kinds set
/// (see the FlightLog helpers), at their TraceEvent defaults when a kind
/// leaves them unset. TraceEvent adds the sim-only `outcome` and `label`,
/// which flight events never carry.
struct FlightRecord {
  std::int64_t session = -1;
  std::int64_t slot = -1;
  double t0_s = 0.0;
  double dur_s = 0.0;
  double value = 0.0;
  double aux = 0.0;
  int track = 0;
  int cls = -1;
  int count = 0;
  EventKind kind = EventKind::Mark;
  bool flag = false;

  /// The TraceEvent this record stands for.
  TraceEvent event() const;
};
static_assert(std::is_trivially_copyable_v<FlightRecord>);
static_assert(sizeof(FlightRecord) <= 64);

/// One shard's private event buffer for the current publish round. Cheap
/// to create, no interior locking. The typed helpers mirror
/// TraceRecorder's: they fill a FlightRecord and append.
class FlightLog {
 public:
  void admit(std::int64_t session, int shard, double t0_s,
             std::int64_t arrival_tick, int slots_total);
  void step(std::int64_t session, int shard, double t0_s, double dur_s,
            std::int64_t slot, int predicted, int truth,
            double stored_total_j, double stored_min_j);
  void hop(std::int64_t session, int shard, double t0_s, std::int64_t slot,
           int hops);
  void nvp_save(std::int64_t session, int shard, double t0_s,
                std::int64_t slot, int sensor, int times);
  void nvp_restore(std::int64_t session, int shard, double t0_s,
                   std::int64_t slot, int sensor, int times);
  void session_end(std::int64_t session, int shard, double t0_s,
                   std::int64_t completed_tick, int slots, double accuracy,
                   double success_rate_pct, bool completed);

  const std::vector<FlightRecord>& events() const { return events_; }
  std::size_t size() const { return events_.size(); }
  void clear() { events_.clear(); }

 private:
  std::vector<FlightRecord> events_;
};

/// The folded, bounded event ring: one contiguous buffer of at most
/// `capacity` records that, once full, overwrites its oldest at `head_`.
/// NOT internally synchronized: fold() and the query surface belong under
/// one external mutex (the serving loop's publish mutex), which is also
/// what makes a query see complete rounds only.
class FlightRecorder {
 public:
  explicit FlightRecorder(std::size_t capacity = 1 << 15);

  /// Appends `log`'s events to the ring (dropping oldest past capacity)
  /// and clears the log. Call per shard, in shard-index order.
  void fold(FlightLog& log);

  /// Buffered events, oldest first.
  std::vector<TraceEvent> events() const;
  /// The most recent `n` events, oldest first.
  std::vector<TraceEvent> recent(std::size_t n) const;
  /// All buffered events of one session, oldest first.
  std::vector<TraceEvent> session(std::uint64_t id) const;

  std::size_t size() const { return ring_.size(); }
  std::size_t capacity() const { return capacity_; }
  /// Events lost to the ring bound.
  std::uint64_t dropped() const { return dropped_; }
  void clear();

 private:
  /// The i-th buffered record, oldest first.
  const FlightRecord& at(std::size_t i) const;

  std::size_t capacity_;
  /// Grows to capacity_, then stays full; the oldest record is at head_.
  std::vector<FlightRecord> ring_;
  std::size_t head_ = 0;
  std::uint64_t dropped_ = 0;
};

}  // namespace origin::obs
