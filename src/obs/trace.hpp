// One event log for every layer: simulator slots (schedule, energy,
// attempts, votes, fusion, output), fleet job spans and the serving
// tier's flight events share one packed record, TraceEvent, and one way
// to record it:
//
//   FlightLog      — one per owner: a traced run_policy run, a fleet
//                    shard, a session-table shard. Plain vector append, no
//                    locks; the owner is its only writer, exactly like a
//                    MetricsShard.
//   FlightRecorder — the folded, bounded ring. Owners fold their logs into
//                    it in a fixed order (fleet and serve shards in shard
//                    index order, after their batch), so every trace is a
//                    pure function of the workload, never of the thread
//                    count. Oldest events drop first; the drop count is
//                    kept so exports stay honest.
//
// Pluggable sinks render the ring's events as JSONL (grep/jq-friendly) or
// Chrome trace_event JSON (chrome://tracing and Perfetto). Labels travel
// as codes in the record — a schedule's sensor list in one byte, a job's
// label as an interned id — and the sinks print them as text.
//
// Instrumentation sites use the ORIGIN_TRACE(log, call) macro: a null log
// skips the call (null-object pattern — the uninstrumented path allocates
// nothing), and building with -DORIGIN_TRACE=OFF compiles the call sites
// out entirely (bench/obs_overhead pins the zero-cost claim). The classes
// themselves stay functional in both configurations so their tests always
// run.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <type_traits>
#include <vector>

#ifndef ORIGIN_TRACE_ENABLED
#define ORIGIN_TRACE_ENABLED 1
#endif

#if ORIGIN_TRACE_ENABLED
#define ORIGIN_TRACE(log, call) \
  do {                          \
    if (log) (log)->call;       \
  } while (0)
#else
#define ORIGIN_TRACE(log, call) \
  do {                          \
    (void)(log);                \
  } while (0)
#endif

namespace origin::obs {

inline constexpr bool kTraceEnabled = ORIGIN_TRACE_ENABLED != 0;

enum class EventKind : std::uint8_t {
  Schedule,  // plan for one slot: which sensors attempt, fallback hops
  Energy,    // one node's stored energy at slot start (counter series)
  Attempt,   // one sensor's attempt and its completion/failure cause
  Vote,      // one ballot entering fusion (fresh or recalled), with weight
  Fusion,    // fusion diagnostics: winning/runner-up weight totals, ties
  Output,    // the slot's fused system output vs. ground truth
  Job,       // fleet: one simulation job's wall-clock span
  // Serving-tier flight kinds. Every field of these events is a pure
  // function of the workload — virtual serve-time, never wall clock — so
  // folded streams participate in the serve determinism contract.
  Admit,       // session admitted into its home shard
  Step,        // one served slot: fused output + stored-energy levels
  Hop,         // the slot's schedule fell back (count = hops taken)
  NvpSave,     // NVP checkpoint(s) taken during the slot (count = how many)
  NvpRestore,  // NVP restore(s) paid during the slot (count = how many)
  SessionEnd,  // session completed/evicted with its final aggregates
};

const char* to_string(EventKind kind);

/// Why an attempt ended the way it did (mirrors net::NodeCounters).
enum class AttemptOutcome : std::uint8_t {
  Completed,
  SkippedNoEnergy,  // wait-compute: stored energy below the inference cost
  DiedMidway,       // charge ran out mid-inference (progress kept on NVP)
  InProgress,       // eager attempt still accumulating checkpointed work
};

const char* to_string(AttemptOutcome outcome);

/// A schedule's ordered sensor list in one byte: the count in bits 6–7,
/// sensor i in bits 2i..2i+1. Throws std::invalid_argument for more than
/// three sensors or a sensor outside [0, 3].
std::uint8_t pack_sensors(const std::vector<int>& sensors);
/// The list `packed` stands for, as the sinks print it ("s2,s0").
std::string sensors_label(std::uint8_t packed);

/// Job labels travel as small codes. intern_label returns the code of
/// `label`, which must have static storage duration (the fleet passes
/// sim::to_string and core::to_string literals); equal strings share a
/// code. Lock-free; throws std::length_error past 64 distinct labels.
int intern_label(const char* label);
/// The label `code` stands for; "" for -1 or a code never interned.
const char* label_text(int code);

/// One event, packed and trivially copyable. Field meaning depends on
/// `kind`; unused fields stay at their defaults. `track` selects the
/// Chrome trace lane (sensor index for sim events, shard index for fleet
/// and serve events).
struct TraceEvent {
  /// Serving session id for the flight kinds; -1 elsewhere.
  std::int64_t session = -1;
  std::int64_t slot = -1;  // sim slot / job index / served slot or tick
  double t0_s = 0.0;       // start time (sim or serve time; wall for Job)
  double dur_s = 0.0;      // span (0 for instants)
  double value = 0.0;      // stored J / vote weight / top total / accuracy
  double aux = 0.0;        // cost J / vote age s / runner-up total / ...
  int track = 0;
  int cls = -1;   // predicted/fused class; Job: label code (intern_label)
  int count = 0;  // fallback hops / ballots / truth / slots
  EventKind kind = EventKind::Schedule;
  std::uint8_t outcome = 0;  // AttemptOutcome for Attempt events
  std::uint8_t sensors = 0;  // Schedule: pack_sensors of the plan
  bool flag = false;  // Vote: fresh; Fusion: tie-break; Output/Step: correct

  bool operator==(const TraceEvent&) const = default;
};
static_assert(std::is_trivially_copyable_v<TraceEvent>);
static_assert(sizeof(TraceEvent) <= 64);

/// One owner's private event buffer until its next fold. Cheap to create,
/// no interior locking.
class FlightLog {
 public:
  // Simulator (SlotStepper and the fusing policies) ----------------------
  void schedule(std::int64_t slot, double t0_s, double dur_s,
                const std::vector<int>& sensors, int fallback_hops);
  void energy(std::int64_t slot, double t0_s, int sensor, double stored_j,
              double cost_j);
  void attempt(std::int64_t slot, double t0_s, double dur_s, int sensor,
               AttemptOutcome outcome, int cls, double confidence,
               double stored_j);
  void vote(std::int64_t slot, double t0_s, int sensor, int cls, double weight,
            double age_s, bool fresh);
  void fusion(std::int64_t slot, double t0_s, int cls, double top_total,
              double second_total, int ballots, bool tie_break);
  void output(std::int64_t slot, double t0_s, double dur_s, int predicted,
              int truth);
  // Fleet (FleetRunner) ---------------------------------------------------
  void job(std::int64_t job_index, double t0_s, double dur_s, int shard,
           const char* label);
  // Serving tier (SessionTable and ServeLoop) -----------------------------
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

  const std::vector<TraceEvent>& events() const { return events_; }
  std::size_t size() const { return events_.size(); }
  void clear() { events_.clear(); }

 private:
  std::vector<TraceEvent> events_;
};

/// The folded, bounded event ring: one contiguous buffer of at most
/// `capacity` events that, once full, overwrites its oldest at `head_`.
/// NOT internally synchronized: fold() and the query surface belong to
/// one thread at a time (the serving loop guards them with its publish
/// mutex, which is also what makes a query see complete rounds only).
class FlightRecorder {
 public:
  explicit FlightRecorder(std::size_t capacity = 1 << 15);

  /// Appends `log`'s events to the ring (dropping oldest past capacity)
  /// and clears the log. Call once per owner, in the owners' fixed order.
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
  /// The i-th buffered event, oldest first.
  const TraceEvent& at(std::size_t i) const;

  std::size_t capacity_;
  /// Grows to capacity_, then stays full; the oldest event is at head_.
  std::vector<TraceEvent> ring_;
  std::size_t head_ = 0;
  std::uint64_t dropped_ = 0;
};

// ------------------------------------------------------------------ sinks

class TraceSink {
 public:
  virtual ~TraceSink() = default;
  /// Renders `events` (oldest first; `dropped` were lost to the ring).
  virtual void write(const std::vector<TraceEvent>& events,
                     std::uint64_t dropped, std::ostream& os) const = 0;
};

/// One JSON object per line; first line is a header with the drop count.
class JsonlSink : public TraceSink {
 public:
  void write(const std::vector<TraceEvent>& events, std::uint64_t dropped,
             std::ostream& os) const override;
};

/// Chrome trace_event JSON ({"traceEvents": [...]}): spans as "X" duration
/// events, energy as "C" counter series, votes as instants. Lanes
/// (pid/tid) are named via metadata so Perfetto shows "simulator/sensor
/// 0", "fleet/shard 3", etc. Timestamps are microseconds (sim or serve
/// time, wall time since run start for jobs).
class ChromeTraceSink : public TraceSink {
 public:
  void write(const std::vector<TraceEvent>& events, std::uint64_t dropped,
             std::ostream& os) const override;
};

/// Drains `recorder` through `sink` into `path`. Throws std::runtime_error
/// if the file cannot be written.
void write_trace(const FlightRecorder& recorder, const TraceSink& sink,
                 const std::string& path);

}  // namespace origin::obs
