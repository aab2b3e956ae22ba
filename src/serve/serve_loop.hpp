// ServeLoop: the long-lived fleet-serving loop. Turns the batch fleet
// simulator into a persistent service: sessions are admitted at runtime
// under an open-loop arrival schedule over a deterministic virtual clock
// (one tick = one stream slot), advanced one slot per tick in sharded
// session tables on a reused fleet::ThreadPool (the driver thread is one
// of its participants), and evicted on completion. A tick() is a shard
// batch (one pool task per shard, serving ahead until the call's end or
// its first tick that makes a fine-tune due), then, while fits are
// queued, fit batches (one pool task per sensor of every queued fit; a
// shard's last one books its fits and serves the shard on); then it
// publishes (DESIGN.md §11). All published outputs
// — the JSONL results stream, the completed-session log, the
// deterministic metrics — are folded in shard-index order, so they are
// bit-identical at any --threads and across a snapshot/restore split
// (see snapshot.cpp).
//
// Thread model: tick()/drain()/restore() belong to one driver thread;
// the const query surface (status, summaries, results, metrics) is safe
// from any thread at any time — it reads state published under the
// mutex at the end of each tick.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "fleet/thread_pool.hpp"
#include "obs/trace.hpp"
#include "obs/metrics.hpp"
#include "serve/arrival.hpp"
#include "serve/session_table.hpp"

namespace origin::serve {

struct ServeConfig {
  /// Sessions the process admits over its lifetime.
  std::size_t users = 64;
  /// Open-loop arrival rate (sessions per virtual second) and seed.
  double arrival_rate_hz = 4.0;
  std::uint64_t arrival_seed = 0x0A221BA1ULL;
  /// Population derivation (user profiles + stream seeds), mirroring
  /// fleet::make_population's per-user hashing.
  std::uint64_t population_seed = 0xF1EE7ULL;
  double severity = 0.5;
  sim::PolicyKind policy = sim::PolicyKind::Origin;
  int rr_cycle = 12;
  sim::ModelSet set = sim::ModelSet::BL2;
  /// Inference word width for the deployed per-sensor networks: 32 serves
  /// the float path; [2, 8] switches every shard's model copies to int8
  /// weight storage + int32-accumulation GEMMs
  /// (Sequential::set_inference_bits). Changes results, so it is part of
  /// the snapshot fingerprint.
  int bits = 32;
  /// Threads serving shards, counting the driver thread that calls
  /// tick(); <= 1 serves every shard on the driver thread. Never affects
  /// results.
  unsigned threads = 1;
  /// Session-table shards. Part of the determinism fingerprint (the
  /// publish fold order), unlike threads.
  std::size_t shards = 8;
  /// Slots each session's stream cursor keeps live. Serving reads only
  /// the slot it steps, and the personalizer keeps that slot's recipe
  /// rather than its windows (its fits re-synthesize them), so a short
  /// ring suffices; a longer one only adds window buffers that every
  /// session allocates, lets go cold and frees when it ends.
  int ring_capacity = 4;
  /// In-shard bounded per-user fine-tuning (serve/personalize.hpp).
  /// Changes results, so every field is part of the snapshot fingerprint.
  /// Requires bits == 32 (fine-tuning trains float weights; int8 copies
  /// would serve stale quantized weights).
  PersonalizeConfig personalize;
  /// Recent-results ring exposed on /results (older records are dropped;
  /// seq numbers keep the stream gap-free for consumers that care).
  std::size_t results_capacity = 4096;
  /// Flight-recorder ring capacity (admit/step/hop/NVP/session-end events,
  /// oldest dropped first). 0 disables recording; a -DORIGIN_TRACE=OFF
  /// build compiles the recording sites out regardless. Never affects
  /// results, so it is excluded from the snapshot fingerprint. The ring
  /// reserves 64 bytes per event up front (2 MiB at the default); its
  /// pages become resident as events land.
  std::size_t flight_capacity = 1 << 15;
};

class ServeLoop {
 public:
  ServeLoop(const sim::Experiment& experiment, ServeConfig config);

  /// Advances the virtual clock by `n` ticks: admits due arrivals, serves
  /// one slot per tick per active session, publishes the round.
  void tick(std::uint64_t n = 1);

  /// Ticks until every session has been admitted and completed.
  void drain(std::uint64_t chunk = 64);

  bool done() const;
  std::uint64_t now() const;

  struct Status {
    std::uint64_t now = 0;
    std::uint64_t admitted = 0;
    std::uint64_t active = 0;
    std::uint64_t completed = 0;
    std::uint64_t slots_served = 0;
    /// Cross-session batching: the GEMM panels run so far, the windows
    /// classified through them, and the mean windows per panel (0 while
    /// no panel has run).
    std::uint64_t batch_panels = 0;
    std::uint64_t batch_windows = 0;
    double batch_mean_occupancy = 0.0;
  };
  Status status() const;

  /// Always true: every tick is served through cross-session panels.
  /// Kept only for the repository benchmark's report (it records this
  /// value); goes away with the next change to that benchmark.
  bool serve_batch() const { return true; }

  /// SLO summary derived from the published metrics: slot-step and tick
  /// latency quantiles (wall clock — nondeterministic), admission backlog
  /// and realized throughput. Quantile fields are 0 until data arrives.
  struct Slo {
    double step_p50_us = 0.0, step_p95_us = 0.0, step_p99_us = 0.0;
    double tick_p50_ms = 0.0, tick_p95_ms = 0.0, tick_p99_ms = 0.0;
    /// Wall time of the fit batches (serve.fit_phase_seconds): how many
    /// ran and their quantiles.
    std::uint64_t fit_phases = 0;
    double fit_phase_p50_ms = 0.0, fit_phase_p95_ms = 0.0,
           fit_phase_p99_ms = 0.0;
    /// Sessions not yet admitted (config.users - admitted).
    std::uint64_t admission_backlog = 0;
    /// Completed sessions / served slots per wall-clock second spent in
    /// tick() so far.
    double sessions_per_s = 0.0;
    double slots_per_s = 0.0;
  };
  Slo slo() const;

  // --- Flight recorder (deterministic serve-tier event stream); empty
  // results when recording is disabled or compiled out.
  bool flight_enabled() const;
  std::vector<obs::TraceEvent> flight_events() const;
  std::vector<obs::TraceEvent> flight_recent(std::size_t n) const;
  std::vector<obs::TraceEvent> flight_session(std::uint64_t id) const;
  std::uint64_t flight_dropped() const;

  // --- Published query surface (endpoint.cpp); all return copies taken
  // under the publish mutex.
  obs::MetricsSnapshot metrics() const;
  std::vector<SessionSummary> session_summaries() const;
  std::optional<SessionSummary> session_summary(std::uint64_t id) const;
  /// Most recent served slots, oldest first, at most `tail` of them.
  std::vector<SlotRecord> recent_results(std::size_t tail) const;
  std::vector<CompletedSession> completed_sessions() const;

  /// Snapshot the full session table to `path` (versioned binary format,
  /// atomic `.tmp.<pid>` + rename). Call between ticks.
  void save(const std::string& path) const;
  /// Restores a snapshot into this freshly constructed loop (nothing
  /// admitted yet). The snapshot's config fingerprint must match this
  /// loop's workload config (threads may differ — they never affect
  /// results). Throws std::runtime_error on a corrupt or mismatched
  /// snapshot.
  void restore(const std::string& path);

  /// Gradient elements held by every shard's model copies and the
  /// fine-tuning engine's (Personalizer::grad_size, on this thread).
  /// Serving never trains those copies, so this stays 0. Call between
  /// ticks.
  std::size_t model_grad_size() const;

  const ServeConfig& config() const { return config_; }
  const sim::Experiment& experiment() const { return *experiment_; }
  const ArrivalSchedule& arrivals() const { return arrivals_; }

 private:
  /// Workload identity of session `id`, re-derived on admission and on
  /// snapshot restore (the snapshot stores only the id).
  SessionSpec make_spec(std::uint64_t id) const;
  /// Builds session `id` on its home shard's models, not yet admitted.
  std::unique_ptr<Session> make_session(std::uint64_t id);
  /// Hands `session` to its home shard (and records its admit event).
  void admit_session(std::unique_ptr<Session> session);
  /// Shard `i`'s serving: builds the sessions routed to it this tick()
  /// call (id order), then serves virtual ticks from shard_ticks_[i]
  /// until `to` or until a tick queues fits, and refreshes its summary
  /// rows once it reaches `to` with no fit queued. Touches only shard `i`
  /// and its slots in admits_, shard_ticks_ and shard_summaries_.
  void serve_shard(std::size_t i, std::uint64_t to);
  /// One fit batch, when any shard has fits queued (returns whether it
  /// ran): one pool task per (queued fit, sensor), in shard order, then
  /// admission order. The task that runs a shard's last sensor fit books
  /// the shard's fits in order at the tick that queued them, then serves
  /// the shard on (serve_shard), which may queue the next batch's fits.
  bool run_fits(std::uint64_t to);
  /// Folds the round logs of every shard in shard-index order under the
  /// publish mutex and refreshes the published views. `admission_seconds`
  /// is the tick's serial admission time, counted into the serial-section
  /// metric together with this fold.
  void publish_round(std::uint64_t to, double tick_seconds,
                     double admission_seconds);
  /// Records one completed session into the deterministic metrics shard
  /// (also replayed, in log order, on snapshot restore).
  void record_completed_metrics(const CompletedSession& record);
  /// Published views (summaries, status) and the metrics snapshot.
  void rebuild_published_locked();
  void rebuild_views_locked();
  void snapshot_metrics_locked();

  const sim::Experiment* experiment_;
  ServeConfig config_;
  ArrivalSchedule arrivals_;

  obs::MetricsRegistry registry_;
  obs::MetricId admitted_id_{}, completed_id_{}, slots_id_{};
  obs::MetricId accuracy_pct_id_{}, success_pct_id_{};
  obs::MetricId fine_tunes_id_{}, fine_tune_steps_id_{};
  obs::MetricId batch_panels_id_{}, batch_windows_id_{}, batch_occupancy_id_{};
  obs::MetricId step_seconds_id_{}, tick_seconds_id_{};
  obs::MetricId tick_serial_seconds_id_{}, shard_busy_seconds_id_{};
  obs::MetricId fit_phase_seconds_id_{};
  /// Deterministic metrics, recorded only during the serial publish fold.
  obs::MetricsShard det_metrics_;
  /// Wall-clock metrics owned by the loop (tick latency, serial section,
  /// fit phase).
  obs::MetricsShard loop_wall_metrics_;

  /// The fine-tuning engine every shard's Personalizer is a sibling of;
  /// the fit batch runs its sensor fits. Null unless personalize.enabled.
  std::unique_ptr<Personalizer> personalizer_;
  std::vector<std::unique_ptr<SessionShard>> shards_;
  /// Per shard: ids admitted this tick, built by the shard's task.
  std::vector<std::vector<std::uint64_t>> admits_;
  /// Per shard: summary rows of its active sessions, written by the
  /// shard's task and concatenated in shard order by the publisher.
  std::vector<std::vector<SessionSummary>> shard_summaries_;
  /// Per shard: the next virtual tick it serves in this tick() call.
  std::vector<std::uint64_t> shard_ticks_;
  /// The current fit batch, shard order then admission order; task k
  /// fits sensor k % kNumSensors of entry k / kNumSensors.
  struct QueuedFit {
    SessionShard::FitJob job;
    std::size_t shard = 0;
  };
  std::vector<QueuedFit> queued_fits_;
  /// Per shard: its sensor fits in the current fit batch not yet done.
  std::vector<std::atomic<std::size_t>> sensor_fits_left_;
  fleet::ThreadPool pool_;  // created once, reused per tick

  /// Flight recorder: per-shard logs recorded lock-free during the round,
  /// folded into the ring in shard-index order under the publish mutex.
  /// Null when disabled (flight_capacity == 0 or trace compiled out).
  std::unique_ptr<obs::FlightRecorder> flight_;
  std::vector<obs::FlightLog> flight_logs_;  // one per shard

  std::uint64_t now_ = 0;
  std::uint64_t next_admit_ = 0;
  std::uint64_t results_seq_ = 0;

  mutable std::mutex publish_mutex_;
  std::deque<SlotRecord> results_;
  std::vector<CompletedSession> completed_;
  std::vector<SessionSummary> summaries_;
  obs::MetricsSnapshot metrics_snapshot_;
  Status status_;
};

}  // namespace origin::serve
