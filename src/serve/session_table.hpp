// Sharded session tables for the serving loop. Sessions are assigned to a
// fixed number of shards by id (never by thread), each shard serves its
// sessions one slot per virtual tick, and per-round outputs are published
// by folding shards in shard-index order — the same determinism contract
// as fleet/: threads decide *when* a shard runs, never *what* it computes
// or in which order it is merged.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "serve/session.hpp"

namespace origin::serve {

/// One served slot, as published on the JSONL results stream.
struct SlotRecord {
  std::uint64_t seq = 0;   // global publish sequence number
  std::uint64_t tick = 0;  // virtual tick the slot was served at
  std::uint64_t session = 0;
  std::uint32_t slot = 0;  // session-local slot index
  std::int32_t predicted = -1;
  std::int32_t label = -1;
};

/// Final per-user aggregates of an evicted (completed) session.
struct CompletedSession {
  std::uint64_t id = 0;
  std::uint64_t arrival_tick = 0;
  std::uint64_t completed_tick = 0;
  std::uint64_t slots = 0;
  double accuracy = 0.0;      // overall top-1, in [0, 1]
  double success_rate = 0.0;  // attempt success, percent
  double harvested_j = 0.0;
  double consumed_j = 0.0;
  /// FNV-1a checksum over the per-slot fused outputs — the compact
  /// bit-identity witness the bench compares across thread counts and
  /// snapshot/restore splits.
  std::uint64_t outputs_fnv1a = 0;
  /// The outputs themselves (one int per slot, -1 = no output).
  std::vector<int> outputs;
  // --- Personalization aggregates (zero unless the loop's personalize
  // mode was on; see serve/personalize.hpp).
  std::uint64_t fine_tunes = 0;
  std::uint64_t fine_tune_steps = 0;
  std::uint64_t delta_bytes = 0;
  double personalize_j = 0.0;
};

/// Live view of one active session for the /sessions endpoint.
struct SessionSummary {
  std::uint64_t id = 0;
  std::uint64_t arrival_tick = 0;
  std::uint64_t slots_done = 0;
  std::uint64_t slots_total = 0;
  double accuracy = 0.0;  // over the served prefix, in [0, 1]
  std::uint64_t attempts = 0;
  std::uint64_t completions = 0;
  std::array<double, data::kNumSensors> stored_j{};
  std::uint64_t fine_tunes = 0;
  std::uint64_t fine_tune_steps = 0;
  std::uint64_t delta_bytes = 0;
  double personalize_j = 0.0;
};

/// FNV-1a (64-bit) over a fused-output sequence.
std::uint64_t fnv1a_outputs(const std::vector<int>& outputs);

/// One shard of the session table. Owned and advanced by exactly one
/// worker per round (exclusivity is the serving loop's), so it needs no
/// interior locking.
class SessionShard {
 public:
  /// Builds this shard's private copies of the deployed networks for
  /// `set` (deployed_models; inference mutates activation caches, so
  /// shards never share). When `personalizer` is given — an engine over
  /// the same deployed_models — the shard fine-tunes its sessions with a
  /// sibling of it (Personalizer::sibling, sharing its base copies), and
  /// its model scratch is re-targeted per delta group (base, or base +
  /// one session's delta) before each panel.
  SessionShard(const sim::Experiment& experiment, sim::ModelSet set,
               int bits = 32, const Personalizer* personalizer = nullptr);

  /// The deployed networks for `set`; `bits` != 32 switches them to the
  /// int8 serving path (Sequential::set_inference_bits).
  static std::array<nn::Sequential, data::kNumSensors> deployed_models(
      const sim::Experiment& experiment, sim::ModelSet set, int bits);

  std::array<nn::Sequential, data::kNumSensors>* models() { return &models_; }

  void admit(std::unique_ptr<Session> session);

  /// A fit that a slot of the current tick made due: the session and the
  /// number of buffered samples it trains on (Personalizer::fit_samples).
  struct FitJob {
    Session* session = nullptr;
    std::size_t samples = 0;
  };

  /// Serves every admitted session that has arrived by `tick` one slot,
  /// classifying the tick's ready windows in per-sensor panels
  /// (DESIGN.md §15). Appends served slots and completions to the round
  /// logs and evicts completed sessions; a slot that makes a fit due
  /// queues a FitJob instead of fitting, and a session whose final slot
  /// did so completes in book_fits. `step_seconds` is observed per slot
  /// into `wall_metrics()` (wall-clock — never deterministic).
  void serve_tick(std::uint64_t tick, obs::MetricId step_seconds);
  /// The fits the last serve_tick queued, in admission order. Their
  /// sensor fits (Personalizer::fit_sensor) must all have run before
  /// book_fits.
  const std::vector<FitJob>& fit_jobs() const { return fit_jobs_; }
  /// Books the queued fits in admission order (Personalizer::finish_fit
  /// and the round's fine-tune counters), then completes and evicts the
  /// sessions whose final slot fitted, at `tick`.
  void book_fits(std::uint64_t tick);

  /// Round logs, cleared by the publisher after folding.
  std::vector<SlotRecord>& round_slots() { return round_slots_; }
  std::vector<CompletedSession>& round_completed() { return round_completed_; }
  /// Fine-tunes run / optimizer steps consumed this round (folded into
  /// the deterministic counters by the publisher, which also resets them).
  std::uint64_t round_fine_tunes() const { return round_fine_tunes_; }
  std::uint64_t round_fine_tune_steps() const { return round_fine_tune_steps_; }
  void clear_round_personalize() {
    round_fine_tunes_ = 0;
    round_fine_tune_steps_ = 0;
  }
  /// Cross-session batching stats for the round: panels launched, windows
  /// classified through them, and the per-panel occupancy observations —
  /// all pure functions of the workload (folded into the deterministic
  /// serve.batch_* metrics by the publisher, which also resets them).
  std::uint64_t round_batch_panels() const { return round_batch_panels_; }
  std::uint64_t round_batch_windows() const { return round_batch_windows_; }
  const std::vector<std::uint32_t>& round_batch_occupancy() const {
    return round_batch_occupancy_;
  }
  void clear_round_batch() {
    round_batch_panels_ = 0;
    round_batch_windows_ = 0;
    round_batch_occupancy_.clear();
  }

  Personalizer* personalizer() { return personalizer_.get(); }

  obs::MetricsShard& wall_metrics() { return wall_metrics_; }
  void set_wall_metrics(obs::MetricsShard shard) {
    wall_metrics_ = std::move(shard);
  }

  /// Attaches this shard's flight-recorder log (serve loop owns it; the
  /// publisher folds + clears it each round). `shard_index` tags events
  /// (TraceEvent::track → Chrome trace lane). Null detaches.
  void set_flight(obs::FlightLog* log, int shard_index) {
    flight_ = log;
    shard_index_ = shard_index;
  }
  obs::FlightLog* flight() const { return flight_; }
  int shard_index() const { return shard_index_; }

  const std::vector<std::unique_ptr<Session>>& active() const {
    return active_;
  }

  /// Replaces `out` with one summary row per active session, in admission
  /// order.
  void summarize(std::vector<SessionSummary>& out) const;

 private:
  /// One session's stake in the current tick: the range of classify
  /// requests its step_begin appended, plus the flight recorder's
  /// before-counters (probes advance NVP state in phase A).
  struct PendingStep {
    Session* session = nullptr;
    std::size_t req_begin = 0;
    std::size_t req_end = 0;
    std::array<std::uint64_t, data::kNumSensors> nvp_saves_before{};
    std::array<std::uint64_t, data::kNumSensors> nvp_restores_before{};
  };

  /// Phase B: classifies every gathered request into results_, one
  /// per-sensor panel per delta-group (shared base panel for clean
  /// sessions; per-session panels for ones carrying a non-identity delta).
  void run_panels(const std::vector<PendingStep>& items);
  /// One (group, sensor) panel over requests_[item range] with the
  /// weights currently loaded in models_.
  void run_panel_group(const PendingStep* items, std::size_t item_count);
  /// Phase C per-session completion: step_finish + buffering + flight +
  /// the slot record. Returns whether the slot queued a fit.
  bool finish_step(Session& session, const PendingStep& item,
                   std::uint64_t tick);
  /// Eviction record + flight session_end for a finished session.
  void complete_session(Session& session, std::uint64_t last_tick);
  void capture_nvp_before(const Session& session, PendingStep& item) const;

  std::array<nn::Sequential, data::kNumSensors> models_;
  std::unique_ptr<Personalizer> personalizer_;  // null unless enabled
  std::vector<std::unique_ptr<Session>> active_;  // admission (= id) order
  std::vector<SlotRecord> round_slots_;
  std::vector<CompletedSession> round_completed_;
  std::vector<FitJob> fit_jobs_;
  std::uint64_t round_fine_tunes_ = 0;
  std::uint64_t round_fine_tune_steps_ = 0;
  std::uint64_t round_batch_panels_ = 0;
  std::uint64_t round_batch_windows_ = 0;
  std::vector<std::uint32_t> round_batch_occupancy_;
  obs::MetricsShard wall_metrics_;
  obs::FlightLog* flight_ = nullptr;
  int shard_index_ = 0;
  double slot_s_ = 0.0;  // virtual seconds per tick (flight timestamps)

  // Serve scratch, reused across ticks (no steady-state allocs):
  // the gathered requests/results of the current tick and the per-panel
  // gather buffers.
  std::vector<sim::SlotStepper::ClassifyRequest> requests_;
  std::vector<net::Classification> results_;
  std::vector<PendingStep> pending_;
  std::vector<std::size_t> panel_request_idx_;
  std::vector<const nn::Tensor*> panel_windows_;
  std::vector<float> panel_probs_;
};

}  // namespace origin::serve
