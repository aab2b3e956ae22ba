#include "serve/serve_loop.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>

#include "data/user_profile.hpp"
#include "fleet/shard.hpp"
#include "util/rng.hpp"

namespace origin::serve {

namespace {
double seconds_since(std::chrono::steady_clock::time_point begin) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       begin)
      .count();
}
}  // namespace

ServeLoop::ServeLoop(const sim::Experiment& experiment, ServeConfig config)
    : experiment_(&experiment),
      config_(std::move(config)),
      arrivals_([&] {
        ArrivalConfig arrival;
        arrival.users = config_.users;
        arrival.rate_per_s = config_.arrival_rate_hz;
        arrival.seed = config_.arrival_seed;
        arrival.slot_seconds = experiment.spec().slot_seconds();
        return arrival;
      }()) {
  if (config_.shards == 0) {
    throw std::invalid_argument("ServeLoop: shards == 0");
  }
  if (config_.bits != 32 && (config_.bits < 2 || config_.bits > 8)) {
    throw std::invalid_argument("ServeLoop: bits must be 32 or in [2, 8]");
  }
  if (config_.personalize.enabled && config_.bits != 32) {
    throw std::invalid_argument(
        "ServeLoop: personalize requires bits == 32 — fine-tuning trains "
        "float weights, which int8 model copies would not serve");
  }

  admitted_id_ = registry_.add_counter("serve.sessions.admitted");
  completed_id_ = registry_.add_counter("serve.sessions.completed");
  slots_id_ = registry_.add_counter("serve.slots.served");
  accuracy_pct_id_ = registry_.add_histogram(
      "serve.accuracy_pct", obs::MetricsRegistry::linear_bounds(5, 5, 20));
  success_pct_id_ = registry_.add_histogram(
      "serve.success_rate_pct", obs::MetricsRegistry::linear_bounds(5, 5, 20));
  fine_tunes_id_ = registry_.add_counter("serve.fine_tunes");
  fine_tune_steps_id_ = registry_.add_counter("serve.fine_tune_steps");
  // Cross-session batching stats: panel composition is a pure function
  // of the workload's virtual timeline and the fingerprinted shard count,
  // so they are deterministic (equal at any thread count). Snapshots carry
  // them wholesale (since v4) — they cannot be replayed from the
  // completed log — so they also stay equal across a restore split.
  batch_panels_id_ = registry_.add_counter("serve.batch_panels");
  batch_windows_id_ = registry_.add_counter("serve.batch_windows");
  batch_occupancy_id_ = registry_.add_histogram(
      "serve.batch_occupancy", obs::MetricsRegistry::linear_bounds(1, 1, 16));
  step_seconds_id_ = registry_.add_histogram(
      "serve.step_seconds",
      obs::MetricsRegistry::exponential_bounds(1e-6, 2.0, 20),
      /*deterministic=*/false);
  tick_seconds_id_ = registry_.add_histogram(
      "serve.tick_seconds",
      obs::MetricsRegistry::exponential_bounds(1e-4, 2.0, 20),
      /*deterministic=*/false);
  det_metrics_ = registry_.make_shard();
  loop_wall_metrics_ = registry_.make_shard();

  shards_.reserve(config_.shards);
  for (std::size_t i = 0; i < config_.shards; ++i) {
    shards_.push_back(std::make_unique<SessionShard>(
        experiment, config_.set, config_.bits, config_.personalize));
    shards_.back()->set_wall_metrics(registry_.make_shard());
  }
  if (obs::kTraceEnabled && config_.flight_capacity > 0) {
    flight_ = std::make_unique<obs::FlightRecorder>(config_.flight_capacity);
    flight_logs_.resize(config_.shards);
    for (std::size_t i = 0; i < config_.shards; ++i) {
      shards_[i]->set_flight(&flight_logs_[i], static_cast<int>(i));
    }
  }
  if (config_.threads > 1) {
    pool_ = std::make_unique<fleet::ThreadPool>(config_.threads);
  }

  std::lock_guard<std::mutex> lock(publish_mutex_);
  rebuild_published_locked();
}

SessionSpec ServeLoop::make_spec(std::uint64_t id) const {
  SessionSpec spec;
  spec.id = id;
  spec.arrival_tick = arrivals_.tick(id);
  // Same per-user derivation as fleet::make_population (runs_per_user = 1):
  // a serving session and the batch job for the same (seed, user index)
  // simulate the same stream.
  util::Rng rng(fleet::shard_seed(config_.population_seed, id));
  spec.user = config_.severity > 0.0
                  ? data::random_user(static_cast<int>(id), rng,
                                      config_.severity)
                  : data::reference_user();
  spec.seed_offset =
      fleet::shard_seed(config_.population_seed ^ 0xA11CEULL, id);
  spec.policy = config_.policy;
  spec.rr_cycle = config_.rr_cycle;
  spec.set = config_.set;
  return spec;
}

Session& ServeLoop::admit_session(std::uint64_t id) {
  SessionShard& shard = *shards_[id % config_.shards];
  shard.admit(std::make_unique<Session>(*experiment_, make_spec(id),
                                        shard.models(), config_.ring_capacity,
                                        config_.trace));
  const Session& session = *shard.active().back();
  // Admission is serial (id order), so these events are deterministic; a
  // snapshot restore re-fires them — the flight ring is process-local
  // state, not snapshotted.
  ORIGIN_TRACE(
      shard.flight(),
      admit(static_cast<std::int64_t>(id), shard.shard_index(),
            static_cast<double>(session.spec().arrival_tick) *
                experiment_->spec().slot_seconds(),
            static_cast<std::int64_t>(session.spec().arrival_tick),
            static_cast<int>(session.stepper().total_slots())));
  return *shard.active().back();
}

void ServeLoop::tick(std::uint64_t n) {
  if (n == 0) return;
  const auto begin = std::chrono::steady_clock::now();
  const std::uint64_t to = now_ + n;

  // Serial admission in id order (arrival ticks are non-decreasing).
  std::uint64_t admitted_delta = 0;
  while (next_admit_ < arrivals_.size() &&
         arrivals_.tick(next_admit_) < to) {
    admit_session(next_admit_);
    ++next_admit_;
    ++admitted_delta;
  }

  // Serve every shard over [now_, to). Threads decide when a shard runs,
  // never what it computes — the publish fold below is shard-ordered.
  const auto serve = [&](std::size_t i) {
    shards_[i]->serve_ticks(now_, to, step_seconds_id_);
  };
  if (pool_) {
    pool_->run_batch(shards_.size(), serve);
  } else {
    for (std::size_t i = 0; i < shards_.size(); ++i) serve(i);
  }

  det_metrics_.inc(admitted_id_, admitted_delta);
  publish_round(to, seconds_since(begin));
}

void ServeLoop::publish_round(std::uint64_t to, double tick_seconds) {
  std::lock_guard<std::mutex> lock(publish_mutex_);
  if (flight_) {
    // Shard-index fold order: the flight stream is bit-identical at any
    // thread count, like every other published output.
    for (obs::FlightLog& log : flight_logs_) flight_->fold(log);
  }
  std::vector<CompletedSession> round_completed;
  for (auto& shard : shards_) {
    for (SlotRecord& record : shard->round_slots()) {
      record.seq = results_seq_++;
      det_metrics_.inc(slots_id_);
      results_.push_back(record);
    }
    shard->round_slots().clear();
    for (CompletedSession& record : shard->round_completed()) {
      round_completed.push_back(std::move(record));
    }
    shard->round_completed().clear();
    det_metrics_.inc(fine_tunes_id_, shard->round_fine_tunes());
    det_metrics_.inc(fine_tune_steps_id_, shard->round_fine_tune_steps());
    shard->clear_round_personalize();
    det_metrics_.inc(batch_panels_id_, shard->round_batch_panels());
    det_metrics_.inc(batch_windows_id_, shard->round_batch_windows());
    for (std::uint32_t occupancy : shard->round_batch_occupancy()) {
      det_metrics_.observe(batch_occupancy_id_,
                           static_cast<double>(occupancy));
    }
    shard->clear_round_batch();
  }
  // Canonical completion order: by (completed_tick, id), NOT by shard —
  // a session's position in the log is then a pure function of the
  // virtual timeline, independent of how tick() calls chunked it (which a
  // snapshot/restore split inherently changes). Metric replay on restore
  // walks the log in this same order, so histogram sums stay bitwise
  // equal too.
  std::sort(round_completed.begin(), round_completed.end(),
            [](const CompletedSession& a, const CompletedSession& b) {
              return a.completed_tick != b.completed_tick
                         ? a.completed_tick < b.completed_tick
                         : a.id < b.id;
            });
  for (CompletedSession& record : round_completed) {
    record_completed_metrics(record);
    completed_.push_back(std::move(record));
  }
  while (results_.size() > config_.results_capacity) results_.pop_front();
  loop_wall_metrics_.observe(tick_seconds_id_, tick_seconds);
  tick_digest_.observe(tick_seconds);
  now_ = to;
  rebuild_published_locked();
}

void ServeLoop::record_completed_metrics(const CompletedSession& record) {
  det_metrics_.inc(completed_id_);
  det_metrics_.observe(accuracy_pct_id_, 100.0 * record.accuracy);
  det_metrics_.observe(success_pct_id_, record.success_rate);
}

void ServeLoop::rebuild_published_locked() {
  summaries_.clear();
  std::uint64_t active = 0;
  for (const auto& shard : shards_) {
    for (const auto& session : shard->active()) {
      const sim::SlotStepper& stepper = session->stepper();
      SessionSummary summary;
      summary.id = session->spec().id;
      summary.arrival_tick = session->spec().arrival_tick;
      summary.slots_done = stepper.next_slot();
      summary.slots_total = stepper.total_slots();
      summary.accuracy = stepper.result().accuracy.overall();
      summary.attempts = stepper.result().completion.attempts;
      summary.completions = stepper.result().completion.completions;
      for (std::size_t s = 0; s < data::kNumSensors; ++s) {
        summary.stored_j[s] = stepper.node(s).stored_j();
      }
      if (const PersonalizeState* st = session->personalize()) {
        summary.fine_tunes = st->fine_tunes;
        summary.fine_tune_steps = st->steps_used;
        summary.delta_bytes = st->delta_bytes;
        summary.personalize_j = st->energy_j;
      }
      summaries_.push_back(summary);
      ++active;
    }
  }

  std::vector<obs::MetricsShard> all;
  all.reserve(2 + shards_.size());
  all.push_back(det_metrics_);
  all.push_back(loop_wall_metrics_);
  for (const auto& shard : shards_) all.push_back(shard->wall_metrics());
  metrics_snapshot_ = obs::snapshot(registry_, obs::merge_in_order(all));

  status_.now = now_;
  status_.admitted = next_admit_;
  status_.active = active;
  status_.completed = static_cast<std::uint64_t>(completed_.size());
  status_.slots_served = det_metrics_.counter(slots_id_);
  status_.batch_panels = det_metrics_.counter(batch_panels_id_);
  status_.batch_windows = det_metrics_.counter(batch_windows_id_);
  status_.batch_mean_occupancy =
      status_.batch_panels > 0
          ? static_cast<double>(status_.batch_windows) /
                static_cast<double>(status_.batch_panels)
          : 0.0;
}

void ServeLoop::drain(std::uint64_t chunk) {
  if (chunk == 0) chunk = 1;
  while (!done()) tick(chunk);
}

bool ServeLoop::done() const {
  if (next_admit_ < arrivals_.size()) return false;
  for (const auto& shard : shards_) {
    if (!shard->active().empty()) return false;
  }
  return true;
}

std::uint64_t ServeLoop::now() const { return now_; }

ServeLoop::Status ServeLoop::status() const {
  std::lock_guard<std::mutex> lock(publish_mutex_);
  return status_;
}

obs::MetricsSnapshot ServeLoop::metrics() const {
  std::lock_guard<std::mutex> lock(publish_mutex_);
  return metrics_snapshot_;
}

std::vector<SessionSummary> ServeLoop::session_summaries() const {
  std::lock_guard<std::mutex> lock(publish_mutex_);
  return summaries_;
}

std::optional<SessionSummary> ServeLoop::session_summary(
    std::uint64_t id) const {
  std::lock_guard<std::mutex> lock(publish_mutex_);
  for (const auto& summary : summaries_) {
    if (summary.id == id) return summary;
  }
  return std::nullopt;
}

std::vector<SlotRecord> ServeLoop::recent_results(std::size_t tail) const {
  std::lock_guard<std::mutex> lock(publish_mutex_);
  const std::size_t n = results_.size() < tail ? results_.size() : tail;
  return std::vector<SlotRecord>(results_.end() - static_cast<std::ptrdiff_t>(n),
                                 results_.end());
}

std::vector<CompletedSession> ServeLoop::completed_sessions() const {
  std::lock_guard<std::mutex> lock(publish_mutex_);
  return completed_;
}

ServeLoop::Slo ServeLoop::slo() const {
  std::lock_guard<std::mutex> lock(publish_mutex_);
  Slo slo;
  const obs::MetricDef* step =
      metrics_snapshot_.find("serve.step_seconds");
  if (step) {
    const obs::HistogramCell& cell =
        metrics_snapshot_.histograms[step->slot];
    const auto qs = obs::histogram_quantiles(
        cell, step->upper_bounds, {obs::kSloQuantiles.begin(),
                                   obs::kSloQuantiles.end()});
    slo.step_p50_us = qs[0] * 1e6;
    slo.step_p95_us = qs[1] * 1e6;
    slo.step_p99_us = qs[2] * 1e6;
  }
  if (tick_digest_.count() > 0) {
    slo.tick_p50_ms = tick_digest_.quantile(0.5) * 1e3;
    slo.tick_p95_ms = tick_digest_.quantile(0.95) * 1e3;
    slo.tick_p99_ms = tick_digest_.quantile(0.99) * 1e3;
  }
  slo.admission_backlog =
      static_cast<std::uint64_t>(config_.users) - status_.admitted;
  const double wall_s = tick_digest_.sum();
  if (wall_s > 0.0) {
    slo.sessions_per_s = static_cast<double>(status_.completed) / wall_s;
    slo.slots_per_s = static_cast<double>(status_.slots_served) / wall_s;
  }
  return slo;
}

bool ServeLoop::flight_enabled() const { return flight_ != nullptr; }

std::vector<obs::TraceEvent> ServeLoop::flight_events() const {
  std::lock_guard<std::mutex> lock(publish_mutex_);
  return flight_ ? flight_->events() : std::vector<obs::TraceEvent>{};
}

std::vector<obs::TraceEvent> ServeLoop::flight_recent(std::size_t n) const {
  std::lock_guard<std::mutex> lock(publish_mutex_);
  return flight_ ? flight_->recent(n) : std::vector<obs::TraceEvent>{};
}

std::vector<obs::TraceEvent> ServeLoop::flight_session(
    std::uint64_t id) const {
  std::lock_guard<std::mutex> lock(publish_mutex_);
  return flight_ ? flight_->session(id) : std::vector<obs::TraceEvent>{};
}

std::uint64_t ServeLoop::flight_dropped() const {
  std::lock_guard<std::mutex> lock(publish_mutex_);
  return flight_ ? flight_->dropped() : 0;
}

}  // namespace origin::serve
