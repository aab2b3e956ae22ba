#include "serve/serve_loop.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>

#include "data/user_profile.hpp"
#include "fleet/shard.hpp"
#include "util/rng.hpp"

namespace origin::serve {

namespace {
constexpr double kQuarterOctave = 1.189207115002721;  // 2^(1/4)

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
      }()),
      pool_(config_.threads) {
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
  // slo() reads its tick p50/p95/p99 from this histogram, so its grid is
  // quarter-octave (10 us to about 9 s): an interpolated quantile is then
  // within 19 % of the true value, where whole octaves allow 100 %.
  tick_seconds_id_ = registry_.add_histogram(
      "serve.tick_seconds",
      obs::MetricsRegistry::exponential_bounds(1e-5, kQuarterOctave, 80),
      /*deterministic=*/false);
  // Where a tick's wall time goes: the serial section (admission plus the
  // publish fold, one observation per tick() call) and each shard's
  // serving (one observation per shard task, and one more each time the
  // shard serves on after its fits). Wall clock, so excluded from every
  // bit-identity check.
  tick_serial_seconds_id_ = registry_.add_histogram(
      "serve.tick_serial_seconds",
      obs::MetricsRegistry::exponential_bounds(1e-6, 2.0, 20),
      /*deterministic=*/false);
  shard_busy_seconds_id_ = registry_.add_histogram(
      "serve.shard_busy_seconds",
      obs::MetricsRegistry::exponential_bounds(1e-6, 2.0, 20),
      /*deterministic=*/false);
  // The fit batch's wall time, one observation per fit batch (fits are
  // not in serve.shard_busy_seconds; the batch also books each shard's
  // fits and serves the shard on).
  fit_phase_seconds_id_ = registry_.add_histogram(
      "serve.fit_phase_seconds",
      obs::MetricsRegistry::exponential_bounds(1e-5, 2.0, 20),
      /*deterministic=*/false);
  det_metrics_ = registry_.make_shard();
  loop_wall_metrics_ = registry_.make_shard();

  if (config_.personalize.enabled) {
    personalizer_ = std::make_unique<Personalizer>(
        experiment,
        SessionShard::deployed_models(experiment, config_.set, config_.bits),
        config_.personalize);
  }
  shards_.reserve(config_.shards);
  for (std::size_t i = 0; i < config_.shards; ++i) {
    shards_.push_back(std::make_unique<SessionShard>(
        experiment, config_.set, config_.bits, personalizer_.get()));
    shards_.back()->set_wall_metrics(registry_.make_shard());
  }
  admits_.resize(config_.shards);
  shard_ticks_.resize(config_.shards);
  sensor_fits_left_ =
      std::vector<std::atomic<std::size_t>>(config_.shards);
  shard_summaries_.resize(config_.shards);
  if (obs::kTraceEnabled && config_.flight_capacity > 0) {
    flight_ = std::make_unique<obs::FlightRecorder>(config_.flight_capacity);
    flight_logs_.resize(config_.shards);
    for (std::size_t i = 0; i < config_.shards; ++i) {
      shards_[i]->set_flight(&flight_logs_[i], static_cast<int>(i));
    }
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

std::unique_ptr<Session> ServeLoop::make_session(std::uint64_t id) {
  return std::make_unique<Session>(*experiment_, make_spec(id),
                                   shards_[id % config_.shards]->models(),
                                   config_.ring_capacity);
}

void ServeLoop::admit_session(std::unique_ptr<Session> session) {
  const SessionSpec& spec = session->spec();
  SessionShard& shard = *shards_[spec.id % config_.shards];
  // A shard admits in id order, before serving its round, so these events
  // hold the same place in its flight log at any thread count; a snapshot
  // restore re-fires them — the flight ring is process-local state, not
  // snapshotted.
  ORIGIN_TRACE(
      shard.flight(),
      admit(static_cast<std::int64_t>(spec.id), shard.shard_index(),
            static_cast<double>(spec.arrival_tick) *
                experiment_->spec().slot_seconds(),
            static_cast<std::int64_t>(spec.arrival_tick),
            static_cast<int>(session->stepper().total_slots())));
  shard.admit(std::move(session));
}

void ServeLoop::tick(std::uint64_t n) {
  if (n == 0) return;
  const auto begin = std::chrono::steady_clock::now();
  const std::uint64_t to = now_ + n;

  // Serial admission only routes each arriving id (id order; arrival ticks
  // are non-decreasing) to its shard; the shard's task builds the session.
  std::uint64_t admitted_delta = 0;
  while (next_admit_ < arrivals_.size() &&
         arrivals_.tick(next_admit_) < to) {
    admits_[next_admit_ % config_.shards].push_back(next_admit_);
    ++next_admit_;
    ++admitted_delta;
  }
  const double admission_seconds = seconds_since(begin);

  // Serve every shard over [now_, to): one task per shard serves ahead
  // until `to` or until a tick queues fits (a fit changes the weights
  // the session's next slot is classified with), so a tick() that queues
  // no fit is this one batch. Then fit batches run until no shard has
  // fits queued. Shards never read each other, so where each one pauses
  // changes no output. Threads decide when a task runs, never what it
  // computes — the publish fold below is shard-ordered.
  std::fill(shard_ticks_.begin(), shard_ticks_.end(), now_);
  pool_.run_batch(shards_.size(), [&](std::size_t i) { serve_shard(i, to); });
  while (run_fits(to)) {
  }

  det_metrics_.inc(admitted_id_, admitted_delta);
  publish_round(to, seconds_since(begin), admission_seconds);
}

void ServeLoop::serve_shard(std::size_t i, std::uint64_t to) {
  const auto begin = std::chrono::steady_clock::now();
  SessionShard& shard = *shards_[i];
  for (std::uint64_t id : admits_[i]) admit_session(make_session(id));
  admits_[i].clear();
  std::uint64_t& t = shard_ticks_[i];
  while (t < to && shard.fit_jobs().empty()) {
    shard.serve_tick(t++, step_seconds_id_);
  }
  if (shard.fit_jobs().empty()) shard.summarize(shard_summaries_[i]);
  shard.wall_metrics().observe(shard_busy_seconds_id_, seconds_since(begin));
}

bool ServeLoop::run_fits(std::uint64_t to) {
  queued_fits_.clear();
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    const auto& jobs = shards_[i]->fit_jobs();
    for (const SessionShard::FitJob& job : jobs) {
      queued_fits_.push_back({job, i});
    }
    sensor_fits_left_[i].store(jobs.size() * data::kNumSensors,
                               std::memory_order_relaxed);
  }
  if (queued_fits_.empty()) return false;
  const auto begin = std::chrono::steady_clock::now();
  pool_.run_batch(queued_fits_.size() * data::kNumSensors, [&](std::size_t k) {
    const QueuedFit& fit = queued_fits_[k / data::kNumSensors];
    Session& session = *fit.job.session;
    personalizer_->fit_sensor(*session.personalize(),
                              session.spec().seed_offset, fit.job.samples,
                              k % data::kNumSensors);
    // The last of a shard's sensor fits books them (the shard paused
    // right after the tick that queued them) and serves the shard on.
    if (sensor_fits_left_[fit.shard].fetch_sub(
            1, std::memory_order_acq_rel) == 1) {
      shards_[fit.shard]->book_fits(shard_ticks_[fit.shard] - 1);
      serve_shard(fit.shard, to);
    }
  });
  loop_wall_metrics_.observe(fit_phase_seconds_id_, seconds_since(begin));
  return true;
}

void ServeLoop::publish_round(std::uint64_t to, double tick_seconds,
                              double admission_seconds) {
  const auto begin = std::chrono::steady_clock::now();
  std::lock_guard<std::mutex> lock(publish_mutex_);
  if (flight_) {
    // Shard-index fold order: the flight stream is bit-identical at any
    // thread count, like every other published output.
    for (obs::FlightLog& log : flight_logs_) flight_->fold(log);
  }
  std::vector<CompletedSession> round_completed;
  for (auto& shard : shards_) {
    det_metrics_.inc(slots_id_, shard->round_slots().size());
    for (SlotRecord& record : shard->round_slots()) {
      record.seq = results_seq_++;
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
  now_ = to;
  rebuild_views_locked();
  // Everything serial in this tick except taking the snapshot itself.
  loop_wall_metrics_.observe(tick_serial_seconds_id_,
                             admission_seconds + seconds_since(begin));
  snapshot_metrics_locked();
}

void ServeLoop::record_completed_metrics(const CompletedSession& record) {
  det_metrics_.inc(completed_id_);
  det_metrics_.observe(accuracy_pct_id_, 100.0 * record.accuracy);
  det_metrics_.observe(success_pct_id_, record.success_rate);
}

void ServeLoop::rebuild_published_locked() {
  rebuild_views_locked();
  snapshot_metrics_locked();
}

void ServeLoop::rebuild_views_locked() {
  summaries_.clear();
  for (const auto& rows : shard_summaries_) {
    summaries_.insert(summaries_.end(), rows.begin(), rows.end());
  }
  status_.now = now_;
  status_.admitted = next_admit_;
  status_.active = summaries_.size();
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

void ServeLoop::snapshot_metrics_locked() {
  std::vector<obs::MetricsShard> all;
  all.reserve(2 + shards_.size());
  all.push_back(det_metrics_);
  all.push_back(loop_wall_metrics_);
  for (const auto& shard : shards_) all.push_back(shard->wall_metrics());
  metrics_snapshot_ = obs::snapshot(registry_, obs::merge_in_order(all));
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
  const auto quantiles = [&](const char* name) {
    const obs::MetricDef* def = metrics_snapshot_.find(name);
    const obs::HistogramCell& cell = metrics_snapshot_.histograms[def->slot];
    return std::make_pair(
        cell, obs::histogram_quantiles(cell, def->upper_bounds,
                                       {obs::kSloQuantiles.begin(),
                                        obs::kSloQuantiles.end()}));
  };
  Slo slo;
  const auto [steps, step_qs] = quantiles("serve.step_seconds");
  slo.step_p50_us = step_qs[0] * 1e6;
  slo.step_p95_us = step_qs[1] * 1e6;
  slo.step_p99_us = step_qs[2] * 1e6;
  const auto [ticks, tick_qs] = quantiles("serve.tick_seconds");
  slo.tick_p50_ms = tick_qs[0] * 1e3;
  slo.tick_p95_ms = tick_qs[1] * 1e3;
  slo.tick_p99_ms = tick_qs[2] * 1e3;
  const auto [fit_phases, fit_qs] = quantiles("serve.fit_phase_seconds");
  slo.fit_phases = fit_phases.count;
  slo.fit_phase_p50_ms = fit_qs[0] * 1e3;
  slo.fit_phase_p95_ms = fit_qs[1] * 1e3;
  slo.fit_phase_p99_ms = fit_qs[2] * 1e3;
  slo.admission_backlog =
      static_cast<std::uint64_t>(config_.users) - status_.admitted;
  if (ticks.sum > 0.0) {
    slo.sessions_per_s = static_cast<double>(status_.completed) / ticks.sum;
    slo.slots_per_s = static_cast<double>(status_.slots_served) / ticks.sum;
  }
  return slo;
}

std::size_t ServeLoop::model_grad_size() const {
  std::size_t n = personalizer_ ? personalizer_->grad_size() : 0;
  for (const auto& shard : shards_) {
    for (const nn::Sequential& model : *shard->models()) n += model.grad_size();
  }
  return n;
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
