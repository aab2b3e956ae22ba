// A single-threaded replica of serve::ServeLoop built only from public
// layer calls, so the traced run can put a span around each call into a
// layer. It serves the same sessions the loop does, in the same shards
// (session id modulo the shard count), with the same per-tick phases as
// SessionShard's batched path: step_begin for every ready session, one
// predict_proba_batch_into panel per (delta group, sensor), then
// step_finish, personalization and eviction in admission order.
// Classification is a pure function of (model, window), so the replica
// must serve bits identical to the loop; the benchmark asserts it.
#pragma once

#include <algorithm>
#include <memory>
#include <optional>
#include <type_traits>
#include <vector>

#include "fleet/fleet_runner.hpp"
#include "serve/arrival.hpp"
#include "serve/serve_loop.hpp"
#include "serve/session.hpp"
#include "spans.hpp"

namespace origin::benchmark {

/// Traced counterpart of serve::Session: the same policy, cursor and
/// stepper, with the cursor and policy behind timing decorators.
/// serve::Session builds its cursor and policy internally, so the traced
/// replica assembles the same parts itself.
class TracedSession {
 public:
  TracedSession(const sim::Experiment& experiment, serve::SessionSpec spec,
                std::array<nn::Sequential, data::kNumSensors>* models,
                int ring_capacity, Tracer* tracer)
      : spec_(std::move(spec)),
        policy_(experiment.make_policy(spec_.policy, spec_.rr_cycle,
                                       spec_.set),
                tracer),
        source_(experiment.make_cursor(spec_.user, spec_.seed_offset,
                                       std::nullopt, ring_capacity),
                tracer),
        stepper_(experiment.spec(), models, &experiment.trace(), &policy_,
                 &source_, experiment.sim_config()) {}

  TracedSession(const TracedSession&) = delete;
  TracedSession& operator=(const TracedSession&) = delete;

  const serve::SessionSpec& spec() const { return spec_; }
  bool done() const { return stepper_.done(); }
  sim::SlotStepper& stepper() { return stepper_; }
  serve::PersonalizeState* personalize() { return personalize_.get(); }
  void enable_personalize() {
    personalize_ = std::make_unique<serve::PersonalizeState>();
  }

 private:
  serve::SessionSpec spec_;
  TimedPolicy policy_;
  TimedSource source_;
  sim::SlotStepper stepper_;
  std::unique_ptr<serve::PersonalizeState> personalize_;
};

/// What the replica records for a completed session: the fields the
/// loop's CompletedSession log carries that the bit-identity check reads.
struct ReplicaCompleted {
  std::uint64_t id = 0;
  std::uint64_t completed_tick = 0;
  std::vector<int> outputs;
  double accuracy = 0.0;
  double success_rate = 0.0;
  std::uint64_t attempts = 0;
  std::uint64_t completions = 0;
  std::uint64_t fine_tunes = 0;
  std::uint64_t fine_tune_steps = 0;
  std::uint64_t delta_bytes = 0;
};

/// Counts taken while the tracer is enabled.
struct ReplicaCounts {
  std::uint64_t slots = 0;
  std::uint64_t panels = 0;
  std::uint64_t windows = 0;
  std::uint64_t fits = 0;
  std::uint64_t fit_steps = 0;
  std::uint64_t ticks = 0;
};

/// `SessionT` is serve::Session (untraced) or TracedSession (traced).
template <typename SessionT>
class ServeReplica {
 public:
  /// `population` gives each session id's user and stream seed (the
  /// fleet::make_population derivation ServeLoop mirrors); `tracer` may be
  /// null for the untraced replica.
  ServeReplica(const sim::Experiment& experiment,
               const serve::ServeConfig& config,
               const std::vector<fleet::FleetJob>& population,
               Tracer* tracer)
      : experiment_(&experiment),
        config_(config),
        population_(&population),
        arrivals_([&] {
          serve::ArrivalConfig arrival;
          arrival.users = config.users;
          arrival.rate_per_s = config.arrival_rate_hz;
          arrival.seed = config.arrival_seed;
          arrival.slot_seconds = experiment.spec().slot_seconds();
          return arrival;
        }()),
        tracer_(tracer) {
    for (std::size_t i = 0; i < config.shards; ++i) {
      auto shard = std::make_unique<Shard>();
      shard->models = experiment.system().bl2_copy();
      if (config.personalize.enabled) {
        shard->personalizer.emplace(experiment, shard->models,
                                    config.personalize);
      }
      shards_.push_back(std::move(shard));
    }
  }

  /// Serves virtual tick `now()` and advances the clock by one.
  void tick() {
    const std::uint64_t t = now_++;
    if (tracing()) ++counts_.ticks;
    {
      Span span(tracer_, Layer::ServeAdmit);
      while (next_admit_ < arrivals_.size() &&
             arrivals_.tick(next_admit_) <= t) {
        admit(next_admit_++);
      }
    }
    for (auto& shard : shards_) serve_shard(*shard, t);
  }

  std::uint64_t now() const { return now_; }
  const std::vector<ReplicaCompleted>& completed() const { return completed_; }
  const ReplicaCounts& counts() const { return counts_; }

 private:
  struct Pending {
    SessionT* session = nullptr;
    std::size_t req_begin = 0;
    std::size_t req_end = 0;
  };
  struct Shard {
    std::array<nn::Sequential, data::kNumSensors> models;
    std::optional<serve::Personalizer> personalizer;
    std::vector<std::unique_ptr<SessionT>> active;
    std::vector<sim::SlotStepper::ClassifyRequest> requests;
    std::vector<net::Classification> results;
    std::vector<Pending> pending;
    std::vector<Pending> clean;
    std::vector<std::size_t> panel_idx;
    std::vector<const nn::Tensor*> panel_windows;
    std::vector<float> panel_probs;
  };

  bool tracing() const { return tracer_ && tracer_->enabled(); }

  void admit(std::uint64_t id) {
    const fleet::FleetJob& job = population_->at(id);
    serve::SessionSpec spec;
    spec.id = id;
    spec.arrival_tick = arrivals_.tick(id);
    spec.user = job.user;
    spec.seed_offset = job.seed_offset;
    spec.policy = config_.policy;
    spec.rr_cycle = config_.rr_cycle;
    spec.set = config_.set;
    Shard& shard = *shards_[id % shards_.size()];
    std::unique_ptr<SessionT> session;
    if constexpr (std::is_same_v<SessionT, TracedSession>) {
      session = std::make_unique<SessionT>(*experiment_, spec, &shard.models,
                                           config_.ring_capacity, tracer_);
    } else {
      session = std::make_unique<SessionT>(*experiment_, spec, &shard.models,
                                           config_.ring_capacity,
                                           /*batch_slots=*/0);
    }
    if (shard.personalizer) session->enable_personalize();
    shard.active.push_back(std::move(session));
  }

  void serve_shard(Shard& shard, std::uint64_t t) {
    shard.requests.clear();
    shard.pending.clear();
    for (auto& session : shard.active) {
      if (session->done() || t < session->spec().arrival_tick) continue;
      Pending item;
      item.session = session.get();
      item.req_begin = shard.requests.size();
      {
        Span span(tracer_, Layer::SimBegin);
        session->stepper().step_begin(shard.requests);
      }
      item.req_end = shard.requests.size();
      shard.pending.push_back(item);
    }
    if (shard.pending.empty()) return;

    run_panels(shard);

    for (const Pending& item : shard.pending) {
      SessionT& session = *item.session;
      sim::SlotStepper::StepOutcome out;
      {
        Span span(tracer_, Layer::SimFinish);
        out = session.stepper().step_finish(
            shard.results.data() + item.req_begin,
            item.req_end - item.req_begin);
      }
      if (shard.personalizer) personalize(shard, session, out);
      if (tracing()) ++counts_.slots;
      if (session.done()) complete(session, t);
    }
    std::erase_if(shard.active, [](const std::unique_ptr<SessionT>& s) {
      return s->done();
    });
  }

  void personalize(Shard& shard, SessionT& session,
                   const sim::SlotStepper::StepOutcome& out) {
    Span span(tracer_, Layer::ServePersonalize);
    serve::PersonalizeState& state = *session.personalize();
    shard.personalizer->buffer_step(state, out, session.stepper().source());
    if (!shard.personalizer->fit_due(state, out)) return;
    shard.personalizer->load(state, session.spec().id, shard.models);
    std::uint64_t steps = 0;
    {
      Span fit(tracer_, Layer::NnFit);
      steps = shard.personalizer->run_fit(state, session.spec().seed_offset,
                                          shard.models);
    }
    if (tracing() && steps > 0) {
      ++counts_.fits;
      counts_.fit_steps += steps;
    }
  }

  void run_panels(Shard& shard) {
    shard.results.clear();
    shard.results.resize(shard.requests.size());
    if (!shard.personalizer) {
      run_panel_group(shard, shard.pending.data(), shard.pending.size());
      return;
    }
    // Delta-group routing as in SessionShard::run_panels: sessions still
    // on the base weights share one panel per sensor; a session carrying
    // a delta is served on its own weights.
    shard.clean.clear();
    for (const Pending& item : shard.pending) {
      if (!item.session->personalize()->dirty()) shard.clean.push_back(item);
    }
    if (!shard.clean.empty()) {
      {
        Span span(tracer_, Layer::ServePersonalize);
        shard.personalizer->load_base(shard.models);
      }
      run_panel_group(shard, shard.clean.data(), shard.clean.size());
    }
    for (const Pending& item : shard.pending) {
      serve::PersonalizeState& state = *item.session->personalize();
      if (!state.dirty()) continue;
      {
        Span span(tracer_, Layer::ServePersonalize);
        shard.personalizer->load(state, item.session->spec().id,
                                 shard.models);
      }
      run_panel_group(shard, &item, 1);
    }
  }

  void run_panel_group(Shard& shard, const Pending* items, std::size_t n) {
    for (std::size_t s = 0; s < data::kNumSensors; ++s) {
      shard.panel_idx.clear();
      shard.panel_windows.clear();
      for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t r = items[i].req_begin; r < items[i].req_end; ++r) {
          if (shard.requests[r].sensor != static_cast<int>(s)) continue;
          shard.panel_idx.push_back(r);
          shard.panel_windows.push_back(shard.requests[r].window);
        }
      }
      if (shard.panel_windows.empty()) continue;
      {
        Span span(tracer_, Layer::NnClassify);
        const std::size_t classes = shard.models[s].predict_proba_batch_into(
            shard.panel_windows.data(), shard.panel_windows.size(),
            shard.panel_probs);
        for (std::size_t k = 0; k < shard.panel_idx.size(); ++k) {
          const float* row = shard.panel_probs.data() + k * classes;
          shard.results[shard.panel_idx[k]] = net::make_classification(
              std::vector<float>(row, row + classes));
        }
      }
      if (tracing()) {
        ++counts_.panels;
        counts_.windows += shard.panel_windows.size();
      }
    }
  }

  void complete(SessionT& session, std::uint64_t t) {
    sim::SimResult result;
    {
      Span span(tracer_, Layer::SimOther);
      result = session.stepper().take_result();
    }
    ReplicaCompleted done;
    done.id = session.spec().id;
    done.completed_tick = t;
    done.accuracy = result.accuracy.overall();
    done.success_rate = result.completion.attempt_success_rate();
    done.attempts = result.completion.attempts;
    done.completions = result.completion.completions;
    done.outputs = std::move(result.outputs);
    if (const serve::PersonalizeState* st = session.personalize()) {
      done.fine_tunes = st->fine_tunes;
      done.fine_tune_steps = st->steps_used;
      done.delta_bytes = st->delta_bytes;
    }
    completed_.push_back(std::move(done));
  }

  const sim::Experiment* experiment_;
  serve::ServeConfig config_;
  const std::vector<fleet::FleetJob>* population_;
  serve::ArrivalSchedule arrivals_;
  Tracer* tracer_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::uint64_t now_ = 0;
  std::uint64_t next_admit_ = 0;
  std::vector<ReplicaCompleted> completed_;
  ReplicaCounts counts_;
};

}  // namespace origin::benchmark
