#include "serve/session_table.hpp"

#include <algorithm>
#include <chrono>

namespace origin::serve {

namespace {
using steady_clock = std::chrono::steady_clock;

double seconds_since(steady_clock::time_point begin) {
  return std::chrono::duration<double>(steady_clock::now() - begin).count();
}
}  // namespace

std::uint64_t fnv1a_outputs(const std::vector<int>& outputs) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (int v : outputs) {
    auto u = static_cast<std::uint32_t>(v);
    for (int b = 0; b < 4; ++b) {
      h ^= (u >> (8 * b)) & 0xFFu;
      h *= 0x100000001b3ULL;
    }
  }
  return h;
}

SessionShard::SessionShard(const sim::Experiment& experiment,
                           sim::ModelSet set, int bits,
                           const PersonalizeConfig& personalize)
    : models_(set == sim::ModelSet::Relaxed
                  ? experiment.system().relaxed_copy()
                  : experiment.system().bl2_copy()),
      slot_s_(experiment.spec().slot_seconds()) {
  if (bits != 32) {
    for (nn::Sequential& model : models_) model.set_inference_bits(bits);
  }
  if (personalize.enabled) {
    personalizer_ =
        std::make_unique<Personalizer>(experiment, models_, personalize);
  }
}

void SessionShard::admit(std::unique_ptr<Session> session) {
  if (personalizer_) session->enable_personalize();
  active_.push_back(std::move(session));
}

void SessionShard::capture_nvp_before(const Session& session,
                                      PendingStep& item) const {
#if ORIGIN_TRACE_ENABLED
  if (flight_) {
    for (std::size_t s = 0; s < data::kNumSensors; ++s) {
      const energy::NvpCore& nvp = session.stepper().node(s).nvp();
      item.nvp_saves_before[s] = nvp.checkpoints();
      item.nvp_restores_before[s] = nvp.restores();
    }
  }
#else
  (void)session;
  (void)item;
#endif
}

void SessionShard::finish_step(Session& session, const PendingStep& item,
                               std::uint64_t tick) {
  const SessionSpec& spec = session.spec();
  const auto out = session.stepper().step_finish(
      results_.data() + item.req_begin, item.req_end - item.req_begin);
  if (personalizer_) {
    PersonalizeState& state = *session.personalize();
    personalizer_->buffer_step(state, out, session.stepper().source());
    if (personalizer_->fit_due(state, out)) {
      // The scratch may hold another session's weights (or base) after
      // the tick's panel pass — re-target it before the fit.
      personalizer_->load(state, spec.id, models_);
      const std::uint64_t steps =
          personalizer_->run_fit(state, spec.seed_offset, models_);
      if (steps > 0) {
        ++round_fine_tunes_;
        round_fine_tune_steps_ += steps;
      }
    }
  }
#if ORIGIN_TRACE_ENABLED
  if (flight_) {
    // Flight events use virtual serve-time only (tick x slot seconds):
    // the stream stays a pure function of the workload, so it obeys
    // the same determinism contract as the published logs.
    const auto& stepper = session.stepper();
    const double t0 = static_cast<double>(tick) * slot_s_;
    double stored_total = 0.0;
    double stored_min = stepper.node(0).stored_j();
    for (std::size_t s = 0; s < data::kNumSensors; ++s) {
      const double j = stepper.node(s).stored_j();
      stored_total += j;
      stored_min = std::min(stored_min, j);
    }
    flight_->step(static_cast<std::int64_t>(spec.id), shard_index_, t0,
                  slot_s_, static_cast<std::int64_t>(out.slot),
                  out.predicted, out.label, stored_total, stored_min);
    const int hops = stepper.policy().last_plan_fallback_hops();
    if (hops > 0) {
      flight_->hop(static_cast<std::int64_t>(spec.id), shard_index_, t0,
                   static_cast<std::int64_t>(out.slot), hops);
    }
    for (std::size_t s = 0; s < data::kNumSensors; ++s) {
      const energy::NvpCore& nvp = stepper.node(s).nvp();
      const auto saves = nvp.checkpoints() - item.nvp_saves_before[s];
      const auto restores = nvp.restores() - item.nvp_restores_before[s];
      if (saves > 0) {
        flight_->nvp_save(static_cast<std::int64_t>(spec.id), shard_index_,
                          t0, static_cast<std::int64_t>(out.slot),
                          static_cast<int>(s), static_cast<int>(saves));
      }
      if (restores > 0) {
        flight_->nvp_restore(static_cast<std::int64_t>(spec.id),
                             shard_index_, t0,
                             static_cast<std::int64_t>(out.slot),
                             static_cast<int>(s),
                             static_cast<int>(restores));
      }
    }
  }
#endif
  SlotRecord record;
  record.tick = tick;
  record.session = spec.id;
  record.slot = static_cast<std::uint32_t>(out.slot);
  record.predicted = out.predicted;
  record.label = out.label;
  round_slots_.push_back(record);
}

void SessionShard::complete_session(Session& session,
                                    std::uint64_t last_tick) {
  const SessionSpec& spec = session.spec();
  sim::SimResult result = session.stepper().take_result();
  CompletedSession done;
  done.id = spec.id;
  done.arrival_tick = spec.arrival_tick;
  done.completed_tick = last_tick;
  done.slots = result.completion.slots;
  done.accuracy = result.accuracy.overall();
  done.success_rate = result.completion.attempt_success_rate();
  for (const auto& counters : result.node_counters) {
    done.harvested_j += counters.harvested_j;
    done.consumed_j += counters.consumed_j;
  }
  done.outputs_fnv1a = fnv1a_outputs(result.outputs);
  done.outputs = std::move(result.outputs);
  if (const PersonalizeState* st = session.personalize()) {
    done.fine_tunes = st->fine_tunes;
    done.fine_tune_steps = st->steps_used;
    done.delta_bytes = st->delta_bytes;
    done.personalize_j = st->energy_j;
  }
  ORIGIN_TRACE(
      flight_,
      session_end(static_cast<std::int64_t>(done.id), shard_index_,
                  static_cast<double>(done.completed_tick) * slot_s_,
                  static_cast<std::int64_t>(done.completed_tick),
                  static_cast<int>(done.slots), done.accuracy,
                  done.success_rate, /*completed=*/true));
  round_completed_.push_back(std::move(done));
}

void SessionShard::serve_ticks(std::uint64_t from, std::uint64_t to,
                               obs::MetricId step_seconds) {
  // Tick-outer: at each virtual tick, gather every ready window across
  // the shard's sessions (phase A), classify them in per-(delta-group,
  // sensor) panels (phase B), then complete each session's slot in
  // admission order (phase C). Sessions are independent and classification
  // is a pure function of (model, window), so per-session results are
  // bit-identical to stepping each session alone — only the number of
  // forward passes changes (DESIGN.md §15).
  for (std::uint64_t tick = from; tick < to; ++tick) {
    const auto begin = steady_clock::now();
    requests_.clear();
    pending_.clear();
    for (auto& session : active_) {
      if (session->done() || tick < session->spec().arrival_tick) continue;
      PendingStep item;
      item.session = session.get();
      capture_nvp_before(*session, item);
      item.req_begin = requests_.size();
      session->stepper().step_begin(requests_);
      item.req_end = requests_.size();
      pending_.push_back(item);
    }
    if (pending_.empty()) continue;

    run_panels(pending_);

    for (const PendingStep& item : pending_) {
      finish_step(*item.session, item, tick);
      if (item.session->done()) complete_session(*item.session, tick);
    }
    // One observation per served slot: the tick's gather/classify/scatter
    // wall time amortized over its slots.
    const double per_slot =
        seconds_since(begin) / static_cast<double>(pending_.size());
    for (std::size_t i = 0; i < pending_.size(); ++i) {
      wall_metrics_.observe(step_seconds, per_slot);
    }
  }
  std::erase_if(active_,
                [](const std::unique_ptr<Session>& s) { return s->done(); });
}

void SessionShard::run_panels(const std::vector<PendingStep>& items) {
  results_.clear();
  results_.resize(requests_.size());
  if (!personalizer_) {
    run_panel_group(items.data(), items.size());
    return;
  }
  // Delta-group routing: sessions still on the shared base weights are
  // classified through one base panel; a session carrying a non-identity
  // delta is served on its own weights (its own small panel).
  static thread_local std::vector<PendingStep> clean;
  clean.clear();
  for (const PendingStep& item : items) {
    const PersonalizeState* state = item.session->personalize();
    if (state && state->dirty()) continue;
    clean.push_back(item);
  }
  if (!clean.empty()) {
    personalizer_->load_base(models_);
    run_panel_group(clean.data(), clean.size());
  }
  for (const PendingStep& item : items) {
    const PersonalizeState* state = item.session->personalize();
    if (!state || !state->dirty()) continue;
    personalizer_->load(*state, item.session->spec().id, models_);
    run_panel_group(&item, 1);
  }
}

void SessionShard::run_panel_group(const PendingStep* items,
                                   std::size_t item_count) {
  for (std::size_t s = 0; s < data::kNumSensors; ++s) {
    panel_request_idx_.clear();
    panel_windows_.clear();
    for (std::size_t i = 0; i < item_count; ++i) {
      for (std::size_t r = items[i].req_begin; r < items[i].req_end; ++r) {
        if (requests_[r].sensor != static_cast<int>(s)) continue;
        panel_request_idx_.push_back(r);
        panel_windows_.push_back(requests_[r].window);
      }
    }
    if (panel_windows_.empty()) continue;
    const std::size_t num_classes = models_[s].predict_proba_batch_into(
        panel_windows_.data(), panel_windows_.size(), panel_probs_);
    for (std::size_t k = 0; k < panel_request_idx_.size(); ++k) {
      const float* row = panel_probs_.data() + k * num_classes;
      results_[panel_request_idx_[k]] =
          net::make_classification(std::vector<float>(row, row + num_classes));
    }
    ++round_batch_panels_;
    round_batch_windows_ += panel_windows_.size();
    round_batch_occupancy_.push_back(
        static_cast<std::uint32_t>(panel_windows_.size()));
  }
}

}  // namespace origin::serve
