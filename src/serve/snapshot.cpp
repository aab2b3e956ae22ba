// ServeLoop::save/restore — graceful stop/resume of a serving process
// without losing personalization state. The snapshot stores the virtual
// clock, the completed-session log, and the full mutable state of every
// active session (energy, NVP task, recall buffer, policy adaptation,
// accumulated result); the stream cursors themselves are NOT stored —
// synthesis is deterministic, so a restored session's cursor re-derives
// its position lazily on the next step. Deterministic metrics are
// replayed from the logs in publish order, so a restored process's
// metrics are bit-identical to one that never stopped.
#include "serve/snapshot.hpp"

#include "nn/delta.hpp"
#include "nn/kernels/backend.hpp"
#include "serve/serve_loop.hpp"

namespace origin::serve {

namespace {

void write_tensor(SnapshotWriter& w, const nn::Tensor& t) {
  w.u32(static_cast<std::uint32_t>(t.shape().size()));
  for (int d : t.shape()) w.i32(d);
  w.u64(t.size());
  for (std::size_t i = 0; i < t.size(); ++i) w.f32(t.data()[i]);
}

nn::Tensor read_tensor(SnapshotReader& r) {
  std::vector<int> shape(r.u32());
  for (auto& d : shape) d = r.i32();
  std::vector<float> data(r.u64());
  for (auto& v : data) v = r.f32();
  return nn::Tensor(std::move(shape), std::move(data));
}

void write_classification(SnapshotWriter& w, const net::Classification& c) {
  w.i32(c.predicted_class);
  w.u64(c.probs.size());
  for (float p : c.probs) w.f32(p);
  w.f64(c.confidence);
}

net::Classification read_classification(SnapshotReader& r) {
  net::Classification c;
  c.predicted_class = r.i32();
  c.probs.resize(r.u64());
  for (auto& p : c.probs) p = r.f32();
  c.confidence = r.f64();
  return c;
}

void write_node(SnapshotWriter& w, const net::SensorNodeState& state) {
  w.f64(state.stored_j);
  w.u8(state.failed ? 1 : 0);
  w.u64(state.counters.attempts);
  w.u64(state.counters.completions);
  w.u64(state.counters.skipped_no_energy);
  w.u64(state.counters.died_midway);
  w.f64(state.counters.harvested_j);
  w.f64(state.counters.consumed_j);
  w.u8(state.nvp.active ? 1 : 0);
  w.f64(state.nvp.total_j);
  w.f64(state.nvp.progress_j);
  w.u64(state.nvp.checkpoints);
  w.u64(state.nvp.restores);
  w.u8(state.pending_window ? 1 : 0);
  if (state.pending_window) write_tensor(w, *state.pending_window);
}

net::SensorNodeState read_node(SnapshotReader& r) {
  net::SensorNodeState state;
  state.stored_j = r.f64();
  state.failed = r.u8() != 0;
  state.counters.attempts = r.u64();
  state.counters.completions = r.u64();
  state.counters.skipped_no_energy = r.u64();
  state.counters.died_midway = r.u64();
  state.counters.harvested_j = r.f64();
  state.counters.consumed_j = r.f64();
  state.nvp.active = r.u8() != 0;
  state.nvp.total_j = r.f64();
  state.nvp.progress_j = r.f64();
  state.nvp.checkpoints = r.u64();
  state.nvp.restores = r.u64();
  if (r.u8()) state.pending_window = read_tensor(r);
  return state;
}

void write_completed(SnapshotWriter& w, const CompletedSession& c) {
  w.u64(c.id);
  w.u64(c.arrival_tick);
  w.u64(c.completed_tick);
  w.u64(c.slots);
  w.f64(c.accuracy);
  w.f64(c.success_rate);
  w.f64(c.harvested_j);
  w.f64(c.consumed_j);
  w.u64(c.outputs_fnv1a);
  w.u64(c.outputs.size());
  for (int v : c.outputs) w.i32(v);
  w.u64(c.fine_tunes);
  w.u64(c.fine_tune_steps);
  w.u64(c.delta_bytes);
  w.f64(c.personalize_j);
}

CompletedSession read_completed(SnapshotReader& r) {
  CompletedSession c;
  c.id = r.u64();
  c.arrival_tick = r.u64();
  c.completed_tick = r.u64();
  c.slots = r.u64();
  c.accuracy = r.f64();
  c.success_rate = r.f64();
  c.harvested_j = r.f64();
  c.consumed_j = r.f64();
  c.outputs_fnv1a = r.u64();
  c.outputs.resize(r.u64());
  for (auto& v : c.outputs) v = r.i32();
  c.fine_tunes = r.u64();
  c.fine_tune_steps = r.u64();
  c.delta_bytes = r.u64();
  c.personalize_j = r.f64();
  return c;
}

void check(bool ok, const char* what) {
  if (!ok) {
    throw std::runtime_error(std::string("snapshot config mismatch: ") + what);
  }
}

}  // namespace

void ServeLoop::save(const std::string& path) const {
  std::lock_guard<std::mutex> lock(publish_mutex_);
  SnapshotWriter w;
  w.raw(kSnapshotMagic, sizeof kSnapshotMagic);
  w.u32(kSnapshotVersion);

  // Workload fingerprint: everything results depend on. Threads and the
  // results-ring capacity are deliberately absent.
  w.u64(config_.users);
  w.f64(config_.arrival_rate_hz);
  w.u64(config_.arrival_seed);
  w.u64(config_.population_seed);
  w.f64(config_.severity);
  w.u32(static_cast<std::uint32_t>(config_.policy));
  w.i32(config_.rr_cycle);
  w.u32(static_cast<std::uint32_t>(config_.set));
  w.u64(config_.shards);
  w.i32(config_.bits);
  {
    // The kernel backend changes the served bits (fused SIMD vs unfused
    // scalar float paths round differently), so it fingerprints like any
    // other workload knob. The int8 path is backend-invariant, but pinning
    // the name keeps the contract simple and the failure mode loud.
    const std::string backend = nn::kernels::active_backend().name;
    w.u32(static_cast<std::uint32_t>(backend.size()));
    w.raw(backend.data(), backend.size());
  }
  w.i32(experiment_->config().stream_slots);
  w.u64(experiment_->config().stream_seed);
  w.i32(experiment_->spec().num_classes());
  // Personalization knobs all change the served outputs, so every field
  // fingerprints — a snapshot taken with fine-tuning off (or differently
  // tuned) refuses to load under another config.
  w.u8(config_.personalize.enabled ? 1 : 0);
  w.i32(config_.personalize.step_budget);
  w.i32(config_.personalize.cadence_slots);
  w.i32(config_.personalize.min_samples);
  w.i32(config_.personalize.max_samples);
  w.i32(config_.personalize.batch_size);
  w.f64(config_.personalize.learning_rate);
  w.i32(config_.personalize.epochs);
  w.i32(config_.personalize.tune_tail_layers);

  w.u64(now_);
  w.u64(next_admit_);
  w.u64(results_seq_);

  // Cross-session batching stats (v4): carried wholesale — the panel
  // composition of already-served ticks is not recoverable from the
  // completed log, unlike every other deterministic metric.
  {
    const obs::HistogramCell& occupancy =
        det_metrics_.histogram(batch_occupancy_id_);
    w.u64(det_metrics_.counter(batch_panels_id_));
    w.u64(det_metrics_.counter(batch_windows_id_));
    w.u64(occupancy.buckets.size());
    for (std::uint64_t bucket : occupancy.buckets) w.u64(bucket);
    w.u64(occupancy.count);
    w.f64(occupancy.sum);
    w.f64(occupancy.min);
    w.f64(occupancy.max);
  }

  w.u64(completed_.size());
  for (const auto& record : completed_) write_completed(w, record);

  std::uint64_t active = 0;
  for (const auto& shard : shards_) active += shard->active().size();
  w.u64(active);
  const int num_classes = experiment_->spec().num_classes();
  for (const auto& shard : shards_) {
    for (const auto& session : shard->active()) {
      const sim::SlotStepper& stepper = session->stepper();
      w.u64(session->spec().id);
      w.u64(stepper.next_slot());
      for (double t : stepper.last_success_s()) w.f64(t);
      w.i32(stepper.previous_output());
      for (std::size_t s = 0; s < data::kNumSensors; ++s) {
        write_node(w, stepper.node(s).snapshot_state());
      }
      for (std::size_t s = 0; s < data::kNumSensors; ++s) {
        const auto& vote =
            stepper.host().vote(static_cast<data::SensorLocation>(s));
        w.u8(vote ? 1 : 0);
        if (vote) {
          write_classification(w, vote->classification);
          w.f64(vote->timestamp_s);
          w.u8(vote->fresh ? 1 : 0);
        }
      }
      const core::Policy& policy = stepper.policy();
      w.i32(policy.last_result_class());
      if (config_.policy == sim::PolicyKind::AASR ||
          config_.policy == sim::PolicyKind::Origin) {
        w.i32(dynamic_cast<const core::AASRPolicy&>(policy).last_fused());
      }
      if (config_.policy == sim::PolicyKind::Origin) {
        const auto& confidence =
            dynamic_cast<const core::OriginPolicy&>(policy).confidence();
        for (int s = 0; s < data::kNumSensors; ++s) {
          for (int c = 0; c < num_classes; ++c) {
            w.f64(confidence.weight(static_cast<data::SensorLocation>(s), c));
          }
        }
      }
      const sim::SimResult& result = stepper.result();
      for (const auto& row : result.accuracy.confusion()) {
        for (std::uint64_t cell : row) w.u64(cell);
      }
      w.u64(result.completion.slots);
      w.u64(result.completion.slots_all_completed);
      w.u64(result.completion.slots_some_completed);
      w.u64(result.completion.slots_none_completed);
      w.u64(result.completion.attempts);
      w.u64(result.completion.completions);
      for (std::uint64_t s : result.scheduled) w.u64(s);
      w.u64(result.output_transitions);
      w.u64(result.outputs.size());
      for (int v : result.outputs) w.i32(v);
      if (config_.personalize.enabled) {
        const PersonalizeState& st = *session->personalize();
        w.u64(st.fine_tunes);
        w.u64(st.steps_used);
        w.u64(st.delta_bytes);
        w.f64(st.energy_j);
        w.u64(st.buffer.size());
        for (const auto& sample : st.buffer) {
          w.i32(sample.label);
          for (const auto& window : sample.windows) write_tensor(w, window);
        }
        // The deltas round-trip through their own codec: a restored
        // session's in-memory weights (base + dequantized delta) are the
        // bytes the fit realized, so serving resumes bit-identically.
        for (const auto& delta : st.delta) {
          const std::string bytes = nn::delta_to_string(delta);
          w.u64(bytes.size());
          w.raw(bytes.data(), bytes.size());
        }
      }
    }
  }

  write_file_atomic(path, w.bytes());
}

void ServeLoop::restore(const std::string& path) {
  if (now_ != 0 || next_admit_ != 0) {
    throw std::runtime_error(
        "ServeLoop::restore: loop already served ticks — restore into a "
        "freshly constructed loop");
  }
  SnapshotReader r(read_file(path));

  char magic[sizeof kSnapshotMagic];
  std::memcpy(magic, r.take(sizeof magic), sizeof magic);
  if (std::memcmp(magic, kSnapshotMagic, sizeof magic) != 0) {
    throw std::runtime_error("snapshot: bad magic (not a serve snapshot)");
  }
  const std::uint32_t version = r.u32();
  if (version != kSnapshotVersion) {
    throw std::runtime_error("snapshot: unsupported version " +
                             std::to_string(version));
  }

  check(r.u64() == config_.users, "users");
  check(r.f64() == config_.arrival_rate_hz, "arrival_rate_hz");
  check(r.u64() == config_.arrival_seed, "arrival_seed");
  check(r.u64() == config_.population_seed, "population_seed");
  check(r.f64() == config_.severity, "severity");
  check(r.u32() == static_cast<std::uint32_t>(config_.policy), "policy");
  check(r.i32() == config_.rr_cycle, "rr_cycle");
  check(r.u32() == static_cast<std::uint32_t>(config_.set), "model set");
  check(r.u64() == config_.shards, "shards");
  check(r.i32() == config_.bits, "bits");
  {
    std::string backend(r.u32(), '\0');
    std::memcpy(backend.data(), r.take(backend.size()), backend.size());
    check(backend == nn::kernels::active_backend().name, "kernel backend");
  }
  check(r.i32() == experiment_->config().stream_slots, "stream_slots");
  check(r.u64() == experiment_->config().stream_seed, "stream_seed");
  const int num_classes = experiment_->spec().num_classes();
  check(r.i32() == num_classes, "num_classes");
  check((r.u8() != 0) == config_.personalize.enabled, "personalize.enabled");
  check(r.i32() == config_.personalize.step_budget, "personalize.step_budget");
  check(r.i32() == config_.personalize.cadence_slots,
        "personalize.cadence_slots");
  check(r.i32() == config_.personalize.min_samples, "personalize.min_samples");
  check(r.i32() == config_.personalize.max_samples, "personalize.max_samples");
  check(r.i32() == config_.personalize.batch_size, "personalize.batch_size");
  check(r.f64() == config_.personalize.learning_rate,
        "personalize.learning_rate");
  check(r.i32() == config_.personalize.epochs, "personalize.epochs");
  check(r.i32() == config_.personalize.tune_tail_layers,
        "personalize.tune_tail_layers");

  const std::uint64_t saved_now = r.u64();
  const std::uint64_t saved_next_admit = r.u64();
  const std::uint64_t saved_results_seq = r.u64();

  std::lock_guard<std::mutex> lock(publish_mutex_);
  {
    const std::uint64_t batch_panels = r.u64();
    const std::uint64_t batch_windows = r.u64();
    obs::HistogramCell occupancy;
    occupancy.buckets.resize(r.u64());
    for (auto& bucket : occupancy.buckets) bucket = r.u64();
    occupancy.count = r.u64();
    occupancy.sum = r.f64();
    occupancy.min = r.f64();
    occupancy.max = r.f64();
    det_metrics_.inc(batch_panels_id_, batch_panels);
    det_metrics_.inc(batch_windows_id_, batch_windows);
    det_metrics_.restore_histogram(batch_occupancy_id_, occupancy);
  }
  completed_.clear();
  const std::uint64_t completed_count = r.u64();
  for (std::uint64_t i = 0; i < completed_count; ++i) {
    completed_.push_back(read_completed(r));
  }
  // Replay the deterministic metrics in publish order — commutative sums
  // recorded in the same sequence give bit-identical values to a process
  // that never stopped.
  det_metrics_.inc(admitted_id_, saved_next_admit);
  for (const auto& record : completed_) {
    record_completed_metrics(record);
    det_metrics_.inc(slots_id_, record.slots);
    det_metrics_.inc(fine_tunes_id_, record.fine_tunes);
    det_metrics_.inc(fine_tune_steps_id_, record.fine_tune_steps);
  }

  const std::uint64_t active_count = r.u64();
  for (std::uint64_t i = 0; i < active_count; ++i) {
    const std::uint64_t id = r.u64();
    if (id >= arrivals_.size()) {
      throw std::runtime_error("snapshot: active session id out of range");
    }
    Session& session = admit_session(id);
    sim::SlotStepper& stepper = session.stepper();

    const std::uint64_t next_slot = r.u64();
    std::array<double, data::kNumSensors> last_success{};
    for (auto& t : last_success) t = r.f64();
    const int previous_output = r.i32();
    stepper.restore_progress(next_slot, last_success, previous_output);
    det_metrics_.inc(slots_id_, next_slot);

    for (std::size_t s = 0; s < data::kNumSensors; ++s) {
      stepper.node(s).restore_state(read_node(r));
    }
    for (std::size_t s = 0; s < data::kNumSensors; ++s) {
      std::optional<net::RecalledVote> vote;
      if (r.u8()) {
        net::RecalledVote v;
        v.classification = read_classification(r);
        v.timestamp_s = r.f64();
        v.fresh = r.u8() != 0;
        vote = std::move(v);
      }
      stepper.host().restore_vote(static_cast<data::SensorLocation>(s), vote);
    }

    core::Policy& policy = stepper.policy();
    policy.restore_last_result_class(r.i32());
    if (config_.policy == sim::PolicyKind::AASR ||
        config_.policy == sim::PolicyKind::Origin) {
      dynamic_cast<core::AASRPolicy&>(policy).restore_last_fused(r.i32());
    }
    if (config_.policy == sim::PolicyKind::Origin) {
      auto& confidence =
          dynamic_cast<core::OriginPolicy&>(policy).confidence();
      for (int s = 0; s < data::kNumSensors; ++s) {
        for (int c = 0; c < num_classes; ++c) {
          confidence.set_weight(static_cast<data::SensorLocation>(s), c,
                                r.f64());
        }
      }
    }

    sim::SimResult& result = stepper.result();
    std::vector<std::vector<std::uint64_t>> confusion(
        static_cast<std::size_t>(num_classes),
        std::vector<std::uint64_t>(static_cast<std::size_t>(num_classes) + 1));
    for (auto& row : confusion) {
      for (auto& cell : row) cell = r.u64();
    }
    result.accuracy.restore(std::move(confusion));
    result.completion.slots = r.u64();
    result.completion.slots_all_completed = r.u64();
    result.completion.slots_some_completed = r.u64();
    result.completion.slots_none_completed = r.u64();
    result.completion.attempts = r.u64();
    result.completion.completions = r.u64();
    for (auto& s : result.scheduled) s = r.u64();
    result.output_transitions = r.u64();
    result.outputs.resize(r.u64());
    for (auto& v : result.outputs) v = r.i32();
    if (config_.personalize.enabled) {
      PersonalizeState& st = *session.personalize();
      st.fine_tunes = r.u64();
      st.steps_used = r.u64();
      st.delta_bytes = r.u64();
      st.energy_j = r.f64();
      st.buffer.clear();
      const std::uint64_t buffered = r.u64();
      for (std::uint64_t b = 0; b < buffered; ++b) {
        PersonalizeState::BufferedSample sample;
        sample.label = r.i32();
        for (auto& window : sample.windows) window = read_tensor(r);
        st.buffer.push_back(std::move(sample));
      }
      for (auto& delta : st.delta) {
        std::string bytes(r.u64(), '\0');
        std::memcpy(bytes.data(), r.take(bytes.size()), bytes.size());
        delta = nn::delta_from_string(bytes);
      }
      // The weights themselves are re-derived lazily: Personalizer::load
      // re-applies base + delta before the session's next served tick.
      det_metrics_.inc(fine_tunes_id_, st.fine_tunes);
      det_metrics_.inc(fine_tune_steps_id_, st.steps_used);
    }
  }

  if (!r.exhausted()) {
    throw std::runtime_error("snapshot: trailing bytes");
  }

  now_ = saved_now;
  next_admit_ = saved_next_admit;
  results_seq_ = saved_results_seq;
  rebuild_published_locked();
}

}  // namespace origin::serve
