// ServeLoop::save/restore — graceful stop/resume of a serving process
// without losing personalization state. The snapshot stores the virtual
// clock, the completed-session log, and the full mutable state of every
// active session (energy, NVP task, recall buffer, policy adaptation,
// accumulated result); the stream cursors themselves are NOT stored —
// synthesis is deterministic, so a restored session's cursor re-derives
// its position lazily on the next step. That replay redraws every earlier
// slot's per-slot randomness and synthesizes no window: windows are keyed
// by (stream seed, slot, sensor), so only the ones read are built. The
// fingerprint does not cover the stream, so a change to the stream bumps
// kSnapshotVersion (v7: keyed windows). A personalizing session's sample
// buffer rides as slot recipes (v8), checked against the restored
// session's own stream before the session is adopted. Deterministic metrics are
// replayed from the logs in publish order, so a restored process's
// metrics are bit-identical to one that never stopped.
#include "serve/snapshot.hpp"

#include <bit>
#include <cmath>
#include <cstring>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <variant>
#include <vector>

#include "nn/delta.hpp"
#include "nn/kernels/backend.hpp"
#include "serve/serve_loop.hpp"
#include "util/bytes.hpp"
#include "util/fileio.hpp"

namespace origin::serve {

namespace {

using util::ByteReader;
using util::ByteWriter;

// Each record has ONE field list: a `field(IO&, Rec<IO, T>)` template that
// save() instantiates with the writer and restore() with the reader, so
// the two directions cannot drift apart. Only the leaves below (scalars,
// sequences, optionals, deltas) come in writer/reader overload pairs.

/// A record as each direction sees it: read-only to the writer, filled
/// in by the reader.
template <class IO, class T>
using Rec = std::conditional_t<std::is_same_v<IO, ByteWriter>, const T&, T&>;

void field(ByteWriter& w, bool v) { w.u8(v ? 1 : 0); }
void field(ByteReader& r, bool& v) { v = r.u8() != 0; }
void field(ByteWriter& w, std::int32_t v) { w.i32(v); }
void field(ByteReader& r, std::int32_t& v) { v = r.i32(); }
void field(ByteWriter& w, std::uint32_t v) { w.u32(v); }
void field(ByteReader& r, std::uint32_t& v) { v = r.u32(); }
void field(ByteWriter& w, std::uint64_t v) { w.u64(v); }
void field(ByteReader& r, std::uint64_t& v) { v = r.u64(); }
void field(ByteWriter& w, float v) { w.f32(v); }
void field(ByteReader& r, float& v) { v = r.f32(); }
void field(ByteWriter& w, double v) { w.f64(v); }
void field(ByteReader& r, double& v) { v = r.f64(); }
void field(ByteWriter& w, const std::string& v) { w.str(v); }
void field(ByteReader& r, std::string& v) { v = r.str(); }

/// Scalar sequence: a `Len` count, then the elements.
template <class Len = std::uint64_t, class T>
void seq(ByteWriter& w, const std::vector<T>& v) {
  field(w, static_cast<Len>(v.size()));
  for (T x : v) field(w, x);
}
template <class Len = std::uint64_t, class T>
void seq(ByteReader& r, std::vector<T>& v) {
  static_assert(std::is_arithmetic_v<T>, "elements are scalars on the wire");
  Len n{};
  field(r, n);
  v.resize(r.length(n, sizeof(T)));
  for (T& x : v) field(r, x);
}

/// A delta rides as its own codec's blob (u64 length + bytes), which
/// validates the entry ordering and the base layout on read.
void field(ByteWriter& w, const nn::ModelDelta& d) {
  const std::string bytes = nn::delta_to_string(d);
  w.u64(bytes.size());
  w.raw(bytes.data(), bytes.size());
}
void field(ByteReader& r, nn::ModelDelta& d) {
  const std::size_t n = r.length(r.u64());
  d = nn::delta_from_string(std::string(r.take(n), n));
}

// Tensor: u32 rank, i32 dims, u64 count, f32 values.
template <class IO>
void field(IO& io, Rec<IO, nn::Tensor> t) {
  std::vector<int> shape = t.shape();
  std::vector<float> values(t.data(), t.data() + t.size());
  seq<std::uint32_t>(io, shape);
  seq(io, values);
  if constexpr (std::is_same_v<IO, ByteReader>) {
    try {
      t = nn::Tensor(std::move(shape), std::move(values));
    } catch (const std::invalid_argument&) {
      throw std::runtime_error("snapshot: tensor shape does not match data");
    }
  }
}

template <class IO>
void field(IO& io, Rec<IO, net::Classification> c) {
  field(io, c.predicted_class);
  seq(io, c.probs);
  field(io, c.confidence);
}

template <class IO>
void field(IO& io, Rec<IO, net::RecalledVote> v) {
  field(io, v.classification);
  field(io, v.timestamp_s);
  field(io, v.fresh);
}

void field(ByteWriter& w, data::Activity a) {
  w.i32(static_cast<std::int32_t>(a));
}
void field(ByteReader& r, data::Activity& a) {
  a = static_cast<data::Activity>(r.i32());
}

/// Optional: a u8 presence flag, then the value when present.
template <class T>
void field(ByteWriter& w, const std::optional<T>& v) {
  field(w, v.has_value());
  if (v) field(w, *v);
}
template <class T>
void field(ByteReader& r, std::optional<T>& v) {
  bool present = false;
  field(r, present);
  v.reset();
  if (present) field(r, v.emplace());
}

template <class IO>
void field(IO& io, Rec<IO, net::NodeCounters> c) {
  field(io, c.attempts);
  field(io, c.completions);
  field(io, c.skipped_no_energy);
  field(io, c.died_midway);
  field(io, c.harvested_j);
  field(io, c.consumed_j);
}

template <class IO>
void field(IO& io, Rec<IO, energy::NvpState> nvp) {
  field(io, nvp.active);
  field(io, nvp.total_j);
  field(io, nvp.progress_j);
  field(io, nvp.checkpoints);
  field(io, nvp.restores);
}

template <class IO>
void field(IO& io, Rec<IO, net::SensorNodeState> s) {
  field(io, s.stored_j);
  field(io, s.failed);
  field(io, s.counters);
  field(io, s.nvp);
  field(io, s.pending_window);
}

template <class IO>
void field(IO& io, Rec<IO, CompletedSession> c) {
  field(io, c.id);
  field(io, c.arrival_tick);
  field(io, c.completed_tick);
  field(io, c.slots);
  field(io, c.accuracy);
  field(io, c.success_rate);
  field(io, c.harvested_j);
  field(io, c.consumed_j);
  field(io, c.outputs_fnv1a);
  seq(io, c.outputs);
  field(io, c.fine_tunes);
  field(io, c.fine_tune_steps);
  field(io, c.delta_bytes);
  field(io, c.personalize_j);
}

template <class IO>
void field(IO& io, Rec<IO, obs::HistogramCell> h) {
  seq(io, h.buckets);
  field(io, h.count);
  field(io, h.sum);
  field(io, h.min);
  field(io, h.max);
}

template <class IO>
void field(IO& io, Rec<IO, sim::CompletionStats> c) {
  field(io, c.slots);
  field(io, c.slots_all_completed);
  field(io, c.slots_some_completed);
  field(io, c.slots_none_completed);
  field(io, c.attempts);
  field(io, c.completions);
}

/// A session's per-slot tallies (its confusion matrix is sized by the
/// caller; its node counters ride in the node records).
template <class IO>
void tallies(IO& io, Rec<IO, sim::SimResult> result) {
  field(io, result.completion);
  for (auto& scheduled : result.scheduled) field(io, scheduled);
  field(io, result.output_transitions);
  seq(io, result.outputs);
}

/// A buffered sample (v8): the slot key, the label and the rest of the
/// slot's recipe. The windows are re-synthesized from them.
template <class IO>
void field(IO& io, Rec<IO, PersonalizeState::BufferedSample> s) {
  field(io, s.recipe.key);
  field(io, s.label);
  field(io, s.recipe.activity);
  field(io, s.recipe.t0_s);
  field(io, s.recipe.style.blend_u);
  field(io, s.recipe.style.cadence_g);
  field(io, s.recipe.style.ambiguous_with);
  field(io, s.recipe.style.ambiguity_mix);
}

/// Record sequence: u64 count, then the records, read one at a time —
/// every record spans at least one byte, so a corrupt count runs out of
/// input before it can run out of memory.
template <class C>
void records(ByteWriter& w, const C& c) {
  w.u64(c.size());
  for (const auto& x : c) field(w, x);
}
template <class C>
void records(ByteReader& r, C& c) {
  c.clear();
  for (std::size_t n = r.length(r.u64()); n > 0; --n) {
    field(r, c.emplace_back());
  }
}

template <class IO>
void field(IO& io, Rec<IO, PersonalizeState> st) {
  field(io, st.fine_tunes);
  field(io, st.steps_used);
  field(io, st.delta_bytes);
  field(io, st.energy_j);
  records(io, st.buffer);
  for (auto& delta : st.delta) field(io, delta);
}

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// Whether `sample` is bit for bit what the session buffered from `slot`.
bool buffered_from(const PersonalizeState::BufferedSample& sample,
                   const data::SlotSample& slot) {
  const data::SlotRecipe& a = sample.recipe;
  const data::SlotRecipe b = slot.recipe();
  return sample.label == slot.label && a.key == b.key &&
         a.activity == b.activity && same_bits(a.t0_s, b.t0_s) &&
         same_bits(a.style.blend_u, b.style.blend_u) &&
         same_bits(a.style.cadence_g, b.style.cadence_g) &&
         a.style.ambiguous_with == b.style.ambiguous_with &&
         same_bits(a.style.ambiguity_mix, b.style.ambiguity_mix);
}

/// A restored sample buffer must hold the session's own served slots
/// (strictly before `next_slot`, oldest first): every field in range and
/// finite, and each record equal to the label and recipe the session's
/// stream derives for its slot. Anything else would fine-tune the session
/// on windows it never served. Replays `source` forward to the newest
/// buffered slot, which the next step would replay anyway.
void check_buffer(const PersonalizeState& st, data::SlotSource& source,
                  std::size_t next_slot) {
  const data::DatasetSpec& spec = source.spec();
  const auto valid = [](data::Activity a) {
    const int v = static_cast<int>(a);
    return v >= 0 && v < data::kNumActivityKinds;
  };
  std::size_t earliest = 0;  // slots are buffered in increasing order
  for (std::size_t k = 0; k < st.buffer.size(); ++k) {
    const PersonalizeState::BufferedSample& sample = st.buffer[k];
    const data::SlotRecipe& r = sample.recipe;
    const auto fail = [&](const std::string& what) {
      throw std::runtime_error("buffered sample " + std::to_string(k) + ": " +
                               what);
    };
    if (!valid(r.activity)) fail("activity out of range");
    if (r.style.ambiguous_with && !valid(*r.style.ambiguous_with)) {
      fail("ambiguous activity out of range");
    }
    if (sample.label < 0 || sample.label >= spec.num_classes()) {
      fail("label out of range");
    }
    const std::pair<const char*, double> reals[] = {
        {"t0_s", r.t0_s},
        {"blend_u", r.style.blend_u},
        {"cadence_g", r.style.cadence_g},
        {"ambiguity_mix", r.style.ambiguity_mix}};
    for (const auto& [name, value] : reals) {
      if (!std::isfinite(value)) fail(std::string("non-finite ") + name);
    }
    const double slot = r.t0_s / spec.slot_seconds();
    if (!(slot >= static_cast<double>(earliest) &&
          slot < static_cast<double>(next_slot))) {
      fail("t0_s is not a served slot after the previous sample's");
    }
    const auto i = static_cast<std::size_t>(slot);
    if (!buffered_from(sample, source.slot(i))) {
      fail("does not match the session's slot " + std::to_string(i));
    }
    earliest = i + 1;
  }
}

using FingerprintValue = std::variant<bool, std::int32_t, std::uint32_t,
                                      std::uint64_t, double, std::string>;

struct FingerprintEntry {
  const char* name;
  FingerprintValue value;
};

/// The workload fingerprint, in file order: everything results depend
/// on. save() writes each value; restore() reads each back and names the
/// first field that differs. Threads and the results/flight ring
/// capacities never affect results, so they are deliberately absent.
std::vector<FingerprintEntry> fingerprint(const ServeConfig& config,
                                          const sim::Experiment& experiment) {
  const PersonalizeConfig& p = config.personalize;
  return {
      {"users", std::uint64_t{config.users}},
      {"arrival_rate_hz", config.arrival_rate_hz},
      {"arrival_seed", config.arrival_seed},
      {"population_seed", config.population_seed},
      {"severity", config.severity},
      {"policy", static_cast<std::uint32_t>(config.policy)},
      {"rr_cycle", config.rr_cycle},
      {"set", static_cast<std::uint32_t>(config.set)},
      {"shards", std::uint64_t{config.shards}},
      {"bits", config.bits},
      // The kernel backend changes the served bits (fused SIMD vs
      // unfused scalar float paths round differently). The int8 path is
      // backend-invariant, but pinning the name keeps the contract simple
      // and the failure mode loud.
      {"backend", std::string(nn::kernels::active_backend().name)},
      {"stream_slots", experiment.config().stream_slots},
      {"stream_seed", experiment.config().stream_seed},
      {"num_classes", experiment.spec().num_classes()},
      // Personalization knobs all change the served outputs, so every
      // field fingerprints.
      {"personalize.enabled", p.enabled},
      {"personalize.step_budget", p.step_budget},
      {"personalize.cadence_slots", p.cadence_slots},
      {"personalize.min_samples", p.min_samples},
      {"personalize.max_samples", p.max_samples},
      {"personalize.batch_size", p.batch_size},
      {"personalize.learning_rate", p.learning_rate},
      {"personalize.epochs", p.epochs},
      {"personalize.tune_tail_layers", p.tune_tail_layers},
  };
}

}  // namespace

void ServeLoop::save(const std::string& path) const {
  std::lock_guard<std::mutex> lock(publish_mutex_);
  ByteWriter w;
  w.raw(kSnapshotMagic, sizeof kSnapshotMagic);
  w.u32(kSnapshotVersion);
  for (const auto& entry : fingerprint(config_, *experiment_)) {
    std::visit([&](const auto& value) { field(w, value); }, entry.value);
  }

  w.u64(now_);
  w.u64(next_admit_);
  w.u64(results_seq_);

  // Cross-session batching stats (v4): carried wholesale — the panel
  // composition of already-served ticks is not recoverable from the
  // completed log, unlike every other deterministic metric.
  w.u64(det_metrics_.counter(batch_panels_id_));
  w.u64(det_metrics_.counter(batch_windows_id_));
  field(w, det_metrics_.histogram(batch_occupancy_id_));

  records(w, completed_);

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
        field(w, stepper.node(s).snapshot_state());
      }
      for (std::size_t s = 0; s < data::kNumSensors; ++s) {
        field(w, stepper.host().vote(static_cast<data::SensorLocation>(s)));
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
      tallies(w, result);
      // The deltas inside round-trip through their own codec: a restored
      // session's in-memory weights (base + dequantized delta) are the
      // bytes the fit realized, so serving resumes bit-identically.
      if (config_.personalize.enabled) field(w, *session->personalize());
    }
  }

  util::write_file_atomic(path, w.bytes());
}

void ServeLoop::restore(const std::string& path) {
  if (now_ != 0 || next_admit_ != 0) {
    throw std::runtime_error(
        "ServeLoop::restore: loop already served ticks — restore into a "
        "freshly constructed loop");
  }
  const std::string bytes = util::read_file(path);
  ByteReader r(bytes, "snapshot");

  if (std::memcmp(r.take(sizeof kSnapshotMagic), kSnapshotMagic,
                  sizeof kSnapshotMagic) != 0) {
    throw std::runtime_error("snapshot: bad magic (not a serve snapshot)");
  }
  const std::uint32_t version = r.u32();
  if (version != kSnapshotVersion) {
    throw std::runtime_error("snapshot: unsupported version " +
                             std::to_string(version));
  }
  for (const auto& entry : fingerprint(config_, *experiment_)) {
    std::visit(
        [&](const auto& expected) {
          std::decay_t<decltype(expected)> saved{};
          field(r, saved);
          if (saved != expected) {
            throw std::runtime_error(
                std::string("snapshot config mismatch: ") + entry.name);
          }
        },
        entry.value);
  }

  const std::uint64_t saved_now = r.u64();
  const std::uint64_t saved_next_admit = r.u64();
  const std::uint64_t saved_results_seq = r.u64();

  // Everything below parses into locals; the loop adopts none of it
  // until the whole file has checked out, so a failed restore leaves the
  // loop as constructed.
  const std::uint64_t batch_panels = r.u64();
  const std::uint64_t batch_windows = r.u64();
  obs::HistogramCell occupancy;
  field(r, occupancy);
  if (occupancy.buckets.size() !=
      det_metrics_.histogram(batch_occupancy_id_).buckets.size()) {
    throw std::runtime_error(
        "snapshot: serve.batch_occupancy bucket count mismatch");
  }
  std::vector<CompletedSession> completed;
  records(r, completed);

  const int num_classes = experiment_->spec().num_classes();
  std::vector<std::unique_ptr<Session>> sessions;
  const std::uint64_t active_count = r.u64();
  for (std::uint64_t i = 0; i < active_count; ++i) {
    const std::uint64_t id = r.u64();
    if (id >= arrivals_.size()) {
      throw std::runtime_error("snapshot: active session id out of range");
    }
    std::unique_ptr<Session> session = make_session(id);
    sim::SlotStepper& stepper = session->stepper();

    const std::uint64_t next_slot = r.u64();
    std::array<double, data::kNumSensors> last_success{};
    for (auto& t : last_success) t = r.f64();
    const int previous_output = r.i32();
    stepper.restore_progress(next_slot, last_success, previous_output);

    for (std::size_t s = 0; s < data::kNumSensors; ++s) {
      net::SensorNodeState state;
      field(r, state);
      stepper.node(s).restore_state(state);
    }
    for (std::size_t s = 0; s < data::kNumSensors; ++s) {
      std::optional<net::RecalledVote> vote;
      field(r, vote);
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
    tallies(r, result);
    if (config_.personalize.enabled) {
      session->enable_personalize();
      PersonalizeState& st = *session->personalize();
      field(r, st);
      // The weights themselves are re-derived lazily (Personalizer::load
      // re-applies base + delta before the session's next panel or fit),
      // so a delta the shard could not apply must be refused here, not
      // mid-tick with the scratch half rewritten; likewise a buffered
      // recipe the session's stream did not serve, before a fit reads it.
      try {
        shards_[id % config_.shards]->personalizer()->validate(st);
        check_buffer(st, stepper.source(), next_slot);
      } catch (const std::runtime_error& err) {
        throw std::runtime_error("snapshot: session " + std::to_string(id) +
                                 ": " + err.what());
      }
    }
    sessions.push_back(std::move(session));
  }

  if (!r.exhausted()) {
    throw std::runtime_error("snapshot: trailing bytes");
  }

  std::lock_guard<std::mutex> lock(publish_mutex_);
  det_metrics_.inc(batch_panels_id_, batch_panels);
  det_metrics_.inc(batch_windows_id_, batch_windows);
  det_metrics_.restore_histogram(batch_occupancy_id_, occupancy);
  completed_ = std::move(completed);
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
  for (std::unique_ptr<Session>& session : sessions) {
    det_metrics_.inc(slots_id_, session->stepper().next_slot());
    if (const PersonalizeState* st = session->personalize()) {
      det_metrics_.inc(fine_tunes_id_, st->fine_tunes);
      det_metrics_.inc(fine_tune_steps_id_, st->steps_used);
    }
    admit_session(std::move(session));
  }

  now_ = saved_now;
  next_admit_ = saved_next_admit;
  results_seq_ = saved_results_seq;
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    shards_[i]->summarize(shard_summaries_[i]);
  }
  rebuild_published_locked();
}

}  // namespace origin::serve
