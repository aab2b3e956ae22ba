// Fleet-scale personalization contracts: the delta codec's projection
// property (apply ∘ encode is idempotent, so stored and live weights
// never diverge), parallel pipeline calibration bit-identical to the
// serial oracle at any thread count, and in-shard bounded fine-tuning
// equal to a single-session oracle and bit-identical across thread counts
// and a mid-flight snapshot/restore split, with the optimizer-step budget
// and the delta-vs-full-file size advantage pinned. The tail-only fit is
// checked against an independent per-sample full-net loop that never
// steps the frozen prefix, and a golden hash pins the fine-tuned bits.
#include "serve/personalize.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <limits>
#include <memory>
#include <numeric>
#include <stdexcept>

#include "backend_scope.hpp"
#include "calibration_oracles.hpp"
#include "core/pipeline.hpp"
#include "data/stream_cursor.hpp"
#include "fleet/fleet_runner.hpp"
#include "fleet/shard.hpp"
#include "nn/activations.hpp"
#include "nn/conv1d.hpp"
#include "nn/dense.hpp"
#include "nn/delta.hpp"
#include "nn/dropout.hpp"
#include "nn/energy_model.hpp"
#include "nn/loss.hpp"
#include "nn/optimizer.hpp"
#include "nn/pooling.hpp"
#include "nn/serialize.hpp"
#include "nn/softmax.hpp"
#include "serve/endpoint.hpp"
#include "serve/serve_loop.hpp"
#include "serve/snapshot.hpp"
#include "util/fileio.hpp"
#include "util/logging.hpp"
#include "util/rng.hpp"

namespace origin::serve {
namespace {

// --- Delta codec -----------------------------------------------------

nn::Sequential small_model(std::uint64_t seed) {
  util::Rng rng(seed);
  nn::Sequential m;
  m.emplace<nn::Conv1D>(3, 4, 3, 1, rng)
      .emplace<nn::ReLU>()
      .emplace<nn::Flatten>()
      .emplace<nn::Dense>(4 * (12 - 3 + 1), 5, rng)
      .emplace<nn::ReLU>()
      .emplace<nn::Dense>(5, 4, rng)
      .emplace<nn::Softmax>();
  return m;
}

// Perturbs only the trailing Dense (the fine-tuning shape: head adapts,
// backbone stays frozen).
nn::Sequential perturb_head(const nn::Sequential& base, float eps) {
  nn::Sequential tuned = base;
  const auto params = tuned.params();
  auto* head = params[params.size() - 2];  // last Dense weight
  auto* bias = params[params.size() - 1];
  for (std::size_t i = 0; i < head->size(); ++i) {
    head->data()[i] += eps * static_cast<float>((i % 5) - 2);
  }
  for (std::size_t i = 0; i < bias->size(); ++i) {
    bias->data()[i] -= eps * static_cast<float>(i % 3);
  }
  return tuned;
}

void expect_same_params(nn::Sequential& a, nn::Sequential& b) {
  const auto pa = a.params();
  const auto pb = b.params();
  ASSERT_EQ(pa.size(), pb.size());
  for (std::size_t t = 0; t < pa.size(); ++t) {
    SCOPED_TRACE(t);
    ASSERT_EQ(pa[t]->size(), pb[t]->size());
    for (std::size_t i = 0; i < pa[t]->size(); ++i) {
      ASSERT_EQ(pa[t]->data()[i], pb[t]->data()[i]) << "element " << i;
    }
  }
}

TEST(DeltaCodec, EncodeIsSparseAtTensorGranularity) {
  nn::Sequential base = small_model(1);
  nn::Sequential tuned = perturb_head(base, 1e-3f);
  const nn::ModelDelta delta = nn::delta_encode(base, tuned);
  // Only the head Dense's weight + bias were touched.
  EXPECT_EQ(delta.entries.size(), 2u);
  EXPECT_EQ(delta.base_param_tensors, base.params().size());
  EXPECT_EQ(delta.base_fingerprint, nn::params_fingerprint(base));
}

TEST(DeltaCodec, ApplyEncodeIsAProjection) {
  // The serving-tier invariant: realizing a delta (base + dequant) and
  // re-encoding against the same base reproduces the identical delta and
  // identical float parameters — what a snapshot stores is exactly what
  // the live model serves.
  nn::Sequential base = small_model(2);
  nn::Sequential tuned = perturb_head(base, 3e-4f);
  const nn::ModelDelta delta = nn::delta_encode(base, tuned);

  nn::Sequential realized = base;
  nn::delta_apply(base, delta, realized);
  const nn::ModelDelta again = nn::delta_encode(base, realized);
  ASSERT_EQ(again.entries.size(), delta.entries.size());
  for (std::size_t e = 0; e < delta.entries.size(); ++e) {
    EXPECT_EQ(again.entries[e].param_index, delta.entries[e].param_index);
    EXPECT_EQ(again.entries[e].scale, delta.entries[e].scale);
    EXPECT_EQ(again.entries[e].q, delta.entries[e].q);
  }
  nn::Sequential realized2 = base;
  nn::delta_apply(base, again, realized2);
  expect_same_params(realized, realized2);
}

TEST(DeltaCodec, IdentityDeltaRestoresBase) {
  nn::Sequential base = small_model(3);
  nn::Sequential dirty = perturb_head(base, 1e-2f);
  // A default-constructed delta is the identity: it restores plain base
  // into any same-architecture model without a fingerprint check.
  nn::delta_apply(base, nn::ModelDelta{}, dirty);
  expect_same_params(dirty, base);
}

TEST(DeltaCodec, MismatchedBaseRejected) {
  nn::Sequential base = small_model(4);
  nn::Sequential other = small_model(5);  // same layout, different weights
  nn::Sequential tuned = perturb_head(base, 1e-3f);
  const nn::ModelDelta delta = nn::delta_encode(base, tuned);
  nn::Sequential out = base;
  EXPECT_THROW(nn::delta_apply(other, delta, out), std::runtime_error);
  EXPECT_NO_THROW(nn::delta_apply(base, delta, out));
}

TEST(DeltaCodec, StringRoundTripAndCorruptionRejected) {
  nn::Sequential base = small_model(6);
  nn::Sequential tuned = perturb_head(base, 2e-3f);
  const nn::ModelDelta delta = nn::delta_encode(base, tuned);
  const std::string blob = nn::delta_to_string(delta);

  const nn::ModelDelta loaded = nn::delta_from_string(blob);
  nn::Sequential a = base, b = base;
  nn::delta_apply(base, delta, a);
  nn::delta_apply(base, loaded, b);
  expect_same_params(a, b);

  std::string bad = blob;
  bad[0] = 'X';
  EXPECT_THROW(nn::delta_from_string(bad), std::runtime_error);
  EXPECT_THROW(nn::delta_from_string(blob.substr(0, blob.size() - 3)),
               std::runtime_error);
  EXPECT_THROW(nn::delta_from_string(blob + "zz"), std::runtime_error);
  // Corrupt element count of the first entry (after the 28-byte header and
  // the entry's u32 index + f32 scale): more int16s than the blob holds
  // must fail as a parse error, not as an allocation.
  for (std::uint64_t count : {delta.entries[0].q.size() + 1,
                              std::size_t{1} << 40, std::size_t{1} << 62}) {
    SCOPED_TRACE(count);
    bad = blob;
    for (int b = 0; b < 8; ++b) {
      bad[36 + b] = static_cast<char>(count >> (8 * b));
    }
    EXPECT_THROW(nn::delta_from_string(bad), std::runtime_error);
  }

  // The identity delta round-trips too (snapshot v3 stores one per
  // never-tuned session).
  const nn::ModelDelta identity =
      nn::delta_from_string(nn::delta_to_string(nn::ModelDelta{}));
  EXPECT_TRUE(identity.empty());
  EXPECT_EQ(identity.base_param_tensors, 0u);
}

TEST(DeltaCodec, BytesPinned) {
  // Golden bytes of the delta format (per-user state on disk and inside
  // every personalized snapshot).
  nn::ModelDelta delta;
  delta.base_fingerprint = 0x0123456789ABCDEFULL;
  delta.base_param_tensors = 6;
  delta.entries.push_back({1, 0x1p-10f, {-32767, -256, -1, 0, 1, 255, 32767}});
  delta.entries.push_back({4, 0.5f, {7, -7, 1024}});
  const std::string blob = nn::delta_to_string(delta);
  std::uint64_t h = 1469598103934665603ULL;  // FNV-1a
  for (unsigned char c : blob) h = (h ^ c) * 1099511628211ULL;
  EXPECT_EQ(blob.size(), 80u);
  EXPECT_EQ(h, 0x2003f8a12bdfc82aULL);
  EXPECT_EQ(nn::delta_to_string(nn::delta_from_string(blob)), blob);
}

TEST(DeltaCodec, FileRoundTrip) {
  nn::Sequential base = small_model(7);
  nn::Sequential tuned = perturb_head(base, 1e-3f);
  const nn::ModelDelta delta = nn::delta_encode(base, tuned);
  const std::string path = testing::TempDir() + "/user_delta.bin";
  nn::save_delta_atomic(delta, path);
  const nn::ModelDelta loaded = nn::load_delta(path);
  nn::Sequential a = base, b = base;
  nn::delta_apply(base, delta, a);
  nn::delta_apply(base, loaded, b);
  expect_same_params(a, b);
  std::remove(path.c_str());
  EXPECT_THROW(nn::load_delta(path), std::runtime_error);
}

TEST(DeltaCodec, TailRangeLeavesPrefixAndRejectsEntriesBelowIt) {
  nn::Sequential base = small_model(8);
  nn::Sequential tuned = perturb_head(base, 1e-3f);
  const std::uint64_t fingerprint = nn::params_fingerprint(base);
  const std::size_t first = base.params().size() - 2;  // the head Dense
  // Over a tail that holds every change, the range encode is the full one.
  const nn::ModelDelta delta =
      nn::delta_encode_with_fingerprint(base, fingerprint, tuned, first);
  EXPECT_EQ(nn::delta_to_string(delta),
            nn::delta_to_string(nn::delta_encode(base, tuned)));

  // The range apply writes the tail and leaves every prefix tensor as it
  // found it, even where the target's prefix is not base.
  nn::Sequential full = base;
  nn::delta_apply(base, delta, full);
  nn::Sequential target = base;
  const auto tp = target.params();
  for (std::size_t t = 0; t < first; ++t) tp[t]->fill(0.25f);
  nn::delta_apply_with_fingerprint(base, fingerprint, delta, target, first);
  const auto fp = full.params();
  for (std::size_t t = 0; t < tp.size(); ++t) {
    SCOPED_TRACE(t);
    for (std::size_t i = 0; i < tp[t]->size(); ++i) {
      ASSERT_EQ(tp[t]->data()[i], t < first ? 0.25f : fp[t]->data()[i]);
    }
  }

  // A delta with an entry below the range is refused before anything is
  // written.
  nn::Sequential wide = perturb_head(base, 1e-3f);
  wide.params()[0]->data()[0] += 1.0f;
  const nn::ModelDelta below = nn::delta_encode(base, wide);
  ASSERT_EQ(below.entries.front().param_index, 0u);
  nn::Sequential untouched = base;
  EXPECT_THROW(nn::delta_apply_with_fingerprint(base, fingerprint, below,
                                                untouched, first),
               std::runtime_error);
  EXPECT_THROW(nn::delta_check(base, fingerprint, below, first),
               std::runtime_error);
  expect_same_params(untouched, base);
  EXPECT_NO_THROW(nn::delta_check(base, fingerprint, below, 0));
  EXPECT_NO_THROW(nn::delta_check(base, fingerprint, nn::ModelDelta{}, first));
}

TEST(TailSplit, FirstTrainableLayerIndex) {
  // small_model: Conv ReLU Flatten Dense ReLU Dense Softmax. The tail
  // holds the trailing `tail_layers` parameterized layers and every
  // parameterless layer after the last frozen one; a huge tail is the
  // whole net.
  nn::Sequential m = small_model(9);
  EXPECT_EQ(tail_split(m, 1), 4u);  // ReLU, Dense, Softmax train
  EXPECT_EQ(tail_split(m, 2), 1u);  // everything after the Conv
  EXPECT_EQ(tail_split(m, 3), 0u);  // the whole net
  EXPECT_EQ(tail_split(m, 100), 0u);
  EXPECT_THROW(tail_split(m, 0), std::invalid_argument);
}

// --- Tail-only fit oracle --------------------------------------------

// The fit-seed salts of personalize.cpp: the oracle below must draw the
// same dropout and shuffle streams as the fit it checks.
constexpr std::uint64_t kFitSeedSalt = 0x9E12A1F17EULL;
constexpr std::uint64_t kShuffleSalt = 0xD1CEULL;

using Models = std::array<nn::Sequential, data::kNumSensors>;

/// One tail-only fine-tune of `models` (the session's current weights)
/// on the windows and labels of `slots`, computed without the
/// Personalizer: each
/// sample runs the *full* net forward in train mode and backward, in the
/// trainer's shuffled order. At each batch boundary the tail's
/// accumulated gradients move into a clone of the tail that SgdMomentum
/// steps, and the stepped tail is copied back; the prefix is never
/// updated. Returns the realized deltas and leaves `models` on them.
std::array<nn::ModelDelta, data::kNumSensors> oracle_tail_fit(
    Models& base, Models& models,
    const std::vector<const data::SlotSample*>& slots,
    const PersonalizeConfig& cfg, std::uint64_t seed_offset,
    std::uint64_t fine_tunes) {
  std::array<nn::ModelDelta, data::kNumSensors> deltas;
  const std::uint64_t fit_seed =
      fleet::shard_seed(seed_offset ^ kFitSeedSalt, fine_tunes);
  const std::size_t batch = static_cast<std::size_t>(cfg.batch_size);
  for (std::size_t s = 0; s < data::kNumSensors; ++s) {
    nn::Sequential& full = models[s];
    const std::size_t split = tail_split(full, cfg.tune_tail_layers);
    const std::uint64_t sensor_seed = fleet::shard_seed(fit_seed, s);
    nn::Sequential tail;
    for (std::size_t l = split; l < full.layer_count(); ++l) {
      if (auto* dropout = dynamic_cast<nn::Dropout*>(&full.layer(l))) {
        dropout->reseed(sensor_seed + l);
      }
      tail.add(full.layer(l).clone());
    }
    nn::SgdMomentum opt(cfg.learning_rate, /*momentum=*/0.9,
                        /*weight_decay=*/0.0);
    opt.bind(tail);
    const std::vector<nn::Tensor*> full_params = full.params();
    const std::vector<nn::Tensor*> full_grads = full.grads();
    const std::vector<nn::Tensor*> tail_params = tail.params();
    const std::vector<nn::Tensor*> tail_grads = tail.grads();
    const std::size_t first_tail = full_params.size() - tail_params.size();
    auto step = [&] {
      for (std::size_t k = 0; k < tail_grads.size(); ++k) {
        *tail_grads[k] = *full_grads[first_tail + k];
      }
      opt.step();
      for (std::size_t k = 0; k < tail_params.size(); ++k) {
        *full_params[first_tail + k] = *tail_params[k];
      }
      full.zero_grads();
    };
    full.zero_grads();
    util::Rng rng(sensor_seed ^ kShuffleSalt);
    std::vector<std::size_t> order(slots.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    for (int epoch = 0; epoch < cfg.epochs; ++epoch) {
      rng.shuffle(order);
      std::size_t in_batch = 0;
      for (std::size_t idx : order) {
        const nn::Tensor logits =
            full.forward(slots[idx]->window(s), /*train=*/true);
        nn::Tensor grad =
            nn::softmax_cross_entropy(logits, slots[idx]->label).grad;
        grad.scale(1.0f / static_cast<float>(batch));
        full.backward(grad);
        if (++in_batch == batch) {
          step();
          in_batch = 0;
        }
      }
      if (in_batch > 0) step();
    }
    deltas[s] = nn::delta_encode(base[s], full);
    nn::delta_apply(base[s], deltas[s], full);
  }
  return deltas;
}

// --- Shared trained fixture for calibration + serving tests ----------

core::PipelineConfig micro_pipeline() {
  core::PipelineConfig cfg;
  cfg.train_per_class = 12;
  cfg.calib_per_class = 6;
  cfg.test_per_class = 6;
  // Nets near chance make "fine-tuning changes a served output" a property
  // of the draw: after two epochs, seeds 4242-4251 changed 0-5 of
  // FineTuneRunsRespectsBudgetAndShrinksStorage's six sessions; after
  // eight, every seed changes 4-6.
  cfg.train.epochs = 8;
  cfg.use_cache = false;
  cfg.seed = 4242;
  return cfg;
}

/// The sessions ServeLoop admits, derived exactly as make_population
/// does.
std::vector<fleet::FleetJob> population(const ServeConfig& cfg) {
  fleet::PopulationConfig pop;
  pop.users = cfg.users;
  pop.root_seed = cfg.population_seed;
  pop.severity = cfg.severity;
  pop.policy = cfg.policy;
  pop.rr_cycle = cfg.rr_cycle;
  pop.set = cfg.set;
  return fleet::make_population(pop);
}

class PersonalizeTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    sim::ExperimentConfig cfg;
    cfg.pipeline = micro_pipeline();
    cfg.stream_slots = 60;
    experiment_ = new sim::Experiment(cfg);
  }
  static void TearDownTestSuite() {
    delete experiment_;
    experiment_ = nullptr;
  }

  static ServeConfig tuned_config() {
    ServeConfig cfg;
    cfg.users = 6;
    cfg.arrival_rate_hz = 2.0;
    cfg.shards = 3;
    cfg.policy = sim::PolicyKind::Origin;
    cfg.personalize.enabled = true;
    cfg.personalize.cadence_slots = 20;
    cfg.personalize.min_samples = 4;
    cfg.personalize.batch_size = 4;
    // Aggressive rate so adaptation visibly changes served outputs within
    // the short 60-slot test streams.
    cfg.personalize.learning_rate = 5e-2;
    return cfg;
  }

  static void expect_same_completed(const std::vector<CompletedSession>& a,
                                    const std::vector<CompletedSession>& b) {
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      SCOPED_TRACE(i);
      EXPECT_EQ(a[i].id, b[i].id);
      EXPECT_EQ(a[i].completed_tick, b[i].completed_tick);
      EXPECT_EQ(a[i].accuracy, b[i].accuracy);
      EXPECT_EQ(a[i].outputs_fnv1a, b[i].outputs_fnv1a);
      EXPECT_EQ(a[i].outputs, b[i].outputs);
      EXPECT_EQ(a[i].fine_tunes, b[i].fine_tunes);
      EXPECT_EQ(a[i].fine_tune_steps, b[i].fine_tune_steps);
      EXPECT_EQ(a[i].delta_bytes, b[i].delta_bytes);
      EXPECT_EQ(a[i].personalize_j, b[i].personalize_j);
    }
  }

  /// Saves a fine-tuned loop mid-flight, corrupts the first non-empty
  /// delta blob in the file with `tamper` (given the blob's offset), and
  /// checks that restore refuses it naming the session and `reason`, and
  /// that the refused restore adopted nothing: the same loop then restores
  /// the intact file and finishes exactly like an uninterrupted run.
  static void expect_tampered_delta_refused(
      const std::string& name, const std::string& reason,
      void (*tamper)(std::string& bytes, std::size_t blob)) {
    const sim::Experiment& experiment = *experiment_;
    const ServeConfig cfg = tuned_config();
    ServeLoop uninterrupted(experiment, cfg);
    uninterrupted.drain(/*chunk=*/5);

    ServeLoop first(experiment, cfg);
    first.tick(30);  // past the first fine-tune cadence (20 slots)
    const std::string path = testing::TempDir() + "/" + name + ".snap";
    first.save(path);
    std::string bytes = util::read_file(path);
    // Active sessions are saved in the order session_summaries() lists
    // them, so the first session with a fine-tune owns the first delta blob
    // that has entries.
    std::uint64_t tuned_id = 0;
    bool found = false;
    for (const SessionSummary& summary : first.session_summaries()) {
      if (summary.fine_tunes > 0) {
        tuned_id = summary.id;
        found = true;
        break;
      }
    }
    ASSERT_TRUE(found);
    // Blob layout: magic, u32 version, u64 fingerprint, u32 tensor count,
    // u32 entry count (at +24), then the entries.
    std::size_t blob = bytes.find("ORGNDELT");
    while (blob != std::string::npos && bytes[blob + 24] == 0) {
      blob = bytes.find("ORGNDELT", blob + 1);
    }
    ASSERT_NE(blob, std::string::npos);
    tamper(bytes, blob);
    const std::string bad_path = testing::TempDir() + "/" + name + "_bad.snap";
    util::write_file_atomic(bad_path, bytes);

    ServeLoop second(experiment, cfg);
    try {
      second.restore(bad_path);
      ADD_FAILURE() << "restored a snapshot with a tampered delta";
    } catch (const std::runtime_error& err) {
      const std::string what = err.what();
      EXPECT_EQ(what.rfind("snapshot: session " + std::to_string(tuned_id) +
                               ": ",
                           0),
                0u)
          << what;
      EXPECT_NE(what.find(reason), std::string::npos) << what;
    }
    EXPECT_EQ(second.now(), 0u);
    second.restore(path);
    second.drain(/*chunk=*/5);
    expect_same_completed(second.completed_sessions(),
                          uninterrupted.completed_sessions());
    std::remove(path.c_str());
    std::remove(bad_path.c_str());
  }

  /// One buffered-sample record of a saved snapshot: where it starts,
  /// whose buffer it is in and at which index, and whether it carries an
  /// ambiguous activity. v8 layout from the start: u64 slot key, i32
  /// label (+8), i32 activity (+12), f64 t0_s (+16), blend_u (+24),
  /// cadence_g (+32), u8 ambiguity flag (+40), [i32 ambiguous activity
  /// (+41)], f64 ambiguity_mix.
  struct BufferedRecord {
    std::size_t at = 0;
    std::uint64_t session = 0;
    std::size_t index = 0;
    bool ambiguous = false;
    std::size_t size() const { return ambiguous ? 53 : 49; }
    std::size_t mix_at() const { return at + (ambiguous ? 45 : 41); }
  };

  /// Finds every buffered record in `bytes` by its slot key: a buffered
  /// slot's key appears nowhere else in a snapshot. Sorted by offset.
  static std::vector<BufferedRecord> buffered_records(
      const std::string& bytes, const ServeConfig& cfg) {
    std::vector<BufferedRecord> found;
    const auto jobs = population(cfg);
    for (std::uint64_t id = 0; id < jobs.size(); ++id) {
      data::StreamCursor cursor = experiment_->make_cursor(
          jobs[id].user, jobs[id].seed_offset, std::nullopt, 1);
      std::size_t index = 0;
      for (std::size_t i = 0; i < cursor.size(); ++i) {
        const std::uint64_t key = cursor.slot(i).recipe().key;
        std::string le(8, '\0');
        for (int b = 0; b < 8; ++b) le[b] = static_cast<char>(key >> (8 * b));
        const std::size_t at = bytes.find(le);
        if (at == std::string::npos) continue;
        found.push_back({at, id, index++, bytes.at(at + 40) != 0});
      }
    }
    std::sort(found.begin(), found.end(),
              [](const BufferedRecord& a, const BufferedRecord& b) {
                return a.at < b.at;
              });
    return found;
  }

  /// The single-session oracle for served session `id`: its own stepper
  /// and a Personalizer on private models, over its first `slots` slots
  /// (all of them by default).
  struct OracleRun {
    std::vector<int> outputs;
    PersonalizeState state;
    /// Whether the last slot run made a fit.
    bool last_slot_fitted = false;
  };
  static OracleRun run_oracle(
      const ServeConfig& cfg, std::uint64_t id,
      std::size_t slots = std::numeric_limits<std::size_t>::max()) {
    const sim::Experiment& e = *experiment_;
    const fleet::FleetJob job = population(cfg).at(id);
    auto policy = e.make_policy(cfg.policy, cfg.rr_cycle, cfg.set);
    data::StreamCursor cursor = e.make_cursor(job.user, job.seed_offset);
    auto models = e.system().bl2_copy();
    Personalizer personalizer(e, models, cfg.personalize);
    OracleRun run;
    sim::SlotStepper stepper(e.spec(), &models, &e.trace(), policy.get(),
                             &cursor, e.sim_config());
    for (std::size_t i = 0; i < slots && !stepper.done(); ++i) {
      personalizer.load(run.state, id, models);
      const auto outcome = stepper.step();
      run.last_slot_fitted =
          personalizer.after_step(run.state, job.seed_offset, outcome,
                                  cursor, models) > 0;
    }
    run.outputs = stepper.take_result().outputs;
    return run;
  }

  /// tuned_config with every session arriving at tick 0, so all of them
  /// reach each fine-tune cadence slot in the same tick.
  static ServeConfig same_tick_config() {
    ServeConfig cfg = tuned_config();
    cfg.arrival_rate_hz = 1e4;
    return cfg;
  }

  static sim::Experiment* experiment_;
};

sim::Experiment* PersonalizeTest::experiment_ = nullptr;

// --- Parallel pipeline calibration -----------------------------------

/// Each sensor's held-out test windows under the fixture's pipeline.
std::array<nn::Samples, data::kNumSensors> test_sets(
    const core::TrainedSystem& system) {
  std::array<nn::Samples, data::kNumSensors> sets;
  for (std::size_t s = 0; s < data::kNumSensors; ++s) {
    sets[s] = core::make_test_set(micro_pipeline(), system.spec,
                                  static_cast<data::SensorLocation>(s));
  }
  return sets;
}

TEST_F(PersonalizeTest, PerClassAccuracyBatchMatchesOracle) {
  core::TrainedSystem system = experiment_->system();
  const int num_classes = system.spec.num_classes();
  const auto tests = test_sets(system);
  for (std::size_t s = 0; s < data::kNumSensors; ++s) {
    SCOPED_TRACE(s);
    const auto oracle = test_support::per_class_accuracy_oracle(
        system.sensors[s].bl2, tests[s], num_classes);
    const auto batch = core::per_class_accuracy(
        system.sensors[s].bl2, tests[s], num_classes);
    ASSERT_EQ(batch.size(), oracle.size());
    for (std::size_t c = 0; c < oracle.size(); ++c) {
      EXPECT_EQ(batch[c], oracle[c]) << "class " << c;
    }
  }
}

TEST_F(PersonalizeTest, CalibrateSensorRowsMatchCalibrateOracle) {
  core::TrainedSystem system = experiment_->system();
  const int num_classes = system.spec.num_classes();
  const auto tests = test_sets(system);
  const auto oracle = test_support::calibrate_oracle(
      {&system.sensors[0].bl2, &system.sensors[1].bl2, &system.sensors[2].bl2},
      {&tests[0], &tests[1], &tests[2]}, num_classes);
  std::array<std::vector<double>, data::kNumSensors> rows;
  for (std::size_t s = 0; s < data::kNumSensors; ++s) {
    // The pass that fills the accuracy as well yields the same row.
    std::vector<double> accuracy;
    rows[s] = core::ConfidenceMatrix::calibrate_sensor(
        system.sensors[s].bl2, tests[s], num_classes, &accuracy);
    EXPECT_EQ(accuracy, test_support::per_class_accuracy_oracle(
                            system.sensors[s].bl2, tests[s], num_classes));
  }
  const auto assembled = core::ConfidenceMatrix::from_rows(rows, num_classes);
  for (int s = 0; s < data::kNumSensors; ++s) {
    for (int c = 0; c < num_classes; ++c) {
      EXPECT_EQ(
          assembled.weight(static_cast<data::SensorLocation>(s), c),
          oracle.weight(static_cast<data::SensorLocation>(s), c))
          << "sensor " << s << " class " << c;
    }
  }
}

TEST_F(PersonalizeTest, CalibrateSystemBitIdenticalAcrossThreadCounts) {
  core::PipelineConfig cfg = micro_pipeline();
  auto calibrated_at = [&](int threads) {
    core::TrainedSystem system = experiment_->system();
    cfg.train_threads = threads;
    core::calibrate_system(system, cfg);
    return system;
  };
  const core::TrainedSystem serial = calibrated_at(1);
  for (int threads : {2, 8}) {
    SCOPED_TRACE(threads);
    test_support::expect_same_calibration(calibrated_at(threads), serial);
  }
}

TEST_F(PersonalizeTest, ColdThenWarmCacheCalibrationMatchesCalibrateSystem) {
  // $ORIGIN_CACHE_DIR when set (ctest's personalize_cold_cache_calibration
  // points it at a directory its fixture has just emptied), else a
  // private scratch directory.
  const char* env = std::getenv("ORIGIN_CACHE_DIR");
  const bool private_dir = env == nullptr || *env == '\0';
  core::PipelineConfig cfg = micro_pipeline();
  cfg.use_cache = true;
  cfg.cache_dir = private_dir
                      ? (std::filesystem::temp_directory_path() /
                         ("origin_personalize_cache_" +
                          std::to_string(::getpid())))
                            .string()
                      : std::string(env);
  if (private_dir) std::filesystem::remove_all(cfg.cache_dir);
  const std::string path = core::calibration_cache_path(cfg);
  ASSERT_FALSE(std::filesystem::exists(path)) << "cache not cold: " << path;

  const core::TrainedSystem cold = core::build_system(cfg);
  ASSERT_TRUE(std::filesystem::exists(path)) << "cold run cached nothing";
  const std::string written = util::read_file(path);

  // The warm run must take the tables from the file, not recompute them.
  std::vector<std::string> lines;
  const util::LogLevel level = util::log_level();
  util::set_log_level(util::LogLevel::Info);
  const util::LogSink prev = util::set_log_sink(
      [&](util::LogLevel, const std::string& line) { lines.push_back(line); });
  const core::TrainedSystem warm = core::build_system(cfg);
  util::set_log_sink(prev);
  util::set_log_level(level);
  EXPECT_NE(std::find(lines.begin(), lines.end(),
                      "pipeline: loaded cached calibration"),
            lines.end());
  EXPECT_EQ(util::read_file(path), written);

  for (int threads : {1, 2, 8}) {
    SCOPED_TRACE(threads);
    core::TrainedSystem fresh = experiment_->system();
    cfg.train_threads = threads;
    core::calibrate_system(fresh, cfg);
    test_support::expect_same_calibration(cold, fresh);
    test_support::expect_same_calibration(warm, fresh);
  }
  if (private_dir) std::filesystem::remove_all(cfg.cache_dir);
}

// --- Served fine-tuning ----------------------------------------------

TEST_F(PersonalizeTest, FineTuneRunsRespectsBudgetAndShrinksStorage) {
  ServeConfig cfg = tuned_config();
  ServeLoop loop(*experiment_, cfg);
  loop.drain(/*chunk=*/5);
  const auto log = loop.completed_sessions();
  ASSERT_EQ(log.size(), cfg.users);

  const std::uint64_t full_bytes =
      3 * nn::model_to_string(experiment_->system().bl2_copy()[0]).size();
  std::uint64_t total_tunes = 0;
  for (const auto& c : log) {
    SCOPED_TRACE(c.id);
    total_tunes += c.fine_tunes;
    EXPECT_LE(c.fine_tune_steps,
              static_cast<std::uint64_t>(cfg.personalize.step_budget));
    if (c.fine_tunes > 0) {
      EXPECT_GT(c.fine_tune_steps, 0u);
      EXPECT_GT(c.delta_bytes, 0u);
      EXPECT_GT(c.personalize_j, 0.0);
      // The per-user store is at least 10x smaller than three full
      // model files.
      EXPECT_LE(10 * c.delta_bytes, full_bytes);
    }
  }
  EXPECT_GT(total_tunes, 0u);

  // The deterministic counters account for every fine-tune in the log.
  const auto metrics = loop.metrics();
  const auto* tunes_def = metrics.find("serve.fine_tunes");
  ASSERT_NE(tunes_def, nullptr);
  EXPECT_EQ(metrics.counters[tunes_def->slot], total_tunes);

  // Fine-tuning must actually change served outputs for someone (the
  // point of the subsystem) while frozen serving stays frozen.
  ServeConfig frozen_cfg = tuned_config();
  frozen_cfg.personalize.enabled = false;
  ServeLoop frozen(*experiment_, frozen_cfg);
  frozen.drain(/*chunk=*/5);
  const auto frozen_log = frozen.completed_sessions();
  ASSERT_EQ(frozen_log.size(), log.size());
  bool any_differs = false;
  for (std::size_t i = 0; i < log.size(); ++i) {
    any_differs = any_differs ||
                  log[i].outputs_fnv1a != frozen_log[i].outputs_fnv1a;
  }
  EXPECT_TRUE(any_differs);
}

TEST_F(PersonalizeTest, FineTuneBitIdenticalAcrossThreadCounts) {
  ServeConfig cfg = tuned_config();
  ServeLoop reference(*experiment_, cfg);
  reference.drain(/*chunk=*/5);
  const auto ref_log = reference.completed_sessions();
  const auto ref_metrics = reference.metrics();

  for (unsigned threads : {2u, 8u}) {
    SCOPED_TRACE(threads);
    ServeConfig t_cfg = cfg;
    t_cfg.threads = threads;
    ServeLoop loop(*experiment_, t_cfg);
    loop.drain(/*chunk=*/5);
    expect_same_completed(loop.completed_sessions(), ref_log);
    EXPECT_TRUE(obs::MetricsSnapshot::deterministic_equal(loop.metrics(),
                                                          ref_metrics));
  }
}

TEST_F(PersonalizeTest, FineTuneBitIdenticalAcrossTickChunking) {
  // A shard task serves ahead through a tick() call and pauses only after
  // a tick that queues fits, so within one call the shards pause at
  // different virtual ticks. No served bit may depend on that: one tick
  // per call, 16-tick calls and one call over the whole run complete the
  // same sessions with the same deterministic metrics.
  ServeConfig cfg = tuned_config();
  cfg.threads = 2;
  cfg.personalize.cadence_slots = 7;
  const auto by_id = [](const ServeLoop& loop) {
    auto log = loop.completed_sessions();
    std::sort(log.begin(), log.end(),
              [](const CompletedSession& a, const CompletedSession& b) {
                return a.id < b.id;
              });
    return log;
  };
  ServeLoop reference(*experiment_, cfg);
  reference.drain(/*chunk=*/1);
  const auto ref_log = by_id(reference);
  const auto ref_metrics = reference.metrics();
  ASSERT_EQ(ref_log.size(), cfg.users);
  ASSERT_GT(ref_metrics.counter_value("serve.fine_tunes"), cfg.users);

  for (std::uint64_t chunk : {std::uint64_t{16}, reference.now()}) {
    SCOPED_TRACE(chunk);
    ServeLoop loop(*experiment_, cfg);
    loop.drain(chunk);
    expect_same_completed(by_id(loop), ref_log);
    EXPECT_TRUE(obs::MetricsSnapshot::deterministic_equal(loop.metrics(),
                                                          ref_metrics));
  }
}

TEST_F(PersonalizeTest, FineTuneMatchesSingleSessionOracle) {
  // The shard classifies personalized sessions in cross-session panels:
  // sessions still on the base weights share one panel, and a session
  // carrying a non-identity delta gets its own panel under its own
  // weights. Each completed session must equal stepping that session
  // alone — a single-session SlotStepper on a private copy of the
  // deployed nets, driven by its own Personalizer — in outputs, fine-tune
  // counts, delta bytes and joules. One shard and a short cadence make
  // all six sessions share one model scratch and fit often, so fits land
  // while another session's delta is loaded.
  ServeConfig cfg = tuned_config();
  cfg.shards = 1;
  cfg.personalize.cadence_slots = 5;
  ServeLoop loop(*experiment_, cfg);
  loop.drain(/*chunk=*/5);
  const auto log = loop.completed_sessions();
  ASSERT_EQ(log.size(), cfg.users);
  EXPECT_GT(loop.status().batch_panels, 0u);

  const auto jobs = population(cfg);
  const sim::Experiment& e = *experiment_;
  std::uint64_t total_tunes = 0;
  for (const CompletedSession& served : log) {
    SCOPED_TRACE(served.id);
    const fleet::FleetJob& job = jobs.at(served.id);
    auto policy = e.make_policy(cfg.policy, cfg.rr_cycle, cfg.set);
    data::StreamCursor cursor = e.make_cursor(job.user, job.seed_offset);
    auto models = e.system().bl2_copy();
    Personalizer personalizer(e, models, cfg.personalize);
    PersonalizeState state;
    sim::SlotStepper stepper(e.spec(), &models, &e.trace(), policy.get(),
                             &cursor, e.sim_config());
    while (!stepper.done()) {
      personalizer.load(state, served.id, models);
      const auto outcome = stepper.step();
      personalizer.after_step(state, job.seed_offset, outcome, cursor,
                              models);
    }
    const sim::SimResult oracle = stepper.take_result();
    EXPECT_EQ(served.outputs, oracle.outputs);
    EXPECT_EQ(served.accuracy, oracle.accuracy.overall());
    EXPECT_EQ(served.success_rate, oracle.completion.attempt_success_rate());
    EXPECT_EQ(served.fine_tunes, state.fine_tunes);
    EXPECT_EQ(served.fine_tune_steps, state.steps_used);
    EXPECT_EQ(served.delta_bytes, state.delta_bytes);
    EXPECT_EQ(served.personalize_j, state.energy_j);
    total_tunes += served.fine_tunes;
  }
  EXPECT_GT(total_tunes, 0u);  // the run must actually fine-tune
}

TEST_F(PersonalizeTest, FinalSlotFitIsBookedBeforeCompletion) {
  // A fit runs after its shard's tick, in the loop's fit batch. A session
  // whose final slot makes a fit due completes only once that fit is
  // booked, so its CompletedSession carries it: 60-slot streams with a
  // 20-slot cadence make slot 59 a fit slot. Its flight session_end
  // follows its shard's other events of that tick, identically at every
  // thread count.
  ServeConfig cfg = tuned_config();
  std::vector<obs::TraceEvent> flight_1thread;
  std::vector<OracleRun> oracles;
  std::size_t final_slot_fits = 0;
  for (std::uint64_t id = 0; id < cfg.users; ++id) {
    oracles.push_back(run_oracle(cfg, id));
    final_slot_fits += oracles.back().last_slot_fitted ? 1 : 0;
  }
  ASSERT_GT(final_slot_fits, 0u);
  for (unsigned threads : {1u, 2u, 8u}) {
    SCOPED_TRACE(threads);
    cfg.threads = threads;
    ServeLoop loop(*experiment_, cfg);
    loop.drain(/*chunk=*/5);
    const auto log = loop.completed_sessions();
    ASSERT_EQ(log.size(), cfg.users);
    std::uint64_t fine_tunes = 0;
    for (const CompletedSession& served : log) {
      SCOPED_TRACE(served.id);
      const OracleRun& oracle = oracles.at(served.id);
      EXPECT_EQ(served.outputs, oracle.outputs);
      EXPECT_EQ(served.fine_tunes, oracle.state.fine_tunes);
      EXPECT_EQ(served.fine_tune_steps, oracle.state.steps_used);
      EXPECT_EQ(served.delta_bytes, oracle.state.delta_bytes);
      EXPECT_EQ(served.personalize_j, oracle.state.energy_j);
      fine_tunes += served.fine_tunes;
    }
    EXPECT_EQ(loop.metrics().counter_value("serve.fine_tunes"), fine_tunes);
    if (threads == 1) flight_1thread = loop.flight_events();
    EXPECT_EQ(loop.flight_events(), flight_1thread);
  }
}

TEST_F(PersonalizeTest, SameTickFitsOnOneShardMatchOracle) {
  // One shard, every session arriving at tick 0: at slot 19 several
  // sessions of the same shard fit in the same tick, and their sensor
  // fits run as concurrent tasks. Each must still equal its
  // single-session oracle: the deltas (found in a snapshot taken right
  // after the fits) and every served output.
  ServeConfig cfg = same_tick_config();
  cfg.shards = 1;
  ASSERT_EQ(ServeLoop(*experiment_, cfg).arrivals().last_tick(), 0u);
  constexpr std::size_t kFitSlots = 20;  // one cadence
  std::vector<OracleRun> at_fit, full;
  for (std::uint64_t id = 0; id < cfg.users; ++id) {
    at_fit.push_back(run_oracle(cfg, id, kFitSlots));
    full.push_back(run_oracle(cfg, id));
  }
  for (unsigned threads : {1u, 2u, 8u}) {
    SCOPED_TRACE(threads);
    cfg.threads = threads;
    ServeLoop loop(*experiment_, cfg);
    loop.tick(kFitSlots);
    std::size_t fitted = 0;
    for (const SessionSummary& summary : loop.session_summaries()) {
      fitted += summary.fine_tunes == 1 ? 1 : 0;
    }
    ASSERT_GE(fitted, 2u);

    const std::string path = testing::TempDir() + "/same_tick_fits_" +
                             std::to_string(threads) + ".snap";
    loop.save(path);
    const std::string bytes = util::read_file(path);
    std::remove(path.c_str());
    for (std::uint64_t id = 0; id < cfg.users; ++id) {
      SCOPED_TRACE(id);
      const PersonalizeState& want = at_fit[id].state;
      if (want.fine_tunes == 0) continue;
      for (std::size_t s = 0; s < data::kNumSensors; ++s) {
        ASSERT_FALSE(want.delta[s].empty());
        EXPECT_NE(bytes.find(nn::delta_to_string(want.delta[s])),
                  std::string::npos)
            << "sensor " << s;
      }
    }

    loop.drain(/*chunk=*/5);
    const auto log = loop.completed_sessions();
    ASSERT_EQ(log.size(), cfg.users);
    for (const CompletedSession& served : log) {
      SCOPED_TRACE(served.id);
      EXPECT_EQ(served.outputs, full.at(served.id).outputs);
      EXPECT_EQ(served.fine_tunes, full.at(served.id).state.fine_tunes);
      EXPECT_EQ(served.delta_bytes, full.at(served.id).state.delta_bytes);
    }
  }
}

TEST_F(PersonalizeTest, SummariesShowFitsBookedInTheTick) {
  // The query surface reads what the end of a tick published: after the
  // tick whose slot 19 fitted, session_summaries() already carries the
  // fit, the fine-tune counter agrees, and the fit batch left exactly
  // one wall-clock serve.fit_phase_seconds observation, shown in /status.
  ServeConfig cfg = same_tick_config();
  cfg.threads = 2;
  ServeLoop loop(*experiment_, cfg);
  loop.tick(19);
  for (const SessionSummary& summary : loop.session_summaries()) {
    EXPECT_EQ(summary.fine_tunes, 0u) << summary.id;
  }
  EXPECT_EQ(loop.slo().fit_phases, 0u);

  loop.tick(1);  // virtual tick 19: every session's slot 19
  const auto summaries = loop.session_summaries();
  ASSERT_EQ(summaries.size(), cfg.users);
  std::uint64_t fine_tunes = 0;
  for (const SessionSummary& summary : summaries) {
    SCOPED_TRACE(summary.id);
    const OracleRun oracle = run_oracle(cfg, summary.id, 20);
    EXPECT_EQ(summary.fine_tunes, oracle.state.fine_tunes);
    EXPECT_EQ(summary.fine_tune_steps, oracle.state.steps_used);
    EXPECT_EQ(summary.delta_bytes, oracle.state.delta_bytes);
    EXPECT_EQ(summary.personalize_j, oracle.state.energy_j);
    fine_tunes += summary.fine_tunes;
  }
  ASSERT_GT(fine_tunes, 0u);
  const obs::MetricsSnapshot metrics = loop.metrics();
  EXPECT_EQ(metrics.counter_value("serve.fine_tunes"), fine_tunes);
  const obs::MetricDef* fit_phase = metrics.find("serve.fit_phase_seconds");
  ASSERT_NE(fit_phase, nullptr);
  EXPECT_FALSE(fit_phase->deterministic);
  EXPECT_EQ(metrics.histogram_value("serve.fit_phase_seconds").count, 1u);
  const ServeLoop::Slo slo = loop.slo();
  EXPECT_EQ(slo.fit_phases, 1u);
  EXPECT_GT(slo.fit_phase_p50_ms, 0.0);

  obs::RunManifest manifest("test_personalize");
  ServeEndpoint endpoint(loop, &manifest);
  HttpRequest request;
  request.method = "GET";
  request.path = "/status";
  request.target = "/status";
  const std::string body = endpoint.handle(request).body;
  EXPECT_NE(body.find("\"fit_phases\":1"), std::string::npos) << body;
  EXPECT_NE(body.find("\"fit_phase_p50_ms\""), std::string::npos) << body;
}

TEST_F(PersonalizeTest, TailSplitKeepsDropoutInTheTail) {
  // BL-2: Conv ReLU Pool Conv ReLU Pool Flatten Dense ReLU Dropout Dense.
  // With the default one-layer tail the prefix ends after Dense(->64);
  // ReLU and Dropout train with the head, in train mode.
  nn::Sequential m = experiment_->system().bl2_copy()[0];
  ASSERT_EQ(m.layer_count(), 11u);
  EXPECT_EQ(tail_split(m, 1), 8u);
  EXPECT_NE(dynamic_cast<nn::Dropout*>(&m.layer(9)), nullptr);
  EXPECT_EQ(tail_split(m, 2), 4u);
  EXPECT_EQ(tail_split(m, 3), 1u);
  EXPECT_EQ(tail_split(m, 4), 0u);
  for (std::size_t l = 0; l < tail_split(m, 1); ++l) {
    EXPECT_EQ(dynamic_cast<nn::Dropout*>(&m.layer(l)), nullptr) << l;
  }
}

TEST_F(PersonalizeTest, TailOnlyFitMatchesPerSampleOracle) {
  // run_fit (one batched inference panel of the frozen prefix, then a
  // batched Trainer fit of the tail on its outputs) must equal the
  // per-sample full-net oracle bit for bit: float Conv1D/Dense share one
  // GEMM between inference, train-mode and single-sample forwards, and
  // the batched backward matches sequential backward per element. Two
  // fits per case, so the second tail starts from a realized delta; the
  // whole-net case (four tail layers on BL-2) has an empty prefix. The
  // buffer is filled through buffer_step from a 4-slot cursor, so the fit
  // re-synthesizes windows whose slots the ring recycled long ago; the
  // oracle reads the same slots of a materialized make_stream, so it
  // shares no synthesis call with the fit.
  const core::TrainedSystem& system = experiment_->system();
  const std::vector<int> input_shape{experiment_->spec().channels,
                                     experiment_->spec().window_len};
  const nn::ComputeProfile& profile =
      experiment_->config().pipeline.profile;
  constexpr std::size_t kPerFit = 10;  // two full batches and a partial
  constexpr std::uint64_t kStreamOffset = 5;
  const data::UserProfile user = data::reference_user();
  const data::Stream stream = experiment_->make_stream(user, kStreamOffset);
  for (int tail_layers : {1, 2, 4}) {
    SCOPED_TRACE(tail_layers);
    PersonalizeConfig cfg;
    cfg.enabled = true;
    cfg.step_budget = 100;
    cfg.min_samples = 4;
    cfg.batch_size = 4;
    cfg.epochs = 2;
    cfg.learning_rate = 5e-2;
    cfg.tune_tail_layers = tail_layers;
    Models base = system.bl2_copy();
    Models models = system.bl2_copy();
    Models oracle = system.bl2_copy();
    Personalizer personalizer(*experiment_, models, cfg);
    PersonalizeState state;
    data::StreamCursor cursor = experiment_->make_cursor(
        user, kStreamOffset, std::nullopt, /*ring_capacity=*/4);
    constexpr std::uint64_t kSeedOffset = 77;
    for (std::size_t fit = 0; fit < 2; ++fit) {
      SCOPED_TRACE(fit);
      std::vector<const data::SlotSample*> slots;
      for (std::size_t i = fit * kPerFit; i < (fit + 1) * kPerFit; ++i) {
        const int label = cursor.slot(i).label;
        personalizer.buffer_step(state, {i, label, label}, cursor);
        slots.push_back(&stream.slots.at(i));
      }
      ASSERT_EQ(state.buffer.size(), kPerFit);
      const auto want = oracle_tail_fit(base, oracle, slots, cfg, kSeedOffset,
                                        state.fine_tunes);
      personalizer.load(state, /*id=*/0, models);
      EXPECT_EQ(personalizer.run_fit(state, kSeedOffset, models), 2u * 3u);
      for (std::size_t s = 0; s < data::kNumSensors; ++s) {
        SCOPED_TRACE(s);
        EXPECT_EQ(nn::delta_to_string(state.delta[s]),
                  nn::delta_to_string(want[s]));
        expect_same_params(models[s], oracle[s]);
      }
      EXPECT_TRUE(state.buffer.empty());
    }

    // The prefix never moved, and the tail did.
    for (std::size_t s = 0; s < data::kNumSensors; ++s) {
      const std::size_t split = tail_split(models[s], tail_layers);
      for (std::size_t l = 0; l < models[s].layer_count(); ++l) {
        const auto mp = models[s].layer(l).params();
        const auto bp = base[s].layer(l).params();
        for (std::size_t p = 0; p < mp.size(); ++p) {
          const bool same = std::equal(mp[p]->data(),
                                       mp[p]->data() + mp[p]->size(),
                                       bp[p]->data());
          EXPECT_EQ(same, l < split) << "sensor " << s << " layer " << l;
        }
      }
    }

    // Price: n x (prefix inference + epochs x 3 x tail inference) per
    // sensor, with no prefix term when the whole net trains.
    double want_j = 0.0;
    for (std::size_t s = 0; s < data::kNumSensors; ++s) {
      const std::size_t split = tail_split(base[s], tail_layers);
      nn::Sequential prefix, tail;
      for (std::size_t l = 0; l < base[s].layer_count(); ++l) {
        (l < split ? prefix : tail).add(base[s].layer(l).clone());
      }
      const double prefix_j =
          split == 0
              ? 0.0
              : nn::estimate_cost(prefix, input_shape, profile).energy_j;
      const double tail_j =
          nn::estimate_cost(tail, base[s].shape_trace(input_shape)[split],
                            profile)
              .energy_j;
      want_j += 2.0 * kPerFit * (prefix_j + cfg.epochs * 3.0 * tail_j);
    }
    EXPECT_DOUBLE_EQ(state.energy_j, want_j);
  }
}

TEST_F(PersonalizeTest, BufferStopsOnceBudgetSpent) {
  // Once the remaining step budget cannot fund a fit of min_samples
  // samples, buffer_step buffers nothing (fit_due would refuse every
  // later fit anyway). Each served session must equal a single-session
  // loop that keeps buffering to the end, and the Personalizer's own
  // loop must hold an empty buffer from the moment the budget is spent.
  ServeConfig cfg = tuned_config();
  cfg.personalize.cadence_slots = 5;
  cfg.personalize.step_budget = 6;
  ServeLoop loop(*experiment_, cfg);
  loop.drain(/*chunk=*/5);
  const auto log = loop.completed_sessions();
  ASSERT_EQ(log.size(), cfg.users);

  const auto jobs = population(cfg);
  const sim::Experiment& e = *experiment_;
  const PersonalizeConfig& pc = cfg.personalize;
  std::size_t spent_slots = 0;
  std::size_t dropped_samples = 0;
  for (const CompletedSession& served : log) {
    SCOPED_TRACE(served.id);
    const fleet::FleetJob& job = jobs.at(served.id);
    auto run = [&](bool keep_buffering) {
      auto policy = e.make_policy(cfg.policy, cfg.rr_cycle, cfg.set);
      data::StreamCursor cursor = e.make_cursor(job.user, job.seed_offset);
      auto models = e.system().bl2_copy();
      Personalizer personalizer(e, models, pc);
      PersonalizeState state;
      state.context = cursor.context();
      sim::SlotStepper stepper(e.spec(), &models, &e.trace(), policy.get(),
                               &cursor, e.sim_config());
      while (!stepper.done()) {
        personalizer.load(state, served.id, models);
        const auto outcome = stepper.step();
        if (!keep_buffering) {
          personalizer.after_step(state, job.seed_offset, outcome, cursor,
                                  models);
          if (state.steps_used >= static_cast<std::uint64_t>(pc.step_budget)) {
            EXPECT_TRUE(state.buffer.empty()) << "slot " << outcome.slot;
            ++spent_slots;
          }
          continue;
        }
        if (outcome.predicted >= 0 && outcome.predicted == outcome.label) {
          const data::SlotSample& slot = cursor.slot(outcome.slot);
          state.buffer.push_back({slot.label, slot.recipe()});
          while (state.buffer.size() >
                 static_cast<std::size_t>(pc.max_samples)) {
            state.buffer.pop_front();
          }
        }
        if (personalizer.fit_due(state, outcome)) {
          personalizer.run_fit(state, job.seed_offset, models);
        }
      }
      return std::make_pair(stepper.take_result(), std::move(state));
    };
    const auto [result, state] = run(/*keep_buffering=*/false);
    const auto [kept_result, kept_state] = run(/*keep_buffering=*/true);
    EXPECT_EQ(served.outputs, result.outputs);
    EXPECT_EQ(result.outputs, kept_result.outputs);
    EXPECT_EQ(served.fine_tunes, state.fine_tunes);
    EXPECT_EQ(state.fine_tunes, kept_state.fine_tunes);
    EXPECT_EQ(state.steps_used, kept_state.steps_used);
    EXPECT_EQ(state.delta_bytes, kept_state.delta_bytes);
    EXPECT_EQ(state.energy_j, kept_state.energy_j);
    for (std::size_t s = 0; s < data::kNumSensors; ++s) {
      EXPECT_EQ(nn::delta_to_string(state.delta[s]),
                nn::delta_to_string(kept_state.delta[s]));
    }
    dropped_samples += kept_state.buffer.size() - state.buffer.size();
  }
  // The budget must actually run out mid-stream, with samples the
  // keep-buffering loop stored for nothing.
  EXPECT_GT(spent_slots, 0u);
  EXPECT_GT(dropped_samples, 0u);
}

TEST_F(PersonalizeTest, BufferStepRefusesSourceThatCannotResynthesize) {
  // A materialized stream's slots carry no synthesis context, so their
  // recipes could never be turned back into windows: buffer_step must
  // throw rather than buffer a sample no fit can read.
  const data::Stream stream =
      experiment_->make_stream(data::reference_user(), /*seed_offset=*/3);
  data::StreamSlotSource source(stream);
  auto models = experiment_->system().bl2_copy();
  Personalizer personalizer(*experiment_, models, tuned_config().personalize);
  PersonalizeState state;
  const int label = stream.slots[0].label;
  EXPECT_THROW(personalizer.buffer_step(state, {0, label, label}, source),
               std::logic_error);
  EXPECT_TRUE(state.buffer.empty());

  // Nor may a state bound to one stream buffer another stream's slot.
  data::StreamCursor cursor =
      experiment_->make_cursor(data::reference_user(), /*seed_offset=*/3);
  state.context = cursor.context();
  data::StreamCursor other =
      experiment_->make_cursor(data::reference_user(), /*seed_offset=*/3);
  const int other_label = other.slot(0).label;
  EXPECT_THROW(personalizer.buffer_step(state, {0, other_label, other_label},
                                        other),
               std::logic_error);
  EXPECT_TRUE(state.buffer.empty());
}

TEST_F(PersonalizeTest, BufferedRecordOutOfRangeRefusedAtRestore) {
  // Restore checks every buffered record before adopting the session:
  // fields in range and finite, and the record equal to the slot the
  // session's own stream served. Each refusal names the session and the
  // sample, and leaves the loop as constructed.
  const ServeConfig cfg = tuned_config();
  ServeLoop first(*experiment_, cfg);
  first.tick(30);
  const std::string path = testing::TempDir() + "/buffered_range.snap";
  first.save(path);
  const std::string good = util::read_file(path);
  const auto found = buffered_records(good, cfg);
  ASSERT_FALSE(found.empty());
  const auto amb = std::find_if(
      found.begin(), found.end(),
      [](const BufferedRecord& r) { return r.ambiguous; });
  ASSERT_NE(amb, found.end());

  const auto i32 = [](std::int32_t v) {
    std::string out(4, '\0');
    for (int b = 0; b < 4; ++b) out[b] = static_cast<char>(v >> (8 * b));
    return out;
  };
  const auto f64 = [](double v) {
    std::string out(8, '\0');
    std::memcpy(out.data(), &v, 8);
    return out;
  };
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const BufferedRecord& plain = found.front();
  struct Case {
    const BufferedRecord* record;
    std::size_t at;
    std::string bytes;
    std::string reason;
  };
  const std::vector<Case> cases = {
      {&plain, plain.at + 12, i32(data::kNumActivityKinds),
       "activity out of range"},
      {&plain, plain.at + 12, i32(-1), "activity out of range"},
      {&*amb, amb->at + 41, i32(17), "ambiguous activity out of range"},
      {&plain, plain.at + 8, i32(experiment_->spec().num_classes()),
       "label out of range"},
      {&plain, plain.at + 8, i32(-1), "label out of range"},
      {&plain, plain.at + 16, f64(nan), "non-finite t0_s"},
      {&plain, plain.at + 24, f64(inf), "non-finite blend_u"},
      {&plain, plain.at + 32, f64(-inf), "non-finite cadence_g"},
      {&*amb, amb->mix_at(), f64(nan), "non-finite ambiguity_mix"},
      {&plain, plain.at + 16, f64(-0.5), "t0_s is not a served slot"},
      {&plain, plain.at + 16, f64(1e6), "t0_s is not a served slot"},
      {&plain, plain.at, i32(12345), "does not match the session's slot"},
  };
  const std::string bad_path = testing::TempDir() + "/buffered_range_bad.snap";
  ServeLoop second(*experiment_, cfg);
  for (const Case& c : cases) {
    SCOPED_TRACE(c.reason);
    std::string bad = good;
    bad.replace(c.at, c.bytes.size(), c.bytes);
    util::write_file_atomic(bad_path, bad);
    try {
      second.restore(bad_path);
      ADD_FAILURE() << "restored a corrupt buffered record";
    } catch (const std::runtime_error& err) {
      const std::string want =
          "snapshot: session " + std::to_string(c.record->session) +
          ": buffered sample " + std::to_string(c.record->index) + ": " +
          c.reason;
      EXPECT_EQ(std::string(err.what()).rfind(want, 0), 0u) << err.what();
    }
    EXPECT_EQ(second.now(), 0u);
  }
  EXPECT_NO_THROW(second.restore(path));
  std::remove(path.c_str());
  std::remove(bad_path.c_str());
}

TEST_F(PersonalizeTest, BufferedRecordByteFlipsRestoreIdenticalOrThrow) {
  // Byte-flip sweep over the buffered records of a real mid-flight
  // snapshot: every byte of every record, under three masks (low bit, top
  // bit, whole byte). Each flip must either be refused by restore or
  // restore a loop that finishes exactly like an uninterrupted run. A
  // flip the restore accepts can only be one that changes no value (a
  // presence flag read as true either way).
  const ServeConfig cfg = tuned_config();
  ServeLoop uninterrupted(*experiment_, cfg);
  uninterrupted.drain(/*chunk=*/5);
  const auto full_log = uninterrupted.completed_sessions();

  ServeLoop first(*experiment_, cfg);
  first.tick(30);  // buffers before and after the first cadence fit
  const std::string path = testing::TempDir() + "/buffered_flips.snap";
  first.save(path);
  const std::string good = util::read_file(path);
  const auto found = buffered_records(good, cfg);
  ASSERT_GE(found.size(), 8u);

  const std::string bad_path = testing::TempDir() + "/buffered_flip_bad.snap";
  std::size_t refused = 0, restored = 0;
  auto loop = std::make_unique<ServeLoop>(*experiment_, cfg);
  for (const BufferedRecord& record : found) {
    for (std::size_t at = record.at; at < record.at + record.size(); ++at) {
      for (unsigned mask : {0x01u, 0x80u, 0xFFu}) {
        SCOPED_TRACE(testing::Message() << "byte " << at << " mask " << mask);
        std::string bad = good;
        bad[at] = static_cast<char>(static_cast<unsigned char>(bad[at]) ^ mask);
        util::write_file_atomic(bad_path, bad);
        try {
          loop->restore(bad_path);
        } catch (const std::runtime_error&) {
          ++refused;
          ASSERT_EQ(loop->now(), 0u);
          continue;
        }
        ++restored;
        loop->drain(/*chunk=*/5);
        expect_same_completed(loop->completed_sessions(), full_log);
        loop = std::make_unique<ServeLoop>(*experiment_, cfg);
      }
    }
  }
  EXPECT_GT(refused, 0u);
  std::printf("[ flips    ] %zu records: %zu flips refused, %zu restored "
              "bit-identical\n",
              found.size(), refused, restored);
  std::remove(path.c_str());
  std::remove(bad_path.c_str());
}

TEST_F(PersonalizeTest, WholeNetFitSnapshotRefused) {
  // Version 5 snapshots carry deltas from whole-net fits; a loop that
  // fits only the tail must refuse them, as it refuses any other
  // version.
  ASSERT_EQ(kSnapshotVersion, 8u);
  ServeConfig cfg = tuned_config();
  ServeLoop first(*experiment_, cfg);
  first.tick(30);
  const std::string path = testing::TempDir() + "/personalize_v5.snap";
  first.save(path);
  std::string bytes = util::read_file(path);
  const std::uint32_t v5 = 5;
  for (int b = 0; b < 4; ++b) bytes[8 + b] = static_cast<char>(v5 >> (8 * b));
  util::write_file_atomic(path, bytes);
  ServeLoop second(*experiment_, cfg);
  try {
    second.restore(path);
    ADD_FAILURE() << "restored a version 5 snapshot";
  } catch (const std::runtime_error& err) {
    EXPECT_EQ(std::string(err.what()), "snapshot: unsupported version 5");
  }
  std::remove(path.c_str());
}

TEST_F(PersonalizeTest, FineTuneSplitRunBitIdenticalToUninterrupted) {
  ServeConfig cfg = tuned_config();
  ServeLoop uninterrupted(*experiment_, cfg);
  uninterrupted.drain(/*chunk=*/5);
  const auto full_log = uninterrupted.completed_sessions();
  const auto full_metrics = uninterrupted.metrics();

  // Split points both before and after the first fine-tune cadence fires
  // (20 slots), so the snapshot carries sample buffers alone and buffers
  // plus realized deltas respectively.
  for (std::uint64_t split : {13u, 30u}) {
    SCOPED_TRACE(split);
    const std::string path =
        testing::TempDir() + "/personalize_split_" + std::to_string(split) +
        ".snap";
    ServeLoop first(*experiment_, cfg);
    first.tick(split);
    ASSERT_FALSE(first.done());
    first.save(path);

    ServeConfig second_cfg = cfg;
    second_cfg.threads = 2;  // restore under a different thread count
    ServeLoop second(*experiment_, second_cfg);
    second.restore(path);
    second.drain(/*chunk=*/5);

    expect_same_completed(second.completed_sessions(), full_log);
    EXPECT_TRUE(obs::MetricsSnapshot::deterministic_equal(second.metrics(),
                                                          full_metrics));
    std::remove(path.c_str());
  }
}

TEST_F(PersonalizeTest, TamperedDeltaFingerprintRefusedAtRestore) {
  expect_tampered_delta_refused(
      "tampered_fingerprint", "different base model",
      [](std::string& bytes, std::size_t blob) {
        bytes[blob + 12] = static_cast<char>(bytes[blob + 12] ^ 0x01);
      });
}

TEST_F(PersonalizeTest, DeltaEntryInFrozenPrefixRefusedAtRestore) {
  // The first entry's u32 param_index sits at +28; tensor 0 is the first
  // conv's weight, deep in the frozen prefix.
  expect_tampered_delta_refused(
      "prefix_entry", "below the applied range",
      [](std::string& bytes, std::size_t blob) {
        for (int b = 0; b < 4; ++b) bytes[blob + 28 + b] = 0;
      });
}

TEST_F(PersonalizeTest, SnapshotFingerprintCoversPersonalizeConfig) {
  ServeConfig cfg = tuned_config();
  ServeLoop first(*experiment_, cfg);
  first.tick(4);
  const std::string path = testing::TempDir() + "/personalize_fp.snap";
  first.save(path);

  // Every PersonalizeConfig field refuses the restore and is named in the
  // error.
  using Mutation = void (*)(PersonalizeConfig&);
  const std::vector<std::pair<std::string, Mutation>> fields = {
      {"enabled", [](PersonalizeConfig& p) { p.enabled = false; }},
      {"step_budget", [](PersonalizeConfig& p) { p.step_budget += 1; }},
      {"cadence_slots", [](PersonalizeConfig& p) { p.cadence_slots += 1; }},
      {"min_samples", [](PersonalizeConfig& p) { p.min_samples += 1; }},
      {"max_samples", [](PersonalizeConfig& p) { p.max_samples += 1; }},
      {"batch_size", [](PersonalizeConfig& p) { p.batch_size += 1; }},
      {"learning_rate", [](PersonalizeConfig& p) { p.learning_rate *= 2; }},
      {"epochs", [](PersonalizeConfig& p) { p.epochs += 1; }},
      {"tune_tail_layers",
       [](PersonalizeConfig& p) { p.tune_tail_layers += 1; }},
  };
  for (const auto& [name, mutate] : fields) {
    SCOPED_TRACE(name);
    ServeConfig other = cfg;
    mutate(other.personalize);
    ServeLoop loop(*experiment_, other);
    try {
      loop.restore(path);
      ADD_FAILURE() << "restored under a different personalize." << name;
    } catch (const std::runtime_error& e) {
      EXPECT_EQ(std::string(e.what()),
                "snapshot config mismatch: personalize." + name);
    }
  }

  ServeLoop same(*experiment_, cfg);
  EXPECT_NO_THROW(same.restore(path));
  std::remove(path.c_str());
}

TEST_F(PersonalizeTest, PersonalizeConstraintsValidated) {
  ServeConfig cfg = tuned_config();
  cfg.bits = 8;
  EXPECT_THROW(ServeLoop(*experiment_, cfg), std::invalid_argument);

  cfg = tuned_config();
  cfg.personalize.step_budget = 0;
  EXPECT_THROW(ServeLoop(*experiment_, cfg), std::invalid_argument);
  cfg = tuned_config();
  cfg.personalize.cadence_slots = 0;
  EXPECT_THROW(ServeLoop(*experiment_, cfg), std::invalid_argument);
  cfg = tuned_config();
  cfg.personalize.min_samples = 0;
  EXPECT_THROW(ServeLoop(*experiment_, cfg), std::invalid_argument);
  cfg = tuned_config();
  cfg.personalize.max_samples = cfg.personalize.min_samples - 1;
  EXPECT_THROW(ServeLoop(*experiment_, cfg), std::invalid_argument);
  cfg = tuned_config();
  cfg.personalize.tune_tail_layers = 0;
  EXPECT_THROW(ServeLoop(*experiment_, cfg), std::invalid_argument);
}


TEST(PersonalizeGolden, FineTunedDeltasPinned) {
  // Golden FNV-1a of the three delta blobs after a fixed seeded
  // single-session serve with fine-tuning on, trained and served on the
  // reference backend. Any change to what a fine-tune computes (split
  // point, seeds, optimizer, realization) moves this hash.
  test_support::BackendScope scope("reference");
  sim::ExperimentConfig ecfg;
  ecfg.pipeline = micro_pipeline();
  ecfg.pipeline.train_per_class = 40;
  ecfg.pipeline.train.epochs = 6;
  ecfg.stream_slots = 150;
  const sim::Experiment e(ecfg);
  ServeConfig cfg;
  cfg.users = 1;
  cfg.policy = sim::PolicyKind::Origin;
  cfg.personalize.enabled = true;
  cfg.personalize.cadence_slots = 5;
  cfg.personalize.min_samples = 4;
  cfg.personalize.batch_size = 4;
  cfg.personalize.learning_rate = 5e-2;
  const fleet::FleetJob job = population(cfg).at(0);
  auto policy = e.make_policy(cfg.policy, cfg.rr_cycle, cfg.set);
  data::StreamCursor cursor = e.make_cursor(job.user, job.seed_offset);
  auto models = e.system().bl2_copy();
  Personalizer personalizer(e, models, cfg.personalize);
  PersonalizeState state;
  sim::SlotStepper stepper(e.spec(), &models, &e.trace(), policy.get(),
                           &cursor, e.sim_config());
  while (!stepper.done()) {
    const auto outcome = stepper.step();
    personalizer.after_step(state, job.seed_offset, outcome, cursor, models);
  }
  ASSERT_GT(state.fine_tunes, 0u);

  std::uint64_t h = 1469598103934665603ULL;
  std::size_t bytes = 0;
  for (const nn::ModelDelta& delta : state.delta) {
    const std::string blob = nn::delta_to_string(delta);
    bytes += blob.size();
    for (unsigned char c : blob) h = (h ^ c) * 1099511628211ULL;
  }
  EXPECT_EQ(state.fine_tunes, 13u);
  EXPECT_EQ(state.steps_used, 24u);
  EXPECT_EQ(bytes, 660u);
  EXPECT_EQ(h, 0x7c63c66bf301badcULL);
}

}  // namespace
}  // namespace origin::serve
