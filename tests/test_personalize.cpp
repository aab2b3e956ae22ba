// Fleet-scale personalization contracts: the delta codec's projection
// property (apply ∘ encode is idempotent, so stored and live weights
// never diverge), parallel pipeline calibration bit-identical to the
// serial oracle at any thread count, and in-shard bounded fine-tuning
// equal to a single-session oracle and bit-identical across thread counts
// and a mid-flight snapshot/restore split, with the optimizer-step budget
// and the delta-vs-full-file size advantage pinned.
#include "serve/personalize.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <stdexcept>

#include "core/pipeline.hpp"
#include "fleet/fleet_runner.hpp"
#include "nn/activations.hpp"
#include "nn/conv1d.hpp"
#include "nn/dense.hpp"
#include "nn/delta.hpp"
#include "nn/pooling.hpp"
#include "nn/serialize.hpp"
#include "nn/softmax.hpp"
#include "serve/serve_loop.hpp"
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

  // The identity delta round-trips too (snapshot v3 stores one per
  // never-tuned session).
  const nn::ModelDelta identity =
      nn::delta_from_string(nn::delta_to_string(nn::ModelDelta{}));
  EXPECT_TRUE(identity.empty());
  EXPECT_EQ(identity.base_param_tensors, 0u);
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

TEST(TailTrainableMask, SelectsTrailingParameterizedLayers) {
  nn::Sequential m = small_model(8);
  const auto params = m.params();
  // tail=1: only the last Dense (weight + bias) adapts.
  const auto mask1 = tail_trainable_mask(m, 1);
  ASSERT_EQ(mask1.size(), params.size());
  for (std::size_t i = 0; i < mask1.size(); ++i) {
    EXPECT_EQ(mask1[i] != 0, i >= mask1.size() - 2) << "param " << i;
  }
  // A huge tail marks everything.
  const auto mask_all = tail_trainable_mask(m, 100);
  for (std::size_t i = 0; i < mask_all.size(); ++i) {
    EXPECT_NE(mask_all[i], 0u);
  }
}

// --- Shared trained fixture for calibration + serving tests ----------

core::PipelineConfig micro_pipeline() {
  core::PipelineConfig cfg;
  cfg.train_per_class = 12;
  cfg.calib_per_class = 6;
  cfg.test_per_class = 6;
  cfg.train.epochs = 2;
  cfg.use_cache = false;
  cfg.seed = 4242;
  return cfg;
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

  static sim::Experiment* experiment_;
};

sim::Experiment* PersonalizeTest::experiment_ = nullptr;

// --- Parallel pipeline calibration -----------------------------------

TEST_F(PersonalizeTest, PerClassAccuracyBatchMatchesOracle) {
  core::TrainedSystem system = experiment_->system();
  const int num_classes = system.spec.num_classes();
  for (std::size_t s = 0; s < data::kNumSensors; ++s) {
    SCOPED_TRACE(s);
    const auto oracle = core::per_class_accuracy(
        system.sensors[s].bl2, system.test_sets[s], num_classes);
    const auto batch = core::per_class_accuracy_batch(
        system.sensors[s].bl2, system.test_sets[s], num_classes);
    ASSERT_EQ(batch.size(), oracle.size());
    for (std::size_t c = 0; c < oracle.size(); ++c) {
      EXPECT_EQ(batch[c], oracle[c]) << "class " << c;
    }
  }
}

TEST_F(PersonalizeTest, CalibrateSensorRowsMatchCalibrateOracle) {
  core::TrainedSystem system = experiment_->system();
  const int num_classes = system.spec.num_classes();
  const auto oracle = core::ConfidenceMatrix::calibrate(
      {&system.sensors[0].bl2, &system.sensors[1].bl2, &system.sensors[2].bl2},
      {&system.test_sets[0], &system.test_sets[1], &system.test_sets[2]},
      num_classes);
  std::array<std::vector<double>, data::kNumSensors> rows;
  for (std::size_t s = 0; s < data::kNumSensors; ++s) {
    rows[s] = core::ConfidenceMatrix::calibrate_sensor(
        system.sensors[s].bl2, system.test_sets[s], num_classes);
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
  const int num_classes = serial.spec.num_classes();
  for (int threads : {2, 8}) {
    SCOPED_TRACE(threads);
    const core::TrainedSystem parallel = calibrated_at(threads);
    for (std::size_t s = 0; s < data::kNumSensors; ++s) {
      EXPECT_EQ(parallel.calib_accuracy[s], serial.calib_accuracy[s]);
      EXPECT_EQ(parallel.calib_accuracy_relaxed[s],
                serial.calib_accuracy_relaxed[s]);
    }
    for (int c = 0; c < num_classes; ++c) {
      for (int r = 0; r < data::kNumSensors; ++r) {
        EXPECT_EQ(parallel.ranks.sensor_at(c, r), serial.ranks.sensor_at(c, r));
        EXPECT_EQ(parallel.ranks_relaxed.sensor_at(c, r),
                  serial.ranks_relaxed.sensor_at(c, r));
      }
      for (int s = 0; s < data::kNumSensors; ++s) {
        const auto loc = static_cast<data::SensorLocation>(s);
        EXPECT_EQ(parallel.confidence.weight(loc, c),
                  serial.confidence.weight(loc, c));
        EXPECT_EQ(parallel.confidence_relaxed.weight(loc, c),
                  serial.confidence_relaxed.weight(loc, c));
      }
    }
  }
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

  // ServeLoop derives each session's user and stream exactly as
  // make_population does.
  fleet::PopulationConfig pop;
  pop.users = cfg.users;
  pop.root_seed = cfg.population_seed;
  pop.severity = cfg.severity;
  pop.policy = cfg.policy;
  pop.rr_cycle = cfg.rr_cycle;
  pop.set = cfg.set;
  const auto population = fleet::make_population(pop);

  const sim::Experiment& e = *experiment_;
  std::uint64_t total_tunes = 0;
  for (const CompletedSession& served : log) {
    SCOPED_TRACE(served.id);
    const fleet::FleetJob& job = population.at(served.id);
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

TEST_F(PersonalizeTest, SnapshotFingerprintCoversPersonalizeConfig) {
  ServeConfig cfg = tuned_config();
  ServeLoop first(*experiment_, cfg);
  first.tick(4);
  const std::string path = testing::TempDir() + "/personalize_fp.snap";
  first.save(path);

  ServeConfig off = cfg;
  off.personalize.enabled = false;
  ServeLoop disabled(*experiment_, off);
  EXPECT_THROW(disabled.restore(path), std::runtime_error);

  ServeConfig other = cfg;
  other.personalize.step_budget += 1;
  ServeLoop budget(*experiment_, other);
  EXPECT_THROW(budget.restore(path), std::runtime_error);

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

}  // namespace
}  // namespace origin::serve
