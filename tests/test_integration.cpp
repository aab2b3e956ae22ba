// End-to-end integration: a miniature pipeline (small nets, few samples,
// no disk cache) through training, pruning, calibration, and the full
// simulator with every policy. Assertions are deliberately loose — they
// check mechanics and qualitative ordering, not benchmark numbers.
#include <gtest/gtest.h>

#include "core/pipeline.hpp"
#include "nn/serialize.hpp"
#include "sim/experiment.hpp"

namespace origin {
namespace {

core::PipelineConfig tiny_pipeline() {
  core::PipelineConfig cfg;
  cfg.train_per_class = 40;
  cfg.calib_per_class = 15;
  cfg.test_per_class = 15;
  cfg.train.epochs = 6;
  cfg.train.early_stop_accuracy = 0.95;
  cfg.use_cache = false;
  cfg.seed = 777;
  return cfg;
}

class IntegrationTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    sim::ExperimentConfig cfg;
    cfg.pipeline = tiny_pipeline();
    cfg.stream_slots = 240;
    experiment_ = new sim::Experiment(cfg);
    stream_ = new data::Stream(
        experiment_->make_stream(data::reference_user()));
  }
  static void TearDownTestSuite() {
    delete stream_;
    delete experiment_;
    stream_ = nullptr;
    experiment_ = nullptr;
  }

  static sim::Experiment* experiment_;
  static data::Stream* stream_;
};

sim::Experiment* IntegrationTest::experiment_ = nullptr;
data::Stream* IntegrationTest::stream_ = nullptr;

TEST_F(IntegrationTest, PipelineProducesThreeModelSets) {
  const auto& sys = experiment_->system();
  for (const auto& sensor : sys.sensors) {
    EXPECT_GT(sensor.bl1.param_count(), sensor.bl2.param_count());
    EXPECT_GE(sensor.relaxed.param_count(), sensor.bl2.param_count());
    EXPECT_GT(sensor.bl1_cost.energy_j, sensor.bl2_cost.energy_j);
    EXPECT_GE(sensor.relaxed_cost.energy_j, sensor.bl2_cost.energy_j);
  }
}

TEST_F(IntegrationTest, PruningMeetsBudgets) {
  const auto& cfg = experiment_->config().pipeline;
  for (const auto& sensor : experiment_->system().sensors) {
    EXPECT_LE(sensor.bl2_cost.energy_j,
              cfg.bl2_budget_fraction * sensor.bl1_cost.energy_j * 1.001);
    EXPECT_LE(sensor.relaxed_cost.energy_j,
              cfg.relaxed_budget_fraction * sensor.bl1_cost.energy_j * 1.001);
  }
}

TEST_F(IntegrationTest, ModelsLearnSomething) {
  auto& sys = experiment_->system();
  // Even the tiny training run should clearly beat chance (1/6) on the
  // held-out test windows.
  for (int s = 0; s < data::kNumSensors; ++s) {
    const auto acc = core::per_class_accuracy(
        sys.sensors[static_cast<std::size_t>(s)].bl2,
        core::make_test_set(experiment_->config().pipeline, sys.spec,
                            static_cast<data::SensorLocation>(s)),
        sys.spec.num_classes());
    double mean = 0.0;
    for (double a : acc) mean += a;
    mean /= static_cast<double>(acc.size());
    EXPECT_GT(mean, 0.25) << "sensor " << s;  // chance is 1/6
  }
}

TEST_F(IntegrationTest, CalibrationArtifactsWellFormed) {
  const auto& sys = experiment_->system();
  EXPECT_EQ(sys.ranks.num_classes(), sys.spec.num_classes());
  EXPECT_EQ(sys.confidence.num_classes(), sys.spec.num_classes());
  for (int c = 0; c < sys.spec.num_classes(); ++c) {
    for (int r = 0; r < data::kNumSensors; ++r) {
      EXPECT_NO_THROW(sys.ranks.sensor_at(c, r));
    }
    for (int s = 0; s < data::kNumSensors; ++s) {
      EXPECT_GE(sys.confidence.weight(static_cast<data::SensorLocation>(s), c),
                0.0);
    }
  }
}

TEST_F(IntegrationTest, TrainedModelSerializationRoundtrip) {
  auto& sys = experiment_->system();
  const std::string blob = nn::model_to_string(sys.sensors[0].bl2);
  nn::Sequential loaded = nn::model_from_string(blob);
  const auto sample =
      core::make_test_set(experiment_->config().pipeline, sys.spec,
                          data::SensorLocation::Chest)[0];
  EXPECT_EQ(loaded.predict(sample.input), sys.sensors[0].bl2.predict(sample.input));
}

TEST_F(IntegrationTest, EveryPolicyRunsEndToEnd) {
  for (auto kind : {sim::PolicyKind::Naive, sim::PolicyKind::PlainRR,
                    sim::PolicyKind::AAS, sim::PolicyKind::AASR,
                    sim::PolicyKind::Origin}) {
    auto policy = experiment_->make_policy(kind, 12);
    const auto result = experiment_->run_policy(*policy, *stream_);
    EXPECT_EQ(result.outputs.size(), stream_->slots.size()) << policy->name();
    EXPECT_GT(result.accuracy.overall(), 0.0) << policy->name();
  }
}

TEST_F(IntegrationTest, BaselinesRunEndToEnd) {
  const auto bl1 = experiment_->run_fully_powered(core::BaselineKind::BL1, *stream_);
  const auto bl2 = experiment_->run_fully_powered(core::BaselineKind::BL2, *stream_);
  EXPECT_GT(bl1.accuracy.overall(), 0.2);
  EXPECT_GT(bl2.accuracy.overall(), 0.2);
}

TEST_F(IntegrationTest, SchedulingBeatsNaive) {
  auto naive = experiment_->make_policy(sim::PolicyKind::Naive, 3);
  auto origin = experiment_->make_policy(sim::PolicyKind::Origin, 12);
  const auto rn = experiment_->run_policy(*naive, *stream_);
  const auto ro = experiment_->run_policy(*origin, *stream_);
  EXPECT_GT(ro.accuracy.overall(), rn.accuracy.overall());
  EXPECT_GT(ro.completion.attempt_success_rate(),
            rn.completion.attempt_success_rate());
}

TEST_F(IntegrationTest, RelaxedModelSetRuns) {
  auto policy = experiment_->make_policy(sim::PolicyKind::Origin, 12,
                                         sim::ModelSet::Relaxed);
  const auto r =
      experiment_->run_policy(*policy, *stream_, sim::ModelSet::Relaxed);
  EXPECT_EQ(r.outputs.size(), stream_->slots.size());
}

TEST_F(IntegrationTest, AdaptiveConfidenceUpdatesDuringRun) {
  auto policy = experiment_->make_policy(sim::PolicyKind::Origin, 12);
  auto* origin = static_cast<core::OriginPolicy*>(policy.get());
  const core::ConfidenceMatrix before = origin->confidence();
  experiment_->run_policy(*policy, *stream_);
  EXPECT_GT(origin->confidence().distance(before), 0.0);
}

}  // namespace
}  // namespace origin
