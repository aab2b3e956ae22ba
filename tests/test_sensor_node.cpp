#include "net/sensor_node.hpp"

#include <gtest/gtest.h>

#include "nn/activations.hpp"
#include "nn/dense.hpp"
#include "util/rng.hpp"

namespace origin::net {
namespace {

nn::Sequential tiny_model(std::uint64_t seed) {
  util::Rng rng(seed);
  nn::Sequential m;
  m.emplace<nn::Flatten>().emplace<nn::Dense>(8, 3, rng);
  return m;
}

class SensorNodeTest : public ::testing::Test {
 protected:
  SensorNodeTest()
      : trace_({1e-6, 1e-6, 1e-6, 1e-6}, 1.0),
        harvester_(&trace_, 1.0, 1.0, 0.0) {}

  SensorNode make_node(SensorNodeConfig cfg = {}) {
    return SensorNode(data::SensorLocation::Chest, tiny_model(1), {2, 4},
                      harvester_, cfg);
  }

  energy::PowerTrace trace_;
  energy::Harvester harvester_;
  nn::Tensor window_{std::vector<int>{2, 4},
                     std::vector<float>{1, 2, 3, 4, 5, 6, 7, 8}};
};

TEST_F(SensorNodeTest, CostIncludesRadio) {
  auto node = make_node();
  nn::ComputeProfile profile;
  const auto compute = nn::estimate_cost(node.model(), {2, 4}, profile);
  EXPECT_GT(node.inference_energy_j(), compute.energy_j);
}

TEST_F(SensorNodeTest, CapacitorScalesWithHeadroom) {
  SensorNodeConfig cfg;
  cfg.capacitor_headroom = 3.0;
  auto node = make_node(cfg);
  EXPECT_NEAR(node.capacity_j(), 3.0 * node.inference_energy_j(), 1e-15);
  cfg.capacitor_headroom = 0.5;
  EXPECT_THROW(make_node(cfg), std::invalid_argument);
}

TEST_F(SensorNodeTest, AccumulateHarvestsFromTrace) {
  SensorNodeConfig cfg;
  cfg.initial_charge = 0.0;
  cfg.leakage_w = 0.0;  // isolate the harvest path
  auto node = make_node(cfg);
  const double before = node.stored_j();
  node.accumulate(0.0, 2.0);
  EXPECT_NEAR(node.stored_j() - before, 2e-6, 1e-12);
  EXPECT_NEAR(node.counters().harvested_j, 2e-6, 1e-12);
  EXPECT_THROW(node.accumulate(2.0, 1.0), std::invalid_argument);
}

TEST_F(SensorNodeTest, WaitComputeSucceedsWhenCharged) {
  SensorNodeConfig cfg;
  cfg.initial_charge = 1.0;  // full
  auto node = make_node(cfg);
  ASSERT_TRUE(node.can_infer());
  const auto result = node.resolve(node.probe_wait_compute(window_));
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->valid());
  EXPECT_EQ(node.counters().completions, 1u);
  EXPECT_EQ(node.counters().attempts, 1u);
}

TEST_F(SensorNodeTest, WaitComputeSkipsWhenEmptyWithoutSpending) {
  SensorNodeConfig cfg;
  cfg.initial_charge = 0.05;
  auto node = make_node(cfg);
  const double before = node.stored_j();
  const auto result = node.resolve(node.probe_wait_compute(window_));
  EXPECT_FALSE(result.has_value());
  EXPECT_DOUBLE_EQ(node.stored_j(), before);  // wait-compute never wastes
  EXPECT_EQ(node.counters().skipped_no_energy, 1u);
}

TEST_F(SensorNodeTest, EagerAccumulatesProgressAcrossAttempts) {
  SensorNodeConfig cfg;
  cfg.capacitor_headroom = 2.0;
  cfg.initial_charge = 0.25;  // half an inference worth
  cfg.nvp.enabled = true;
  auto node = make_node(cfg);
  // First eager attempt: spends the charge, checkpoints, no result.
  auto r1 = node.resolve(node.probe_eager(window_));
  EXPECT_FALSE(r1.has_value());
  EXPECT_EQ(node.counters().died_midway, 1u);
  // Recharge enough to finish (progress persisted).
  while (node.stored_j() < 0.8 * node.inference_energy_j()) {
    node.accumulate(0.0, 4.0);
  }
  auto r2 = node.resolve(node.probe_eager(window_));
  ASSERT_TRUE(r2.has_value());
  EXPECT_EQ(node.counters().completions, 1u);
  EXPECT_GT(node.nvp().checkpoints(), 0u);
}

TEST_F(SensorNodeTest, EagerBelowStartThresholdSkips) {
  SensorNodeConfig cfg;
  cfg.initial_charge = 0.0;
  auto node = make_node(cfg);
  const auto result = node.resolve(node.probe_eager(window_, 0.1));
  EXPECT_FALSE(result.has_value());
  EXPECT_EQ(node.counters().skipped_no_energy, 1u);
}

TEST_F(SensorNodeTest, VolatileEagerLosesProgress) {
  SensorNodeConfig cfg;
  cfg.capacitor_headroom = 2.0;
  cfg.initial_charge = 0.25;
  cfg.nvp.enabled = false;
  auto node = make_node(cfg);
  node.probe_eager(window_);
  EXPECT_FALSE(node.nvp().task_active());  // work discarded
}

TEST_F(SensorNodeTest, DeadlineCompletesOnlyWithFullCharge) {
  SensorNodeConfig cfg;
  cfg.initial_charge = 1.0;
  auto node = make_node(cfg);
  EXPECT_TRUE(node.resolve(node.probe_deadline(window_)).has_value());

  SensorNodeConfig half;
  half.capacitor_headroom = 2.0;
  half.initial_charge = 0.25;
  auto starved = make_node(half);
  const double before = starved.stored_j();
  EXPECT_GT(before, 0.0);
  EXPECT_FALSE(starved.resolve(starved.probe_deadline(window_)).has_value());
  // Partial work burns the stored charge (deadline semantics).
  EXPECT_DOUBLE_EQ(starved.stored_j(), 0.0);
  EXPECT_EQ(starved.counters().died_midway, 1u);
}

TEST_F(SensorNodeTest, DeadlineCannotStartWhenNearlyEmpty) {
  SensorNodeConfig cfg;
  cfg.initial_charge = 0.001;
  auto node = make_node(cfg);
  const double before = node.stored_j();
  EXPECT_FALSE(node.resolve(node.probe_deadline(window_)).has_value());
  EXPECT_DOUBLE_EQ(node.stored_j(), before);  // never booted
  EXPECT_EQ(node.counters().skipped_no_energy, 1u);
}

TEST_F(SensorNodeTest, ClassifyIgnoresEnergy) {
  SensorNodeConfig cfg;
  cfg.initial_charge = 0.0;
  auto node = make_node(cfg);
  const auto c = node.classify(window_);
  EXPECT_TRUE(c.valid());
  EXPECT_EQ(node.counters().attempts, 0u);  // bench supply, not counted
}

TEST_F(SensorNodeTest, ConsumedTracksDraws) {
  SensorNodeConfig cfg;
  cfg.initial_charge = 1.0;
  auto node = make_node(cfg);
  node.probe_wait_compute(window_);
  EXPECT_NEAR(node.counters().consumed_j, node.inference_energy_j(), 1e-15);
}

TEST_F(SensorNodeTest, ProbeAndResolveMatchFusedAttempt) {
  // A probe does the attempt's bookkeeping and hands back the window; the
  // classification is deferred to whoever runs the forward pass (resolve
  // here, a cross-session panel in the serve tier). The result equals the
  // node's model classifying the window directly, and the bookkeeping is
  // exactly one full draw.
  SensorNodeConfig cfg;
  cfg.initial_charge = 1.0;
  auto node = make_node(cfg);
  const Classification direct = make_node(cfg).classify(window_);
  const double before = node.stored_j();
  const auto probe = node.probe_wait_compute(window_);
  ASSERT_TRUE(probe.completed);
  ASSERT_EQ(probe.classify, &window_);
  const auto resolved = node.resolve(probe);
  ASSERT_TRUE(resolved.has_value());
  EXPECT_EQ(resolved->predicted_class, direct.predicted_class);
  EXPECT_EQ(resolved->probs, direct.probs);
  EXPECT_EQ(node.counters().attempts, 1u);
  EXPECT_EQ(node.counters().completions, 1u);
  EXPECT_DOUBLE_EQ(node.stored_j(), before - node.inference_energy_j());
}

TEST_F(SensorNodeTest, IncompleteProbeResolvesToNothing) {
  SensorNodeConfig cfg;
  cfg.initial_charge = 0.05;
  auto node = make_node(cfg);
  const auto probe = node.probe_wait_compute(window_);
  EXPECT_FALSE(probe.completed);
  EXPECT_EQ(probe.classify, nullptr);
  EXPECT_FALSE(node.resolve(probe).has_value());
  EXPECT_EQ(node.counters().skipped_no_energy, 1u);
}

TEST_F(SensorNodeTest, EagerProbeCompletionPinsTheOriginalWindow) {
  // A resumed eager task classifies the window it was begun on; the probe
  // must keep that window alive past the begin-slot state reset.
  SensorNodeConfig cfg;
  cfg.capacitor_headroom = 2.0;
  cfg.initial_charge = 0.25;
  cfg.nvp.enabled = true;
  auto node = make_node(cfg);
  EXPECT_FALSE(node.probe_eager(window_).completed);
  while (node.stored_j() < 0.8 * node.inference_energy_j()) {
    node.accumulate(0.0, 4.0);
  }
  const nn::Tensor stale_slot{std::vector<int>{2, 4},
                              std::vector<float>{8, 7, 6, 5, 4, 3, 2, 1}};
  const auto probe = node.probe_eager(stale_slot);
  ASSERT_TRUE(probe.completed);
  ASSERT_NE(probe.classify, nullptr);
  EXPECT_EQ(probe.classify->vec(), window_.vec());  // original, not current
  const auto resolved = node.resolve(probe);
  ASSERT_TRUE(resolved.has_value());
  EXPECT_EQ(resolved->probs, node.classify(window_).probs);
  EXPECT_EQ(node.counters().completions, 1u);
}

}  // namespace
}  // namespace origin::net
