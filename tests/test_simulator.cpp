#include "sim/simulator.hpp"

#include "sim/experiment.hpp"
#include "sim/slot_stepper.hpp"

#include <gtest/gtest.h>

#include "nn/activations.hpp"
#include "nn/conv1d.hpp"
#include "nn/dense.hpp"
#include "util/rng.hpp"

namespace origin::sim {
namespace {

/// Tiny untrained nets keep these tests fast; the simulator's energy and
/// scheduling mechanics are what is under test, not accuracy.
std::array<nn::Sequential, 3> tiny_models(const data::DatasetSpec& spec) {
  std::array<nn::Sequential, 3> models;
  for (int s = 0; s < 3; ++s) {
    util::Rng rng(100 + static_cast<std::uint64_t>(s));
    auto& m = models[static_cast<std::size_t>(s)];
    m.emplace<nn::Conv1D>(spec.channels, 2, 8, 4, rng)
        .emplace<nn::ReLU>()
        .emplace<nn::Flatten>()
        .emplace<nn::Dense>(2 * 15, spec.num_classes(), rng);
  }
  return models;
}

class SimulatorTest : public ::testing::Test {
 protected:
  SimulatorTest()
      : spec_(data::dataset_spec(data::DatasetKind::MHealthLike)),
        trace_(energy::PowerTrace::generate_wifi_office({}, 11)),
        stream_(data::make_stream(spec_, 120, data::reference_user(), 12)) {}

  SimulatorConfig scaled_config(double ratio) {
    SimulatorConfig cfg;
    auto models = tiny_models(spec_);
    const auto cost = nn::estimate_cost(models[0],
                                        {spec_.channels, spec_.window_len},
                                        cfg.node.compute);
    net::Message msg;
    const double total = cost.energy_j + cfg.node.radio.tx_energy_j(msg);
    const double scale =
        calibrate_harvest_scale(total, trace_, cfg.harvester_efficiency,
                                spec_.slot_seconds(), ratio);
    for (auto& s : cfg.harvest_scale) s *= scale;
    return cfg;
  }

  data::DatasetSpec spec_;
  energy::PowerTrace trace_;
  data::Stream stream_;
};

TEST_F(SimulatorTest, ValidatesInputs) {
  core::PlainRRPolicy policy{core::ExtendedRoundRobin(3)};
  EXPECT_THROW(
      Simulator(spec_, tiny_models(spec_), nullptr, &policy, {}),
      std::invalid_argument);
  EXPECT_THROW(Simulator(spec_, tiny_models(spec_), &trace_, nullptr, {}),
               std::invalid_argument);
  Simulator sim(spec_, tiny_models(spec_), &trace_, &policy, {});
  EXPECT_THROW(sim.run(data::Stream{}), std::invalid_argument);
}

TEST_F(SimulatorTest, OutputsOnePredictionPerSlot) {
  core::PlainRRPolicy policy{core::ExtendedRoundRobin(3)};
  Simulator sim(spec_, tiny_models(spec_), &trace_, &policy, scaled_config(6));
  const auto result = sim.run(stream_);
  EXPECT_EQ(result.outputs.size(), stream_.slots.size());
  EXPECT_EQ(result.accuracy.total(), stream_.slots.size());
  EXPECT_EQ(result.completion.slots, stream_.slots.size());
}

TEST_F(SimulatorTest, DeterministicAcrossRuns) {
  core::PlainRRPolicy policy{core::ExtendedRoundRobin(6)};
  Simulator sim(spec_, tiny_models(spec_), &trace_, &policy, scaled_config(6));
  const auto a = sim.run(stream_);
  const auto b = sim.run(stream_);
  EXPECT_EQ(a.outputs, b.outputs);
  EXPECT_EQ(a.completion.completions, b.completion.completions);
}

TEST_F(SimulatorTest, CompletionAccountingConsistent) {
  core::PlainRRPolicy policy{core::ExtendedRoundRobin(6)};
  Simulator sim(spec_, tiny_models(spec_), &trace_, &policy, scaled_config(6));
  const auto r = sim.run(stream_);
  EXPECT_LE(r.completion.completions, r.completion.attempts);
  // RR6: one attempt every 2 slots.
  EXPECT_EQ(r.completion.attempts, stream_.slots.size() / 2);
  std::uint64_t node_attempts = 0, node_completions = 0;
  for (const auto& c : r.node_counters) {
    node_attempts += c.attempts;
    node_completions += c.completions;
  }
  EXPECT_EQ(node_attempts, r.completion.attempts);
  EXPECT_EQ(node_completions, r.completion.completions);
}

TEST_F(SimulatorTest, ScheduledCountsMatchRotation) {
  core::PlainRRPolicy policy{core::ExtendedRoundRobin(3)};
  Simulator sim(spec_, tiny_models(spec_), &trace_, &policy, scaled_config(6));
  const auto r = sim.run(stream_);
  // 120 slots, RR3: each sensor scheduled 40x.
  EXPECT_EQ(r.scheduled[0], 40u);
  EXPECT_EQ(r.scheduled[1], 40u);
  EXPECT_EQ(r.scheduled[2], 40u);
}

TEST_F(SimulatorTest, MoreHarvestMoreCompletions) {
  core::PlainRRPolicy p1{core::ExtendedRoundRobin(6)};
  core::PlainRRPolicy p2{core::ExtendedRoundRobin(6)};
  Simulator starved(spec_, tiny_models(spec_), &trace_, &p1, scaled_config(20));
  Simulator rich(spec_, tiny_models(spec_), &trace_, &p2, scaled_config(1));
  const auto r_starved = starved.run(stream_);
  const auto r_rich = rich.run(stream_);
  EXPECT_GT(r_rich.completion.completions, r_starved.completion.completions);
}

TEST_F(SimulatorTest, ExtendedCycleImprovesSuccessRate) {
  core::PlainRRPolicy rr3{core::ExtendedRoundRobin(3)};
  core::PlainRRPolicy rr12{core::ExtendedRoundRobin(12)};
  const auto cfg = scaled_config(6);
  const auto r3 =
      Simulator(spec_, tiny_models(spec_), &trace_, &rr3, cfg).run(stream_);
  const auto r12 =
      Simulator(spec_, tiny_models(spec_), &trace_, &rr12, cfg).run(stream_);
  EXPECT_GT(r12.completion.attempt_success_rate(),
            r3.completion.attempt_success_rate());
}

TEST_F(SimulatorTest, NaiveDeadlineMostlyFails) {
  core::NaiveAllPolicy naive(spec_.num_classes());
  Simulator sim(spec_, tiny_models(spec_), &trace_, &naive, scaled_config(6));
  const auto r = sim.run(stream_);
  // Fig. 1a shape: most slots complete nothing.
  EXPECT_GT(r.completion.pct_failed_slots(), 50.0);
  EXPECT_LT(r.completion.pct_all(), 20.0);
}

TEST_F(SimulatorTest, EnergyConservation) {
  core::PlainRRPolicy policy{core::ExtendedRoundRobin(6)};
  Simulator sim(spec_, tiny_models(spec_), &trace_, &policy, scaled_config(6));
  const auto r = sim.run(stream_);
  for (const auto& c : r.node_counters) {
    // A node cannot consume more than it harvested plus its initial charge
    // (initial charge <= capacitor capacity ~ headroom x cost; use a loose
    // bound via harvested + a generous constant).
    EXPECT_LE(c.consumed_j, c.harvested_j + 1e-3);
  }
}

TEST_F(SimulatorTest, InferenceEnergyReflectsModels) {
  core::PlainRRPolicy policy{core::ExtendedRoundRobin(3)};
  Simulator sim(spec_, tiny_models(spec_), &trace_, &policy, {});
  const auto costs = sim.inference_energy_j();
  for (double c : costs) EXPECT_GT(c, 0.0);
}

void expect_same_result(const SimResult& a, const SimResult& b) {
  EXPECT_EQ(a.outputs, b.outputs);
  EXPECT_EQ(a.scheduled, b.scheduled);
  EXPECT_EQ(a.completion.attempts, b.completion.attempts);
  EXPECT_EQ(a.completion.completions, b.completion.completions);
  EXPECT_EQ(a.completion.slots_all_completed, b.completion.slots_all_completed);
  EXPECT_EQ(a.accuracy.overall(), b.accuracy.overall());
  for (std::size_t s = 0; s < a.node_counters.size(); ++s) {
    EXPECT_EQ(a.node_counters[s].attempts, b.node_counters[s].attempts);
    EXPECT_EQ(a.node_counters[s].completions, b.node_counters[s].completions);
    EXPECT_EQ(a.node_counters[s].skipped_no_energy,
              b.node_counters[s].skipped_no_energy);
    EXPECT_EQ(a.node_counters[s].died_midway, b.node_counters[s].died_midway);
    EXPECT_EQ(a.node_counters[s].consumed_j, b.node_counters[s].consumed_j);
  }
}

TEST_F(SimulatorTest, SplitPhaseStepMatchesFusedForEveryExecutionModel) {
  // step() == step_begin + per-request predict_proba + step_finish, under
  // every attempt discipline — the substrate cross-session batched
  // serving stands on (serve::SessionShard classifies the gathered
  // requests in panels; the outcome must not depend on who runs the
  // forward pass).
  const auto cfg = scaled_config(6);
  const auto check = [&](auto make_policy) {
    auto split_policy = make_policy();
    auto models = tiny_models(spec_);
    data::StreamSlotSource source(stream_);
    SlotStepper stepper(spec_, &models, &trace_, &split_policy, &source, cfg);
    std::vector<SlotStepper::ClassifyRequest> requests;
    std::vector<net::Classification> results;
    while (!stepper.done()) {
      requests.clear();
      const std::size_t issued = stepper.step_begin(requests);
      EXPECT_EQ(issued, requests.size());
      results.clear();
      for (const auto& request : requests) {
        results.push_back(net::make_classification(
            models[static_cast<std::size_t>(request.sensor)].predict_proba(
                *request.window)));
      }
      stepper.step_finish(results.data(), results.size());
    }
    auto fused_policy = make_policy();
    Simulator fused(spec_, tiny_models(spec_), &trace_, &fused_policy, cfg);
    expect_same_result(stepper.take_result(), fused.run(stream_));
  };
  {
    SCOPED_TRACE("eager");
    check([&] { return core::PlainRRPolicy{core::ExtendedRoundRobin(6)}; });
  }
  {
    SCOPED_TRACE("deadline");
    check([&] { return core::NaiveAllPolicy(spec_.num_classes()); });
  }
  {
    SCOPED_TRACE("wait-compute");
    check([&] {
      return core::AASPolicy(core::ExtendedRoundRobin(6),
                             core::RankTable(spec_.num_classes()));
    });
  }
}

TEST_F(SimulatorTest, SplitPhaseMisuseRejected) {
  core::PlainRRPolicy policy{core::ExtendedRoundRobin(3)};
  auto models = tiny_models(spec_);
  data::StreamSlotSource source(stream_);
  SlotStepper stepper(spec_, &models, &trace_, &policy, &source,
                      scaled_config(6));
  // No open slot yet.
  EXPECT_THROW(stepper.step_finish(nullptr, 0), std::logic_error);
  std::vector<SlotStepper::ClassifyRequest> requests;
  stepper.step_begin(requests);
  // Re-opening and finishing with the wrong result count are both errors;
  // neither corrupts the open slot.
  EXPECT_THROW(stepper.step_begin(requests), std::logic_error);
  EXPECT_THROW(stepper.step_finish(nullptr, requests.size() + 1),
               std::invalid_argument);
  std::vector<net::Classification> results;
  for (const auto& request : requests) {
    results.push_back(net::make_classification(
        models[static_cast<std::size_t>(request.sensor)].predict_proba(
            *request.window)));
  }
  EXPECT_NO_THROW(stepper.step_finish(results.data(), results.size()));
}

}  // namespace
}  // namespace origin::sim
