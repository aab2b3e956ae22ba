#include "data/stream_cursor.hpp"

#include <gtest/gtest.h>

#include <cstring>

#include "nn/activations.hpp"
#include "nn/conv1d.hpp"
#include "nn/dense.hpp"
#include "sim/experiment.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace origin::data {
namespace {

bool same_bits(const nn::Tensor& a, const nn::Tensor& b) {
  return a.vec().size() == b.vec().size() &&
         std::memcmp(a.data(), b.data(),
                     sizeof(float) * a.vec().size()) == 0;
}

void expect_slot_equal(const SlotSample& got, const SlotSample& want,
                       std::size_t i) {
  EXPECT_EQ(got.label, want.label) << "slot " << i;
  EXPECT_EQ(got.activity, want.activity) << "slot " << i;
  EXPECT_EQ(got.t0_s, want.t0_s) << "slot " << i;
  EXPECT_EQ(got.ambiguous, want.ambiguous) << "slot " << i;
  for (int s = 0; s < kNumSensors; ++s) {
    EXPECT_TRUE(same_bits(got.windows[static_cast<std::size_t>(s)],
                          want.windows[static_cast<std::size_t>(s)]))
        << "slot " << i << " sensor " << s;
  }
}

class StreamCursorTest : public ::testing::Test {
 protected:
  StreamCursorTest() : spec_(dataset_spec(DatasetKind::MHealthLike)) {}

  UserProfile user(int index) const {
    util::Rng rng(40 + static_cast<std::uint64_t>(index));
    return random_user(index, rng);
  }

  DatasetSpec spec_;
};

TEST_F(StreamCursorTest, MatchesMaterializedStreamBitForBit) {
  const auto u = user(0);
  const Stream stream = make_stream(spec_, 60, u, 777);
  StreamCursor cursor(spec_, 60, u, 777, {}, /*ring_capacity=*/4);
  ASSERT_EQ(cursor.size(), stream.slots.size());
  EXPECT_EQ(cursor.segments().size(), stream.segments.size());
  for (std::size_t i = 0; i < cursor.size(); ++i) {
    expect_slot_equal(cursor.slot(i), stream.slots[i], i);
  }
}

TEST_F(StreamCursorTest, MatchesStreamWithSnrNoise) {
  StreamConfig config;
  config.snr_db = 6.0;
  const auto u = user(1);
  const Stream stream = make_stream(spec_, 40, u, 901, config);
  StreamCursor cursor(spec_, 40, u, 901, config, /*ring_capacity=*/8);
  for (std::size_t i = 0; i < cursor.size(); ++i) {
    expect_slot_equal(cursor.slot(i), stream.slots[i], i);
  }
}

TEST_F(StreamCursorTest, ResetReplaysIdenticalSlots) {
  StreamCursor cursor(spec_, 30, user(2), 55, {}, /*ring_capacity=*/2);
  std::vector<SlotSample> first;
  for (std::size_t i = 0; i < cursor.size(); ++i) first.push_back(cursor.slot(i));
  cursor.reset();
  EXPECT_EQ(cursor.generated(), 0u);
  for (std::size_t i = 0; i < cursor.size(); ++i) {
    expect_slot_equal(cursor.slot(i), first[i], i);
  }
}

TEST_F(StreamCursorTest, RebindMatchesFreshCursor) {
  // A cursor recycled from another user's stream (the fleet runner's
  // pooled path) must produce the same bits as one built from scratch.
  StreamCursor pooled(spec_, 25, user(3), 1001, {}, /*ring_capacity=*/4);
  for (std::size_t i = 0; i < pooled.size(); ++i) pooled.slot(i);  // drain
  pooled.rebind(user(4), 2002);

  StreamCursor fresh(spec_, 25, user(4), 2002, {}, /*ring_capacity=*/4);
  for (std::size_t i = 0; i < fresh.size(); ++i) {
    expect_slot_equal(pooled.slot(i), fresh.slot(i), i);
  }
}

TEST_F(StreamCursorTest, LookbackWindowIsHonored) {
  StreamCursor cursor(spec_, 20, user(5), 3, {}, /*ring_capacity=*/4);
  EXPECT_EQ(cursor.lookback(), 4u);
  cursor.slot(10);
  // Everything within the ring is still addressable...
  EXPECT_NO_THROW(cursor.slot(7));
  // ...older slots were recycled, and the end is still the end.
  EXPECT_THROW(cursor.slot(6), std::logic_error);
  EXPECT_THROW(cursor.slot(20), std::out_of_range);
}

TEST_F(StreamCursorTest, ValidatesConstruction) {
  EXPECT_THROW(StreamCursor(spec_, 0, user(0), 1), std::invalid_argument);
  // Two-phase form: unusable until a stream is bound.
  StreamCursor unbound(spec_, 10);
  EXPECT_THROW(unbound.slot(0), std::logic_error);
  EXPECT_THROW(unbound.reset(), std::logic_error);
  unbound.rebind(user(6), 9);
  EXPECT_NO_THROW(unbound.slot(0));
}

// --- simulator consumption -------------------------------------------------

std::array<nn::Sequential, 3> tiny_models(const DatasetSpec& spec) {
  std::array<nn::Sequential, 3> models;
  for (int s = 0; s < 3; ++s) {
    util::Rng rng(300 + static_cast<std::uint64_t>(s));
    auto& m = models[static_cast<std::size_t>(s)];
    m.emplace<nn::Conv1D>(spec.channels, 2, 8, 4, rng)
        .emplace<nn::ReLU>()
        .emplace<nn::Flatten>()
        .emplace<nn::Dense>(2 * 15, spec.num_classes(), rng);
  }
  return models;
}

class CursorSimulationTest : public ::testing::Test {
 protected:
  CursorSimulationTest()
      : spec_(dataset_spec(DatasetKind::MHealthLike)),
        trace_(energy::PowerTrace::generate_wifi_office({}, 11)) {}

  sim::SimulatorConfig scaled_config() {
    sim::SimulatorConfig cfg;
    auto models = tiny_models(spec_);
    const auto cost = nn::estimate_cost(
        models[0], {spec_.channels, spec_.window_len}, cfg.node.compute);
    net::Message msg;
    const double total = cost.energy_j + cfg.node.radio.tx_energy_j(msg);
    const double scale = sim::calibrate_harvest_scale(
        total, trace_, cfg.harvester_efficiency, spec_.slot_seconds(), 6.0);
    for (auto& s : cfg.harvest_scale) s *= scale;
    return cfg;
  }

  void expect_same_results(const sim::SimResult& a, const sim::SimResult& b) {
    EXPECT_EQ(a.outputs, b.outputs);
    EXPECT_EQ(a.accuracy.overall(), b.accuracy.overall());
    EXPECT_EQ(a.completion.attempts, b.completion.attempts);
    EXPECT_EQ(a.completion.completions, b.completion.completions);
    for (int s = 0; s < kNumSensors; ++s) {
      const auto si = static_cast<std::size_t>(s);
      EXPECT_EQ(a.scheduled[si], b.scheduled[si]);
      EXPECT_EQ(a.node_counters[si].completions, b.node_counters[si].completions);
      EXPECT_EQ(a.node_counters[si].consumed_j, b.node_counters[si].consumed_j);
    }
  }

  DatasetSpec spec_;
  energy::PowerTrace trace_;
};

TEST_F(CursorSimulationTest, CursorRunMatchesStreamRun) {
  const Stream stream = make_stream(spec_, 90, reference_user(), 12);
  core::PlainRRPolicy policy_a{core::ExtendedRoundRobin(6)};
  sim::Simulator sim_a(spec_, tiny_models(spec_), &trace_, &policy_a,
                       scaled_config());
  const auto from_stream = sim_a.run(stream);

  StreamCursor cursor(spec_, 90, reference_user(), 12, {},
                      /*ring_capacity=*/16);
  core::PlainRRPolicy policy_b{core::ExtendedRoundRobin(6)};
  sim::Simulator sim_b(spec_, tiny_models(spec_), &trace_, &policy_b,
                       scaled_config());
  const auto from_cursor = sim_b.run(cursor);
  expect_same_results(from_stream, from_cursor);
}

TEST_F(CursorSimulationTest, BorrowedModelsMatchOwnedModels) {
  const Stream stream = make_stream(spec_, 60, reference_user(), 21);
  core::PlainRRPolicy policy_a{core::ExtendedRoundRobin(3)};
  sim::Simulator owned(spec_, tiny_models(spec_), &trace_, &policy_a,
                       scaled_config());
  const auto a = owned.run(stream);

  auto shared_models = tiny_models(spec_);
  core::PlainRRPolicy policy_b{core::ExtendedRoundRobin(3)};
  sim::Simulator borrowed(spec_, &shared_models, &trace_, &policy_b,
                          scaled_config());
  const auto b = borrowed.run(stream);
  // ...and a second run on the same borrowed instances stays identical
  // (no cross-run state accumulates in the networks).
  core::PlainRRPolicy policy_c{core::ExtendedRoundRobin(3)};
  sim::Simulator again(spec_, &shared_models, &trace_, &policy_c,
                       scaled_config());
  const auto c = again.run(stream);
  expect_same_results(a, b);
  expect_same_results(a, c);
}

}  // namespace
}  // namespace origin::data
