#include "data/stream_cursor.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <optional>
#include <vector>

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
    EXPECT_TRUE(same_bits(got.window(static_cast<std::size_t>(s)),
                          want.window(static_cast<std::size_t>(s))))
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

// --- lazy windows: out-of-order reads ---------------------------------------

/// One planned window read: sensor `sensor` of slot `slot`.
struct Read {
  std::size_t slot;
  std::size_t sensor;
};

/// Drives `cursor` through a seeded random read plan and checks every read
/// against the materialized stream. Each slot reads a random sensor subset
/// in shuffled order; some of the rest are deferred and read only after the
/// cursor has moved past their slot (still within lookback). Returns the
/// number of distinct windows read. Slots [from, to) are requested.
std::size_t run_read_plan(StreamCursor& cursor, const Stream& want,
                          util::Rng& plan, std::size_t from = 0,
                          std::size_t to = ~std::size_t{0}) {
  std::vector<Read> deferred;
  std::size_t reads = 0;
  const auto check = [&](const Read& r) {
    const SlotSample& slot = cursor.slot(r.slot);
    ASSERT_TRUE(same_bits(slot.window(r.sensor),
                          want.slots[r.slot].window(r.sensor)))
        << "slot " << r.slot << " sensor " << r.sensor;
    ++reads;
  };
  for (std::size_t i = from; i < std::min(to, cursor.size()); ++i) {
    const SlotSample& slot = cursor.slot(i);
    EXPECT_EQ(slot.label, want.slots[i].label) << "slot " << i;
    std::vector<std::size_t> sensors = {0, 1, 2};
    plan.shuffle(sensors);
    for (std::size_t s : sensors) {
      const double u = plan.uniform();
      if (u < 0.4) {
        check({i, s});
      } else if (u < 0.6) {
        deferred.push_back({i, s});
      }
    }
    // Deferred reads come due at random, but always before their slot
    // leaves the ring.
    std::vector<Read> keep;
    for (const Read& r : deferred) {
      const bool last_chance = r.slot + cursor.lookback() <= i + 1;
      if (last_chance || plan.bernoulli(0.3)) {
        check(r);
      } else {
        keep.push_back(r);
      }
    }
    deferred.swap(keep);
  }
  for (const Read& r : deferred) check(r);
  return reads;
}

TEST_F(StreamCursorTest, RandomReadPlanMatchesStream) {
  const auto u = user(7);
  const Stream stream = make_stream(spec_, 80, u, 4242);
  for (int ring : {1, 3, 8}) {
    StreamCursor cursor(spec_, 80, u, 4242, {}, ring);
    util::Rng plan(100 + static_cast<std::uint64_t>(ring));
    const std::size_t reads = run_read_plan(cursor, stream, plan);
    // One synthesis per window read, in whatever order it was read.
    EXPECT_EQ(cursor.windows_synthesized(), reads) << "ring " << ring;
    EXPECT_LT(reads, 3 * cursor.size());
  }
}

TEST_F(StreamCursorTest, RandomReadPlanMatchesStreamWithSnrNoise) {
  // SNR noise is keyed by its window like the window's own noise, so under
  // snr_db too only the windows read are synthesized.
  StreamConfig config;
  config.snr_db = 4.0;
  const auto u = user(8);
  const Stream stream = make_stream(spec_, 60, u, 515, config);
  StreamCursor cursor(spec_, 60, u, 515, config, /*ring_capacity=*/6);
  util::Rng plan(9);
  const std::size_t reads = run_read_plan(cursor, stream, plan);
  EXPECT_EQ(cursor.windows_synthesized(), reads);
}

TEST_F(StreamCursorTest, MovedCursorKeepsServedSlotsLive) {
  const auto u = user(9);
  const Stream stream = make_stream(spec_, 50, u, 31);
  StreamCursor cursor(spec_, 50, u, 31, {}, /*ring_capacity=*/8);
  util::Rng plan(77);
  run_read_plan(cursor, stream, plan, 0, 20);
  // Slots 18 and 19 may still hold pending windows.
  const SlotSample& newest = cursor.slot(19);
  const SlotSample& older = cursor.slot(18);

  StreamCursor moved = std::move(cursor);
  std::optional<StreamCursor> pooled;
  pooled.emplace(std::move(moved));
  EXPECT_TRUE(same_bits(newest.window(2), stream.slots[19].window(2)));
  EXPECT_TRUE(same_bits(older.window(1), stream.slots[18].window(1)));
  run_read_plan(*pooled, stream, plan, 19);
}

TEST_F(StreamCursorTest, ResetAndRebindDropPendingWindows) {
  const auto u = user(10);
  const Stream stream = make_stream(spec_, 40, u, 66);
  StreamCursor cursor(spec_, 40, u, 66, {}, /*ring_capacity=*/5);
  util::Rng plan(5);
  // Leave the newest slot with unread windows, then rewind.
  run_read_plan(cursor, stream, plan, 0, 13);
  const SlotSample& stale = cursor.slot(13);
  stale.window(1);
  cursor.reset();
  EXPECT_EQ(cursor.windows_synthesized(), 0u);
  // The rewind retired every slot served before it, so the old slot
  // refuses to synthesize its pending window.
  EXPECT_THROW(stale.window(2), std::logic_error);
  run_read_plan(cursor, stream, plan);

  // Same again, re-targeted mid-stream at another user's stream.
  const auto other = user(11);
  const Stream other_stream = make_stream(spec_, 40, other, 67);
  cursor.reset();
  run_read_plan(cursor, stream, plan, 0, 22);
  cursor.slot(22).window(0);
  cursor.rebind(other, 67);
  run_read_plan(cursor, other_stream, plan);
}

TEST_F(StreamCursorTest, CopiedSlotIsMaterialized) {
  const auto u = user(12);
  const Stream stream = make_stream(spec_, 10, u, 8);
  StreamCursor cursor(spec_, 10, u, 8, {}, /*ring_capacity=*/2);
  cursor.slot(3).window(2);
  const SlotSample copy = cursor.slot(3);  // reads sensors 0 and 1 too
  EXPECT_EQ(cursor.windows_synthesized(), 3u);
  for (std::size_t i = 4; i < cursor.size(); ++i) cursor.slot(i);
  // The source slot is recycled; the copy still holds every window.
  EXPECT_THROW(cursor.slot(3), std::logic_error);
  expect_slot_equal(copy, stream.slots[3], 3);
}

TEST_F(StreamCursorTest, RecipeResynthesizesAfterRingRecycles) {
  // A served slot's recipe and its cursor's synthesis context rebuild each
  // window bit for bit after the ring has recycled the slot, and after the
  // cursor itself is gone: with and without SNR noise, and for whole-body
  // ambiguous slots.
  for (const std::optional<double> snr :
       {std::optional<double>{}, std::optional<double>{5.0}}) {
    SCOPED_TRACE(snr ? "snr" : "clean");
    StreamConfig config;
    config.snr_db = snr;
    std::shared_ptr<const SynthesisContext> context;
    std::vector<SlotRecipe> recipes;
    std::vector<SlotSample> served;  // copies: the windows as served
    {
      StreamCursor cursor(spec_, 60, user(13), 404, config,
                          /*ring_capacity=*/4);
      context = cursor.context();
      for (std::size_t i = 0; i < cursor.size(); ++i) {
        const SlotSample& slot = cursor.slot(i);
        EXPECT_EQ(slot.context(), context);
        recipes.push_back(slot.recipe());
        EXPECT_EQ(recipes.back().style.ambiguous_with.has_value(),
                  slot.ambiguous);
        served.push_back(slot);
      }
      EXPECT_THROW(cursor.slot(0), std::logic_error);  // recycled
    }
    std::size_t ambiguous = 0;
    nn::Tensor window;
    for (std::size_t i = 0; i < recipes.size(); ++i) {
      ambiguous += recipes[i].style.ambiguous_with.has_value() ? 1 : 0;
      for (std::size_t s = 0; s < kNumSensors; ++s) {
        context->synthesize(recipes[i], s, window);
        EXPECT_TRUE(same_bits(window, served[i].window(s)))
            << "slot " << i << " sensor " << s;
      }
    }
    EXPECT_GT(ambiguous, 0u);
    // A materialized copy keeps its recipe but cannot re-synthesize.
    EXPECT_EQ(served[3].context(), nullptr);
    EXPECT_EQ(served[3].recipe().key, recipes[3].key);
  }
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

// --- what the lazy cursor synthesizes ---------------------------------------

class CursorCountTest : public ::testing::Test {
 protected:
  static constexpr int kSlots = 240;

  static void SetUpTestSuite() {
    sim::ExperimentConfig cfg;
    cfg.pipeline.train_per_class = 12;
    cfg.pipeline.calib_per_class = 6;
    cfg.pipeline.test_per_class = 6;
    cfg.pipeline.train.epochs = 2;
    cfg.pipeline.use_cache = false;
    cfg.pipeline.seed = 4242;
    cfg.stream_slots = kSlots;
    experiment_ = new sim::Experiment(cfg);
  }
  static void TearDownTestSuite() {
    delete experiment_;
    experiment_ = nullptr;
  }

  static std::uint64_t sum(const std::array<std::uint64_t, kNumSensors>& a) {
    return a[0] + a[1] + a[2];
  }

  static sim::Experiment* experiment_;
};

sim::Experiment* CursorCountTest::experiment_ = nullptr;

TEST_F(CursorCountTest, Rr12OriginSynthesizesOnlyScheduledWindows) {
  const sim::Experiment& e = *experiment_;
  auto lazy_policy = e.make_policy(sim::PolicyKind::Origin, 12);
  StreamCursor cursor = e.make_cursor(reference_user(), 5);
  const sim::SimResult lazy = e.run_policy(*lazy_policy, cursor);

  auto eager_policy = e.make_policy(sim::PolicyKind::Origin, 12);
  const sim::SimResult eager =
      e.run_policy(*eager_policy, e.make_stream(reference_user(), 5));
  EXPECT_EQ(lazy.outputs, eager.outputs);
  EXPECT_EQ(lazy.scheduled, eager.scheduled);
  EXPECT_EQ(cursor.windows_synthesized(), sum(lazy.scheduled));
  EXPECT_LT(cursor.windows_synthesized(), static_cast<std::uint64_t>(kSlots));
}

TEST_F(CursorCountTest, Bl1SynthesizesEveryWindow) {
  const sim::Experiment& e = *experiment_;
  StreamCursor cursor = e.make_cursor(reference_user(), 6);
  e.run_fully_powered(core::BaselineKind::BL1, cursor);
  EXPECT_EQ(cursor.windows_synthesized(),
            static_cast<std::uint64_t>(3 * kSlots));
}

TEST_F(CursorCountTest, Bl2OutputsMatchMaterializedStream) {
  // BL-2 reads only its due sensors; the others are stepped over.
  const sim::Experiment& e = *experiment_;
  StreamCursor cursor = e.make_cursor(reference_user(), 7);
  const sim::SimResult lazy =
      e.run_fully_powered(core::BaselineKind::BL2, cursor);
  const sim::SimResult eager = e.run_fully_powered(
      core::BaselineKind::BL2, e.make_stream(reference_user(), 7));
  EXPECT_EQ(lazy.outputs, eager.outputs);
  EXPECT_EQ(lazy.accuracy.confusion(), eager.accuracy.confusion());
  EXPECT_EQ(cursor.windows_synthesized(), sum(lazy.scheduled));
}

}  // namespace
}  // namespace origin::data
