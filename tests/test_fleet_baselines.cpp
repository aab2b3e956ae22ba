// The fully powered baselines (BL-1, BL-2) classify in per-sensor panels
// over blocks of slots. These cases hold that runner to the single-sample
// oracle it replaced, across baseline variants, slot sources (including a
// ring smaller than the block) and kernel backends, and check the counters
// the runner reports against their definitions.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <optional>
#include <ostream>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "backend_scope.hpp"
#include "core/ensemble.hpp"
#include "net/message.hpp"
#include "sim/experiment.hpp"

namespace origin::sim {
namespace {

constexpr int kSlots = 301;  // not a multiple of the runner's block
constexpr std::uint64_t kSeedOffset = 3;

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

enum class Variant { BL1, BL2, BL2Staggered };
enum class Source { Stream, Cursor, Ring4 };

const char* name(Variant v) {
  switch (v) {
    case Variant::BL1: return "BL1";
    case Variant::BL2: return "BL2";
    case Variant::BL2Staggered: return "BL2Staggered";
  }
  return "?";
}

const char* name(Source s) {
  switch (s) {
    case Source::Stream: return "Stream";
    case Source::Cursor: return "Cursor";
    case Source::Ring4: return "Ring4";
  }
  return "?";
}

void PrintTo(Variant v, std::ostream* os) { *os << name(v); }
void PrintTo(Source s, std::ostream* os) { *os << name(s); }

core::BaselineKind kind_of(Variant v) {
  return v == Variant::BL1 ? core::BaselineKind::BL1 : core::BaselineKind::BL2;
}

/// The baselines' fixed schedule: sensor s classifies slot i when
/// i % period == (s * stagger) % period. BL-1 is period 1.
struct DutyCycle {
  int period = 1;
  int stagger = 0;
  bool due(std::size_t i, int s) const {
    return static_cast<int>(i) % period == (s * stagger) % period;
  }
};

DutyCycle duty_cycle(const Experiment& e, core::BaselineKind kind) {
  if (kind == core::BaselineKind::BL1) return {};
  const int period =
      std::max(1, static_cast<int>(std::lround(e.config().energy_ratio)));
  return {period, e.config().bl2_staggered
                      ? std::max(1, period / data::kNumSensors)
                      : 0};
}

/// The per-slot loop the block-panel runner replaced: one single-sample
/// predict_proba per due window, latest vote per sensor, plain majority
/// vote with the fixed sensor-priority tie-break.
SimResult single_sample_oracle(const Experiment& e, core::BaselineKind kind,
                               data::SlotSource& source) {
  auto models = kind == core::BaselineKind::BL1 ? e.system().bl1_copy()
                                                : e.system().bl2_copy();
  const int num_classes = e.spec().num_classes();
  const DutyCycle cycle = duty_cycle(e, kind);
  SimResult result;
  result.accuracy = AccuracyTracker(num_classes);
  std::array<net::Classification, data::kNumSensors> votes;
  for (std::size_t i = 0; i < source.size(); ++i) {
    const data::SlotSample& slot = source.slot(i);
    ++result.completion.slots;
    for (int s = 0; s < data::kNumSensors; ++s) {
      const auto si = static_cast<std::size_t>(s);
      if (!cycle.due(i, s)) continue;
      votes[si] = net::make_classification(
          models[si].predict_proba(slot.window(si)));
      ++result.completion.attempts;
      ++result.completion.completions;
      ++result.scheduled[si];
    }
    std::vector<core::Ballot> ballots;
    for (int s = 0; s < data::kNumSensors; ++s) {
      const auto si = static_cast<std::size_t>(s);
      if (votes[si].valid()) {
        ballots.push_back({votes[si].predicted_class, 1.0,
                           static_cast<double>(s)});
      }
    }
    const int predicted =
        ballots.empty() ? -1
                        : core::majority_vote(ballots, num_classes).value();
    result.outputs.push_back(predicted);
    result.accuracy.record(slot.label, predicted);
  }
  return result;
}

class FleetBaselinesTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    ExperimentConfig cfg;
    cfg.pipeline = micro_pipeline();
    cfg.stream_slots = kSlots;
    synchronized_ = new Experiment(cfg);
    cfg.bl2_staggered = true;
    staggered_ = new Experiment(cfg);
  }
  static void TearDownTestSuite() {
    delete synchronized_;
    delete staggered_;
    synchronized_ = staggered_ = nullptr;
  }

  static const Experiment& experiment(Variant v) {
    return v == Variant::BL2Staggered ? *staggered_ : *synchronized_;
  }

  /// run_fully_powered over a fresh source of the given kind.
  static SimResult run(Variant v, Source source) {
    const Experiment& e = experiment(v);
    const data::UserProfile user = data::reference_user();
    switch (source) {
      case Source::Stream: {
        const data::Stream stream = e.make_stream(user, kSeedOffset);
        return e.run_fully_powered(kind_of(v), stream);
      }
      case Source::Cursor: {
        auto cursor = e.make_cursor(user, kSeedOffset);
        return e.run_fully_powered(kind_of(v), cursor);
      }
      case Source::Ring4: {
        auto cursor = e.make_cursor(user, kSeedOffset, std::nullopt,
                                    /*ring_capacity=*/4);
        return e.run_fully_powered(kind_of(v), cursor);
      }
    }
    throw std::logic_error("unknown source");
  }

  static SimResult oracle(Variant v) {
    const Experiment& e = experiment(v);
    const data::Stream stream = e.make_stream(data::reference_user(), kSeedOffset);
    data::StreamSlotSource source(stream);
    return single_sample_oracle(e, kind_of(v), source);
  }

  static Experiment* synchronized_;
  static Experiment* staggered_;
};

Experiment* FleetBaselinesTest::synchronized_ = nullptr;
Experiment* FleetBaselinesTest::staggered_ = nullptr;

class FleetBaselinesOracleTest
    : public FleetBaselinesTest,
      public ::testing::WithParamInterface<
          std::tuple<Variant, Source, bool /*pin reference backend*/>> {};

TEST_P(FleetBaselinesOracleTest, BlockPanelsMatchSingleSampleOracle) {
  const auto [variant, source, pin_reference] = GetParam();
  std::optional<test_support::BackendScope> backend;
  if (pin_reference) backend.emplace("reference");
  const SimResult expect = oracle(variant);
  const SimResult got = run(variant, source);
  ASSERT_EQ(got.outputs.size(), static_cast<std::size_t>(kSlots));
  EXPECT_EQ(got.outputs, expect.outputs);
  EXPECT_EQ(got.accuracy.confusion(), expect.accuracy.confusion());
  EXPECT_EQ(got.accuracy.overall(), expect.accuracy.overall());
  EXPECT_EQ(got.completion.slots, expect.completion.slots);
  EXPECT_EQ(got.completion.attempts, expect.completion.attempts);
  EXPECT_EQ(got.completion.completions, expect.completion.completions);
  EXPECT_EQ(got.scheduled, expect.scheduled);
}

INSTANTIATE_TEST_SUITE_P(
    Variants, FleetBaselinesOracleTest,
    ::testing::Combine(::testing::Values(Variant::BL1, Variant::BL2,
                                         Variant::BL2Staggered),
                       ::testing::Values(Source::Stream, Source::Cursor,
                                         Source::Ring4),
                       ::testing::Bool()),
    [](const auto& info) {
      return std::string(name(std::get<0>(info.param))) + "_" +
             name(std::get<1>(info.param)) +
             (std::get<2>(info.param) ? "_Reference" : "_Ambient");
    });

TEST_F(FleetBaselinesTest, CountersFollowTheirDefinitions) {
  for (Variant v : {Variant::BL1, Variant::BL2, Variant::BL2Staggered}) {
    SCOPED_TRACE(name(v));
    const SimResult r = run(v, Source::Cursor);
    EXPECT_NO_THROW(r.validate(kSlots));

    std::uint64_t transitions = 0;
    int previous = -1;
    for (int out : r.outputs) {
      if (out >= 0 && previous >= 0 && out != previous) ++transitions;
      if (out >= 0) previous = out;
    }
    EXPECT_EQ(r.output_transitions, transitions);
    EXPECT_GT(r.output_transitions, 0u);

    const DutyCycle cycle = duty_cycle(experiment(v), kind_of(v));
    std::array<std::uint64_t, data::kNumSensors> scheduled{};
    std::uint64_t slots_with_attempts = 0;
    for (std::size_t i = 0; i < static_cast<std::size_t>(kSlots); ++i) {
      bool any = false;
      for (int s = 0; s < data::kNumSensors; ++s) {
        if (!cycle.due(i, s)) continue;
        ++scheduled[static_cast<std::size_t>(s)];
        any = true;
      }
      if (any) ++slots_with_attempts;
    }
    EXPECT_EQ(r.scheduled, scheduled);
    // A fully powered sensor completes every attempt it makes.
    EXPECT_EQ(r.completion.slots_all_completed, slots_with_attempts);
    EXPECT_EQ(r.completion.slots_some_completed, slots_with_attempts);
    EXPECT_EQ(r.completion.slots_none_completed, 0u);
    EXPECT_EQ(r.completion.completions, r.completion.attempts);
  }
}

}  // namespace
}  // namespace origin::sim
