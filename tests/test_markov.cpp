#include "data/markov.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace origin::data {
namespace {

class MarkovTest : public ::testing::Test {
 protected:
  DatasetSpec spec = dataset_spec(DatasetKind::MHealthLike);
};

TEST_F(MarkovTest, SegmentsTileTheDuration) {
  ActivityMarkov markov(spec);
  util::Rng rng(1);
  const auto segments = markov.generate(600.0, rng);
  ASSERT_FALSE(segments.empty());
  EXPECT_DOUBLE_EQ(segments.front().start_s, 0.0);
  for (std::size_t i = 1; i < segments.size(); ++i) {
    EXPECT_NEAR(segments[i].start_s, segments[i - 1].end_s(), 1e-9);
  }
  EXPECT_NEAR(segments.back().end_s(), 600.0, 1e-6);
}

TEST_F(MarkovTest, NoSelfTransitions) {
  ActivityMarkov markov(spec);
  util::Rng rng(2);
  const auto segments = markov.generate(2000.0, rng);
  for (std::size_t i = 1; i < segments.size(); ++i) {
    EXPECT_NE(segments[i].activity, segments[i - 1].activity);
  }
}

TEST_F(MarkovTest, DwellTimesRespectMinimum) {
  MarkovConfig cfg;
  cfg.min_dwell_s = 5.0;
  ActivityMarkov markov(spec, cfg);
  util::Rng rng(3);
  const auto segments = markov.generate(2000.0, rng);
  for (std::size_t i = 0; i + 1 < segments.size(); ++i) {
    EXPECT_GE(segments[i].duration_s, 5.0 - 1e-9);
  }
}

TEST_F(MarkovTest, MeanDwellApproximatesConfig) {
  MarkovConfig cfg;
  cfg.mean_dwell_s = 20.0;
  cfg.min_dwell_s = 0.1;
  ActivityMarkov markov(spec, cfg);
  util::Rng rng(4);
  const auto segments = markov.generate(50000.0, rng);
  double total = 0.0;
  for (std::size_t i = 0; i + 1 < segments.size(); ++i) total += segments[i].duration_s;
  const double mean = total / static_cast<double>(segments.size() - 1);
  EXPECT_NEAR(mean, 20.0, 2.5);
}

TEST_F(MarkovTest, TransitionWeightsFavorAdjacentIntensity) {
  ActivityMarkov markov(spec);
  EXPECT_GT(markov.transition_weight(Activity::Jogging, Activity::Running),
            markov.transition_weight(Activity::Walking, Activity::Running));
  EXPECT_DOUBLE_EQ(markov.transition_weight(Activity::Walking, Activity::Walking), 0.0);
}

TEST_F(MarkovTest, AllActivitiesEventuallyVisited) {
  ActivityMarkov markov(spec);
  util::Rng rng(5);
  const auto segments = markov.generate(20000.0, rng);
  std::set<Activity> seen;
  for (const auto& s : segments) seen.insert(s.activity);
  EXPECT_EQ(static_cast<int>(seen.size()), spec.num_classes());
}

TEST_F(MarkovTest, ActivityAtLookup) {
  std::vector<ActivitySegment> segments = {
      {Activity::Walking, 0.0, 10.0},
      {Activity::Running, 10.0, 5.0},
      {Activity::Cycling, 15.0, 20.0},
  };
  EXPECT_EQ(activity_at(segments, 0.0), Activity::Walking);
  EXPECT_EQ(activity_at(segments, 9.999), Activity::Walking);
  EXPECT_EQ(activity_at(segments, 10.0), Activity::Running);
  EXPECT_EQ(activity_at(segments, 14.0), Activity::Running);
  EXPECT_EQ(activity_at(segments, 30.0), Activity::Cycling);
  // Beyond the end: last segment persists.
  EXPECT_EQ(activity_at(segments, 99.0), Activity::Cycling);
}

TEST_F(MarkovTest, ActivityAtEmptyThrows) {
  EXPECT_THROW(activity_at({}, 1.0), std::invalid_argument);
}

TEST_F(MarkovTest, InvalidConfigThrows) {
  MarkovConfig bad;
  bad.mean_dwell_s = 0.0;
  EXPECT_THROW(ActivityMarkov(spec, bad), std::invalid_argument);
  ActivityMarkov ok(spec);
  util::Rng rng(6);
  EXPECT_THROW(ok.generate(0.0, rng), std::invalid_argument);
  // The transition weights live in one slot per activity kind, so a
  // spec listing an activity twice is refused rather than overrun.
  auto repeated = spec;
  repeated.activities.push_back(Activity::Walking);
  EXPECT_THROW(ActivityMarkov(repeated, MarkovConfig{}), std::invalid_argument);
}

TEST_F(MarkovTest, DeterministicGivenSeed) {
  ActivityMarkov markov(spec);
  util::Rng a(7), b(7);
  const auto sa = markov.generate(500.0, a);
  const auto sb = markov.generate(500.0, b);
  ASSERT_EQ(sa.size(), sb.size());
  for (std::size_t i = 0; i < sa.size(); ++i) {
    EXPECT_EQ(sa[i].activity, sb[i].activity);
    EXPECT_DOUBLE_EQ(sa[i].duration_s, sb[i].duration_s);
  }
}

}  // namespace
}  // namespace origin::data
