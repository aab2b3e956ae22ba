// The paper's claims as executable gates. Each case mirrors one bench
// (fig01_completion, fig04_aas, fig05_policy_sweep,
// tab01_origin_vs_baselines, fig06_adaptive) on the full-size trained
// system from the model cache and asserts the claim *structure*
// EXPERIMENTS.md reports — who wins, in which order — not the exact
// cells, so a change that moves stream bits re-baselines the tables
// without touching this file unless a claim breaks.
//
// Everything runs on the reference backend: the cache key and every
// recorded table are reference-backend numbers. One trained system per
// dataset is shared by all cases (a cold cache trains it once, about a
// minute for both; ORIGIN_CACHE_DIR points ctest at the build tree's
// cache, which the benches run from build/ share).
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "adaptive_protocol.hpp"
#include "backend_scope.hpp"
#include "fleet/fleet_runner.hpp"
#include "sim/experiment.hpp"

namespace origin {
namespace {

/// The tolerance (accuracy points) on the two thin-margin claims: RR12-
/// Origin against Baseline-2 on MHEALTH-like data, and the adaptive
/// matrix against its frozen control in Fig. 6. Margins on the v6 stream
/// were +0.80, and +0.10/+0.38 (user 1) and +4.00/+1.98 (user 2) at
/// iterations 100/1000; on v7 they are +0.25, +0.0/+0.30 and +1.8/+1.62.
/// A point of slack keeps a re-trained cache from failing on noise while
/// a real loss of the claim still fails.
constexpr double kEpsilonPts = 1.0;

/// A "≪" step of Fig. 1: the larger rate at least twice the smaller.
constexpr double kMuchLessFactor = 2.0;

constexpr int kCycles[] = {3, 6, 9, 12};

/// The cycle length at which +AASR does not beat +AAS (claim not met).
/// With 2 s between opportunities a full rotation takes 6 s, longer than
/// AASR's 5.4 s coverage deadline, so the coverage pass picks the sensor
/// at 96 % of RR12 opportunities (8 % at RR3) and AASR schedules much
/// like the plain rotation.
constexpr int kAasrStepNotMetCycle = 12;
constexpr sim::PolicyKind kStaircase[] = {
    sim::PolicyKind::PlainRR, sim::PolicyKind::AAS, sim::PolicyKind::AASR,
    sim::PolicyKind::Origin};

sim::ExperimentConfig bench_config(data::DatasetKind kind) {
  sim::ExperimentConfig cfg;
  cfg.pipeline.kind = kind;
  cfg.pipeline.cache_dir = core::default_cache_dir();
  cfg.stream_slots = 4000;
  return cfg;
}

/// Fig. 5's sweep for one dataset: overall accuracy (percent) of each
/// staircase policy at each cycle length, plus Baseline-2, through the
/// fleet runner exactly as fig05_policy_sweep runs it.
struct Sweep {
  double overall[4][4] = {};  // [cycle index][staircase step]
  double bl2 = 0.0;
};

class ClaimsTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    scope_ = new test_support::BackendScope("reference");
    mhealth_ = new sim::Experiment(bench_config(data::DatasetKind::MHealthLike));
    pamap2_ = new sim::Experiment(bench_config(data::DatasetKind::Pamap2Like));
    mhealth_sweep_ = new Sweep(sweep(*mhealth_));
    pamap2_sweep_ = new Sweep(sweep(*pamap2_));
  }
  static void TearDownTestSuite() {
    delete pamap2_sweep_;
    delete mhealth_sweep_;
    delete pamap2_;
    delete mhealth_;
    delete scope_;
  }

  static Sweep sweep(const sim::Experiment& exp) {
    std::vector<fleet::FleetJob> jobs;
    for (int cycle : kCycles) {
      for (auto kind : kStaircase) {
        fleet::FleetJob job;
        job.policy = kind;
        job.rr_cycle = cycle;
        jobs.push_back(job);
      }
    }
    fleet::FleetJob bl2;
    bl2.baseline = core::BaselineKind::BL2;
    jobs.push_back(bl2);

    fleet::FleetRunnerConfig config;
    config.threads = fleet::ThreadPool::hardware_threads();
    const auto result = fleet::FleetRunner(exp, config).run(jobs);
    Sweep out;
    for (std::size_t c = 0; c < 4; ++c) {
      for (std::size_t k = 0; k < 4; ++k) {
        out.overall[c][k] = 100.0 * result.jobs[c * 4 + k].accuracy;
      }
    }
    out.bl2 = 100.0 * result.jobs.back().accuracy;
    return out;
  }

  /// The policy staircase of Figs. 4/5, gated per cycle length: RR <
  /// +AAS, +AAS < +AASR, +AAS < +Origin and +AASR < +Origin. The one step
  /// the reproduction does not meet is +AAS < +AASR at RR12, on both
  /// datasets (EXPERIMENTS.md, Fig. 5): that step is recorded as a test
  /// property, not gated.
  static void expect_staircase(const Sweep& sweep, const char* dataset) {
    const auto name = [](std::size_t k) { return to_string(kStaircase[k]); };
    const auto expect_below = [&](std::size_t c, std::size_t lo,
                                  std::size_t hi) {
      EXPECT_LT(sweep.overall[c][lo], sweep.overall[c][hi])
          << dataset << " RR" << kCycles[c] << ": " << name(lo) << " "
          << sweep.overall[c][lo] << " vs " << name(hi) << " "
          << sweep.overall[c][hi];
    };
    for (std::size_t c = 0; c < 4; ++c) {
      expect_below(c, 0, 1);
      if (kCycles[c] != kAasrStepNotMetCycle) expect_below(c, 1, 2);
      expect_below(c, 1, 3);
      expect_below(c, 2, 3);
      ::testing::Test::RecordProperty(
          std::string(dataset) + "_rr" + std::to_string(kCycles[c]) +
              "_aasr_minus_aas_pts",
          std::to_string(sweep.overall[c][2] - sweep.overall[c][1]));
    }
  }

  static test_support::BackendScope* scope_;
  static sim::Experiment* mhealth_;
  static sim::Experiment* pamap2_;
  static Sweep* mhealth_sweep_;
  static Sweep* pamap2_sweep_;
};

test_support::BackendScope* ClaimsTest::scope_ = nullptr;
sim::Experiment* ClaimsTest::mhealth_ = nullptr;
sim::Experiment* ClaimsTest::pamap2_ = nullptr;
Sweep* ClaimsTest::mhealth_sweep_ = nullptr;
Sweep* ClaimsTest::pamap2_sweep_ = nullptr;

TEST_F(ClaimsTest, Fig1NaiveCompletionMuchBelowRR3MuchBelowRR12) {
  const auto stream = mhealth_->make_stream(data::reference_user());
  const auto run = [&](sim::PolicyKind kind, int cycle) {
    auto policy = mhealth_->make_policy(kind, cycle);
    return mhealth_->run_policy(*policy, stream).completion;
  };
  const double naive_all = run(sim::PolicyKind::Naive, 3).pct_all();
  const double rr3 = run(sim::PolicyKind::PlainRR, 3).attempt_success_rate();
  const double rr12 = run(sim::PolicyKind::PlainRR, 12).attempt_success_rate();
  RecordProperty("naive_all_pct", std::to_string(naive_all));
  RecordProperty("rr3_success_pct", std::to_string(rr3));
  RecordProperty("rr12_success_pct", std::to_string(rr12));
  EXPECT_LT(kMuchLessFactor * naive_all, rr3)
      << "naive all-three " << naive_all << " vs RR3 " << rr3;
  EXPECT_LT(kMuchLessFactor * rr3, rr12) << "RR3 " << rr3 << " vs RR12 " << rr12;
}

TEST_F(ClaimsTest, Fig4And5StaircaseAtEveryCycleOnMHealth) {
  expect_staircase(*mhealth_sweep_, "mhealth");
}

TEST_F(ClaimsTest, Fig5StaircaseAtEveryCycleOnPamap2) {
  expect_staircase(*pamap2_sweep_, "pamap2");
}

TEST_F(ClaimsTest, Table1OriginRR12AtLeastBaseline2OnMHealth) {
  const double origin = mhealth_sweep_->overall[3][3];
  const double bl2 = mhealth_sweep_->bl2;
  RecordProperty("mhealth_margin_pts", std::to_string(origin - bl2));
  // Reported, not gated: on PAMAP2-like data RR12-Origin trails BL-2.
  RecordProperty("pamap2_margin_pts",
                 std::to_string(pamap2_sweep_->overall[3][3] - pamap2_sweep_->bl2));
  EXPECT_GE(origin, bl2 - kEpsilonPts)
      << "RR12-Origin " << origin << " vs Baseline-2 " << bl2;
}

TEST_F(ClaimsTest, Fig6AdaptiveUsersHoldTheirFrozenControl) {
  const auto runs = bench::adaptive_runs();
  const auto rows = bench::run_adaptive(mhealth_->system(), runs);
  // Users 1 and 2 (rows 0, 1) against their frozen controls (rows 3, 4)
  // at iterations 100 and 1000, where the paper says the learner has
  // settled. The iteration-1 and -10 rates average 20 and 100
  // classifications, so one classification moves them by more than ε.
  for (std::size_t u = 0; u < 2; ++u) {
    const auto& adaptive = rows[u];
    const auto& frozen = rows[u + 3];
    for (std::size_t k = 2; k < adaptive.size(); ++k) {
      EXPECT_GE(adaptive[k], frozen[k] - kEpsilonPts)
          << runs[u].label << " at iteration " << bench::kAdaptiveCheckpoints[k]
          << ": " << adaptive[k] << " vs frozen " << frozen[k];
    }
  }
}

}  // namespace
}  // namespace origin
