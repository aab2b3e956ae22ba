#include "fleet/fleet_runner.hpp"

#include <gtest/gtest.h>

#include <set>
#include <stdexcept>

#include "sim/repeat.hpp"

namespace origin::fleet {
namespace {

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

class FleetRunnerTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    sim::ExperimentConfig cfg;
    cfg.pipeline = micro_pipeline();
    cfg.stream_slots = 120;
    experiment_ = new sim::Experiment(cfg);
  }
  static void TearDownTestSuite() {
    delete experiment_;
    experiment_ = nullptr;
  }

  static std::vector<FleetJob> small_population() {
    PopulationConfig pop;
    pop.users = 6;
    pop.runs_per_user = 1;
    pop.root_seed = 99;
    pop.policy = sim::PolicyKind::PlainRR;
    pop.rr_cycle = 6;
    return make_population(pop);
  }

  static FleetResult run_with_threads(unsigned threads,
                                      std::size_t shard_size = 1) {
    FleetRunnerConfig cfg;
    cfg.threads = threads;
    cfg.shard_size = shard_size;
    return FleetRunner(*experiment_, cfg).run(small_population());
  }

  static sim::Experiment* experiment_;
};

sim::Experiment* FleetRunnerTest::experiment_ = nullptr;

TEST_F(FleetRunnerTest, AggregateBitIdenticalAcrossThreadCounts) {
  const auto r1 = run_with_threads(1);
  const auto r4 = run_with_threads(4);
  const auto r8 = run_with_threads(8);  // oversubscribed: 8 threads, 6 shards

  for (const auto* r : {&r4, &r8}) {
    EXPECT_EQ(r->aggregate.jobs, r1.aggregate.jobs);
    EXPECT_EQ(r->aggregate.attempts, r1.aggregate.attempts);
    EXPECT_EQ(r->aggregate.completions, r1.aggregate.completions);
    // Bitwise equality, not EXPECT_NEAR: same shards, same merge order.
    EXPECT_EQ(r->aggregate.accuracy.count(), r1.aggregate.accuracy.count());
    EXPECT_EQ(r->aggregate.accuracy.mean(), r1.aggregate.accuracy.mean());
    EXPECT_EQ(r->aggregate.accuracy.variance(),
              r1.aggregate.accuracy.variance());
    EXPECT_EQ(r->aggregate.success_rate.mean(),
              r1.aggregate.success_rate.mean());
    EXPECT_EQ(r->aggregate.success_rate.variance(),
              r1.aggregate.success_rate.variance());
    ASSERT_EQ(r->jobs.size(), r1.jobs.size());
    for (std::size_t j = 0; j < r1.jobs.size(); ++j) {
      EXPECT_EQ(r->jobs[j].accuracy, r1.jobs[j].accuracy);
      EXPECT_EQ(r->jobs[j].success_rate, r1.jobs[j].success_rate);
    }
  }
}

TEST_F(FleetRunnerTest, MultiJobShardsKeepJobResultsIdentical) {
  // Shard layout changes the merge tree (and thus may change the last
  // bits of the aggregate), but never any per-job result.
  const auto a = run_with_threads(2, /*shard_size=*/1);
  const auto b = run_with_threads(2, /*shard_size=*/4);
  EXPECT_EQ(a.shard_timings.size(), 6u);
  EXPECT_EQ(b.shard_timings.size(), 2u);
  ASSERT_EQ(a.jobs.size(), b.jobs.size());
  for (std::size_t j = 0; j < a.jobs.size(); ++j) {
    EXPECT_EQ(a.jobs[j].accuracy, b.jobs[j].accuracy);
  }
  EXPECT_NEAR(a.aggregate.accuracy.mean(), b.aggregate.accuracy.mean(), 1e-12);
}

TEST_F(FleetRunnerTest, OversubscriptionMoreShardsThanThreads) {
  const auto r = run_with_threads(2);  // 6 single-job shards on 2 threads
  EXPECT_EQ(r.aggregate.jobs, 6u);
  EXPECT_EQ(r.shard_timings.size(), 6u);
  for (const auto& t : r.shard_timings) {
    EXPECT_EQ(t.jobs, 1u);
    EXPECT_GE(t.seconds, 0.0);
  }
  EXPECT_GT(r.wall_seconds, 0.0);
  EXPECT_GT(r.users_per_second(), 0.0);
}

TEST_F(FleetRunnerTest, ExceptionInShardRethrowsAtJoin) {
  auto jobs = small_population();
  jobs[3].policy = static_cast<sim::PolicyKind>(99);  // make_policy throws
  for (unsigned threads : {1u, 4u}) {
    FleetRunnerConfig cfg;
    cfg.threads = threads;
    EXPECT_THROW(FleetRunner(*experiment_, cfg).run(jobs),
                 std::invalid_argument);
  }
}

TEST_F(FleetRunnerTest, KeepSimResultsMatchesScalars) {
  FleetRunnerConfig cfg;
  cfg.threads = 2;
  cfg.keep_sim_results = true;
  const auto r = FleetRunner(*experiment_, cfg).run(small_population());
  ASSERT_EQ(r.sim_results.size(), r.jobs.size());
  for (std::size_t j = 0; j < r.jobs.size(); ++j) {
    EXPECT_EQ(r.sim_results[j].accuracy.overall(), r.jobs[j].accuracy);
    EXPECT_EQ(r.sim_results[j].completion.attempt_success_rate(),
              r.jobs[j].success_rate);
  }
}

TEST_F(FleetRunnerTest, ProgressReportsEveryShard) {
  FleetRunnerConfig cfg;
  cfg.threads = 3;
  std::vector<std::size_t> seen;
  cfg.progress = [&](std::size_t done, std::size_t total) {
    EXPECT_EQ(total, 6u);
    seen.push_back(done);  // callback is serialized by the runner
  };
  FleetRunner(*experiment_, cfg).run(small_population());
  ASSERT_EQ(seen.size(), 6u);
  for (std::size_t i = 0; i < seen.size(); ++i) EXPECT_EQ(seen[i], i + 1);
}

TEST_F(FleetRunnerTest, BaselineJobsRunFullyPowered) {
  std::vector<FleetJob> jobs(2);
  jobs[0].baseline = core::BaselineKind::BL2;
  jobs[0].seed_offset = 1;
  jobs[1].baseline = core::BaselineKind::BL2;
  jobs[1].seed_offset = 2;
  FleetRunnerConfig cfg;
  cfg.threads = 2;
  const auto r = FleetRunner(*experiment_, cfg).run(jobs);
  // Fully-powered baselines complete every scheduled attempt.
  EXPECT_EQ(r.aggregate.success_rate.mean(), 100.0);
}

TEST_F(FleetRunnerTest, BaselinesMatchExperimentOracle) {
  // The runner's baseline jobs run on pooled model copies and a cursor
  // rebound from job to job; the oracle runs each job on a fresh cursor
  // and the system's own model copies. Two threads over four one-job
  // shards guarantee at least one rebound cursor.
  std::vector<FleetJob> jobs(4);
  jobs[0].baseline = core::BaselineKind::BL1;
  jobs[1].baseline = core::BaselineKind::BL2;
  jobs[2].baseline = core::BaselineKind::BL1;
  jobs[2].seed_offset = 5;
  jobs[3].baseline = core::BaselineKind::BL2;
  jobs[3].seed_offset = 5;
  FleetRunnerConfig cfg;
  cfg.threads = 2;
  cfg.keep_sim_results = true;
  const auto r = FleetRunner(*experiment_, cfg).run(jobs);
  ASSERT_EQ(r.sim_results.size(), jobs.size());
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    SCOPED_TRACE(j);
    auto cursor = experiment_->make_cursor(jobs[j].user, jobs[j].seed_offset);
    const auto oracle = experiment_->run_fully_powered(*jobs[j].baseline, cursor);
    EXPECT_EQ(r.sim_results[j].outputs, oracle.outputs);
    EXPECT_EQ(r.sim_results[j].completion.attempts, oracle.completion.attempts);
    EXPECT_EQ(r.sim_results[j].completion.completions,
              oracle.completion.completions);
    EXPECT_EQ(r.sim_results[j].output_transitions, oracle.output_transitions);
    EXPECT_EQ(r.sim_results[j].scheduled, oracle.scheduled);
    EXPECT_EQ(r.jobs[j].accuracy, oracle.accuracy.overall());
  }
}

TEST_F(FleetRunnerTest, TracedBatchIsInJobOrderAtAnyThreadCount) {
  // Each shard records into its own log and the logs fold in shard order,
  // so a traced batch reads job 0's slot trace, then one span per job in
  // job order — identical at any thread count except the spans' wall
  // clock.
  PopulationConfig pop;
  pop.users = 6;
  pop.root_seed = 7;
  pop.policy = sim::PolicyKind::Origin;
  auto jobs = make_population(pop);
  for (std::size_t j = 1; j < jobs.size(); j += 2) {
    jobs[j].baseline = core::BaselineKind::BL2;
  }
  for (const std::size_t shard_size : {std::size_t{1}, std::size_t{2}}) {
    const auto traced = [&](unsigned threads) {
      obs::FlightRecorder ring(1 << 16);
      FleetRunnerConfig cfg;
      cfg.threads = threads;
      cfg.shard_size = shard_size;
      cfg.trace = &ring;
      FleetRunner(*experiment_, cfg).run(jobs);
      EXPECT_EQ(ring.dropped(), 0u);
      return ring.events();
    };
    SCOPED_TRACE(::testing::Message() << "shard_size " << shard_size);
    const auto reference = traced(1);
    if (!obs::kTraceEnabled) {
      EXPECT_TRUE(reference.empty());
      continue;
    }
    ASSERT_GT(reference.size(), jobs.size());
    const std::size_t slot_events = reference.size() - jobs.size();
    for (std::size_t i = 0; i < slot_events; ++i) {
      ASSERT_NE(reference[i].kind, obs::EventKind::Job) << "event " << i;
      if (i > 0) {
        ASSERT_GE(reference[i].slot, reference[i - 1].slot);
      }
    }
    for (std::size_t j = 0; j < jobs.size(); ++j) {
      const obs::TraceEvent& e = reference[slot_events + j];
      ASSERT_EQ(e.kind, obs::EventKind::Job);
      EXPECT_EQ(e.slot, static_cast<std::int64_t>(j));
      EXPECT_EQ(e.track, static_cast<int>(j / shard_size));
      EXPECT_STREQ(obs::label_text(e.cls),
                   jobs[j].baseline ? "Baseline-2" : "origin");
    }
    for (const unsigned threads : {2u, 8u}) {
      const auto events = traced(threads);
      ASSERT_EQ(events.size(), reference.size()) << "threads " << threads;
      for (std::size_t i = 0; i < events.size(); ++i) {
        obs::TraceEvent got = events[i];
        obs::TraceEvent want = reference[i];
        if (want.kind == obs::EventKind::Job) {
          got.t0_s = want.t0_s = 0.0;
          got.dur_s = want.dur_s = 0.0;
        }
        ASSERT_EQ(got, want) << "event " << i << " at threads " << threads;
      }
    }
  }
}

TEST(FleetPopulation, DeterministicDistinctUsersAndSeeds) {
  PopulationConfig pop;
  pop.users = 8;
  pop.runs_per_user = 3;
  pop.root_seed = 7;
  const auto a = make_population(pop);
  const auto b = make_population(pop);
  ASSERT_EQ(a.size(), 24u);
  std::set<std::uint64_t> offsets;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].seed_offset, b[i].seed_offset);
    EXPECT_EQ(a[i].user.freq_scale, b[i].user.freq_scale);
    offsets.insert(a[i].seed_offset);
  }
  EXPECT_EQ(offsets.size(), 24u);  // every (user, run) streams independently
  // Users actually differ from each other and from the reference.
  EXPECT_NE(a[0].user.freq_scale, a[3].user.freq_scale);
  EXPECT_THROW(
      [] {
        PopulationConfig bad;
        bad.runs_per_user = 0;
        make_population(bad);
      }(),
      std::invalid_argument);
}

TEST(FleetPopulation, ZeroSeverityUsesReferenceUser) {
  PopulationConfig pop;
  pop.users = 2;
  pop.severity = 0.0;
  const auto jobs = make_population(pop);
  for (const auto& job : jobs) EXPECT_EQ(job.user.name, "reference");
}

}  // namespace
}  // namespace origin::fleet
