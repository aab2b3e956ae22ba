// Observability layer tests: metric shards merge deterministically (the
// FleetAccumulator contract), histogram bucket edges follow the documented
// v <= bound rule, the trace ring buffer wraps with an exact drop count,
// the sinks emit the golden JSON shapes, and concurrent recording into one
// recorder / many shards is race-free (this suite carries the fleet/obs
// labels so it runs under the TSan gate: ctest -L obs).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "obs/json.hpp"
#include "obs/manifest.hpp"
#include "obs/metrics.hpp"
#include "obs/prometheus.hpp"
#include "obs/trace.hpp"

namespace origin::obs {
namespace {

/// `prefix` followed by `i`, built by appending: GCC 12 misreads the
/// insert that `"m" + std::to_string(i)` compiles to as an overlapping
/// copy (-Wrestrict).
std::string numbered(const char* prefix, int i) {
  std::string s = prefix;
  s += std::to_string(i);
  return s;
}

// ----------------------------------------------------------------- metrics

TEST(MetricsRegistry, SchemaAndLookup) {
  MetricsRegistry reg;
  const auto c = reg.add_counter("jobs");
  const auto g = reg.add_gauge("depth");
  const auto h = reg.add_histogram("latency", {1.0, 2.0, 4.0}, false);
  EXPECT_EQ(reg.defs().size(), 3u);
  EXPECT_EQ(reg.find("jobs"), c);
  EXPECT_EQ(reg.find("depth"), g);
  EXPECT_EQ(reg.find("latency"), h);
  EXPECT_THROW(reg.find("missing"), std::out_of_range);
  EXPECT_TRUE(reg.defs()[c].deterministic);   // counter default
  EXPECT_FALSE(reg.defs()[g].deterministic);  // gauge default
}

TEST(MetricsRegistry, RejectsBadHistogramBounds) {
  MetricsRegistry reg;
  EXPECT_THROW(reg.add_histogram("h", {}), std::invalid_argument);
  EXPECT_THROW(reg.add_histogram("h", {2.0, 1.0}), std::invalid_argument);
  EXPECT_THROW(reg.add_histogram("h", {1.0, 1.0}), std::invalid_argument);
}

TEST(MetricsRegistry, BoundsGenerators) {
  const auto exp = MetricsRegistry::exponential_bounds(1.0, 2.0, 4);
  ASSERT_EQ(exp.size(), 4u);
  EXPECT_DOUBLE_EQ(exp[0], 1.0);
  EXPECT_DOUBLE_EQ(exp[3], 8.0);
  const auto lin = MetricsRegistry::linear_bounds(5.0, 5.0, 20);
  ASSERT_EQ(lin.size(), 20u);
  EXPECT_DOUBLE_EQ(lin[0], 5.0);
  EXPECT_DOUBLE_EQ(lin[19], 100.0);
}

TEST(MetricsShard, KindMismatchThrows) {
  MetricsRegistry reg;
  const auto c = reg.add_counter("c");
  const auto g = reg.add_gauge("g");
  auto shard = reg.make_shard();
  EXPECT_THROW(shard.observe(c, 1.0), std::logic_error);
  EXPECT_THROW(shard.inc(g), std::logic_error);
  EXPECT_THROW(shard.set(c, 1.0), std::logic_error);
}

// A value lands in the first bucket with v <= bound; above the last finite
// bound it lands in the implicit +inf bucket.
TEST(MetricsShard, HistogramBucketEdges) {
  MetricsRegistry reg;
  const auto h = reg.add_histogram("h", {1.0, 2.0, 4.0});
  auto shard = reg.make_shard();
  shard.observe(h, 0.5);   // bucket 0
  shard.observe(h, 1.0);   // bucket 0 (boundary is inclusive)
  shard.observe(h, 1.5);   // bucket 1
  shard.observe(h, 4.0);   // bucket 2
  shard.observe(h, 4.001); // +inf bucket
  const HistogramCell& cell = shard.histogram(h);
  ASSERT_EQ(cell.buckets.size(), 4u);
  EXPECT_EQ(cell.buckets[0], 2u);
  EXPECT_EQ(cell.buckets[1], 1u);
  EXPECT_EQ(cell.buckets[2], 1u);
  EXPECT_EQ(cell.buckets[3], 1u);
  EXPECT_EQ(cell.count, 5u);
  EXPECT_DOUBLE_EQ(cell.min, 0.5);
  EXPECT_DOUBLE_EQ(cell.max, 4.001);
  EXPECT_DOUBLE_EQ(cell.sum, 0.5 + 1.0 + 1.5 + 4.0 + 4.001);
}

TEST(MetricsShard, MergeIsCommutativeForCountersAndHistograms) {
  MetricsRegistry reg;
  const auto c = reg.add_counter("c");
  const auto h = reg.add_histogram("h", {1.0, 2.0});
  auto a = reg.make_shard();
  auto b = reg.make_shard();
  a.inc(c, 3);
  a.observe(h, 0.5);
  a.observe(h, 1.5);
  b.inc(c, 4);
  b.observe(h, 3.0);

  auto ab = reg.make_shard();
  ab.merge(a);
  ab.merge(b);
  auto ba = reg.make_shard();
  ba.merge(b);
  ba.merge(a);

  EXPECT_EQ(ab.counter(c), 7u);
  EXPECT_EQ(ba.counter(c), ab.counter(c));
  EXPECT_EQ(ab.histogram(h).buckets, ba.histogram(h).buckets);
  EXPECT_EQ(ab.histogram(h).count, ba.histogram(h).count);
  EXPECT_DOUBLE_EQ(ab.histogram(h).min, ba.histogram(h).min);
  EXPECT_DOUBLE_EQ(ab.histogram(h).max, ba.histogram(h).max);
}

TEST(MetricsShard, GaugeLaterSetWinsAndSetMax) {
  MetricsRegistry reg;
  const auto g = reg.add_gauge("g");
  auto a = reg.make_shard();
  auto b = reg.make_shard();
  a.set(g, 1.0);
  b.set(g, 2.0);
  // Shard-index order: b is later, so its set wins the fold.
  const auto merged = merge_in_order({a, b});
  EXPECT_DOUBLE_EQ(merged.gauge(g).value, 2.0);
  // An unset shard must not clobber a set one.
  const auto merged2 = merge_in_order({a, reg.make_shard()});
  EXPECT_DOUBLE_EQ(merged2.gauge(g).value, 1.0);

  auto m = reg.make_shard();
  m.set_max(g, 3.0);
  m.set_max(g, 1.0);
  EXPECT_DOUBLE_EQ(m.gauge(g).value, 3.0);
}

// The fleet determinism contract in miniature: the same recordings split
// across shard layouts fold to bit-identical deterministic metrics.
TEST(MetricsShard, ShardLayoutInvariance) {
  MetricsRegistry reg;
  const auto c = reg.add_counter("c");
  const auto h = reg.add_histogram("h", {10.0, 20.0, 30.0});
  const std::vector<double> values = {3.0, 17.0, 25.0, 8.0, 40.0, 12.0};

  // Layout A: one shard per value; layout B: two shards of three.
  std::vector<MetricsShard> a, b;
  for (std::size_t i = 0; i < values.size(); ++i) {
    a.push_back(reg.make_shard());
    a.back().inc(c);
    a.back().observe(h, values[i]);
  }
  for (std::size_t s = 0; s < 2; ++s) {
    b.push_back(reg.make_shard());
    for (std::size_t i = 3 * s; i < 3 * (s + 1); ++i) {
      b.back().inc(c);
      b.back().observe(h, values[i]);
    }
  }
  const auto sa = snapshot(reg, merge_in_order(a));
  const auto sb = snapshot(reg, merge_in_order(b));
  EXPECT_TRUE(MetricsSnapshot::deterministic_equal(sa, sb));
  EXPECT_EQ(sa.to_json(), sb.to_json());
}

TEST(MetricsSnapshot, DeterministicEqualIgnoresWallClockMetrics) {
  MetricsRegistry reg;
  const auto c = reg.add_counter("jobs");
  const auto w = reg.add_histogram("seconds", {1.0}, false);
  auto a = reg.make_shard();
  auto b = reg.make_shard();
  a.inc(c, 5);
  a.observe(w, 0.5);
  b.inc(c, 5);
  b.observe(w, 2.0);  // different wall-clock observation
  const auto sa = snapshot(reg, a);
  const auto sb = snapshot(reg, b);
  EXPECT_TRUE(MetricsSnapshot::deterministic_equal(sa, sb));

  b.inc(c);  // now a deterministic counter diverges
  EXPECT_FALSE(
      MetricsSnapshot::deterministic_equal(sa, snapshot(reg, b)));
}

TEST(MetricsSnapshot, JsonContainsEveryMetric) {
  MetricsRegistry reg;
  reg.add_counter("fleet.jobs");
  reg.add_gauge("pool.depth");
  reg.add_histogram("fleet.job_seconds", {1.0, 2.0}, false);
  auto shard = reg.make_shard();
  shard.inc(reg.find("fleet.jobs"), 2);
  const std::string json = snapshot(reg, shard).to_json();
  EXPECT_NE(json.find("\"fleet.jobs\""), std::string::npos);
  EXPECT_NE(json.find("\"pool.depth\""), std::string::npos);
  EXPECT_NE(json.find("\"fleet.job_seconds\""), std::string::npos);
}

// --------------------------------------------------------------- quantiles

TEST(HistogramQuantile, EmptyHistogramReturnsZero) {
  const HistogramCell cell{.buckets = {0, 0, 0}, .count = 0};
  const std::vector<double> bounds = {1.0, 2.0};
  EXPECT_DOUBLE_EQ(histogram_quantile(cell, bounds, 0.5), 0.0);
  EXPECT_DOUBLE_EQ(histogram_quantile(cell, bounds, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(histogram_quantile(cell, bounds, 1.0), 0.0);
}

TEST(HistogramQuantile, AllInInfBucketClampsToObservedMax) {
  MetricsRegistry reg;
  const auto h = reg.add_histogram("h", {1.0, 2.0});
  auto shard = reg.make_shard();
  shard.observe(h, 10.0);
  shard.observe(h, 20.0);
  shard.observe(h, 30.0);
  const HistogramCell& cell = shard.histogram(h);
  for (double q : {0.01, 0.5, 0.99}) {
    EXPECT_DOUBLE_EQ(histogram_quantile(cell, {1.0, 2.0}, q), 30.0) << q;
  }
}

TEST(HistogramQuantile, SingleBucketInterpolatesFromZero) {
  MetricsRegistry reg;
  const auto h = reg.add_histogram("h", {8.0});
  auto shard = reg.make_shard();
  for (int i = 0; i < 4; ++i) shard.observe(h, 1.0);
  const HistogramCell& cell = shard.histogram(h);
  // All mass in [0, 8]: the estimate interpolates linearly across it.
  EXPECT_DOUBLE_EQ(histogram_quantile(cell, {8.0}, 0.5), 4.0);
  EXPECT_DOUBLE_EQ(histogram_quantile(cell, {8.0}, 0.25), 2.0);
}

TEST(HistogramQuantile, ExactBoundaryAndClampedExtremes) {
  MetricsRegistry reg;
  const auto h = reg.add_histogram("h", {1.0, 2.0, 4.0});
  auto shard = reg.make_shard();
  shard.observe(h, 0.5);
  shard.observe(h, 1.0);  // boundary value lands in bucket 0 (v <= bound)
  shard.observe(h, 1.5);
  shard.observe(h, 3.0);
  const HistogramCell& cell = shard.histogram(h);
  // rank(0.5) = 2 falls exactly on bucket 0's cumulative edge: the
  // estimate is that bucket's upper bound, not bucket 1 territory.
  EXPECT_DOUBLE_EQ(histogram_quantile(cell, {1.0, 2.0, 4.0}, 0.5), 1.0);
  // q <= 0 / q >= 1 clamp to the observed extremes, not bucket edges.
  EXPECT_DOUBLE_EQ(histogram_quantile(cell, {1.0, 2.0, 4.0}, 0.0), 0.5);
  EXPECT_DOUBLE_EQ(histogram_quantile(cell, {1.0, 2.0, 4.0}, -1.0), 0.5);
  EXPECT_DOUBLE_EQ(histogram_quantile(cell, {1.0, 2.0, 4.0}, 1.0), 3.0);
  EXPECT_DOUBLE_EQ(histogram_quantile(cell, {1.0, 2.0, 4.0}, 2.0), 3.0);
}

TEST(HistogramQuantile, BatchFormMatchesSingleCalls) {
  MetricsRegistry reg;
  const auto h = reg.add_histogram("h", {1.0, 2.0, 4.0, 8.0});
  auto shard = reg.make_shard();
  for (double v : {0.2, 0.9, 1.7, 3.1, 5.0, 7.7, 12.0}) shard.observe(h, v);
  const HistogramCell& cell = shard.histogram(h);
  const std::vector<double> bounds = {1.0, 2.0, 4.0, 8.0};
  const std::vector<double> qs = {0.0, 0.5, 0.95, 0.99, 1.0};
  const auto batch = histogram_quantiles(cell, bounds, qs);
  ASSERT_EQ(batch.size(), qs.size());
  for (std::size_t i = 0; i < qs.size(); ++i) {
    EXPECT_DOUBLE_EQ(batch[i], histogram_quantile(cell, bounds, qs[i])) << i;
  }
  EXPECT_TRUE(histogram_quantiles(cell, bounds, {}).empty());
}

// ------------------------------------------------------------- prometheus

TEST(Prometheus, ExposesCountersGaugesAndHistograms) {
  MetricsRegistry reg;
  const auto c = reg.add_counter("serve.slots.served");
  const auto g = reg.add_gauge("pool.depth");
  const auto unset = reg.add_gauge("pool.idle");
  const auto h = reg.add_histogram("serve.step_seconds", {0.5, 1.0});
  auto shard = reg.make_shard();
  shard.inc(c, 42);
  shard.set(g, 3.0);
  (void)unset;
  shard.observe(h, 0.25);
  shard.observe(h, 0.75);
  shard.observe(h, 9.0);
  const std::string text = prometheus_text(snapshot(reg, shard));

  // Counters: sanitized name + _total suffix.
  EXPECT_NE(text.find("# TYPE serve_slots_served_total counter\n"
                      "serve_slots_served_total 42\n"),
            std::string::npos);
  // Gauges: set ones exposed, unset ones skipped entirely.
  EXPECT_NE(text.find("# TYPE pool_depth gauge\npool_depth 3\n"),
            std::string::npos);
  EXPECT_EQ(text.find("pool_idle"), std::string::npos);
  // Histograms: cumulative buckets ending at +Inf == _count, plus
  // _sum/_count.
  EXPECT_NE(text.find("serve_step_seconds_bucket{le=\"0.5\"} 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("serve_step_seconds_bucket{le=\"1\"} 2\n"),
            std::string::npos);
  EXPECT_NE(text.find("serve_step_seconds_bucket{le=\"+Inf\"} 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("serve_step_seconds_sum 10\n"), std::string::npos);
  EXPECT_NE(text.find("serve_step_seconds_count 3\n"), std::string::npos);
}

TEST(Prometheus, TextFormatIsStructurallyValid) {
  // Every non-comment line must be `name{labels} value` or `name value`
  // with a sanitized metric name — the shape a scraper parses.
  MetricsRegistry reg;
  reg.add_counter("serve.sessions.admitted");
  reg.add_histogram("fleet.job-seconds", {1e-3, 1e-2});
  auto shard = reg.make_shard();
  shard.inc(reg.find("serve.sessions.admitted"), 7);
  shard.observe(reg.find("fleet.job-seconds"), 5e-3);
  const std::string text = prometheus_text(snapshot(reg, shard));
  ASSERT_FALSE(text.empty());
  EXPECT_EQ(text.back(), '\n');
  std::istringstream is(text);
  std::string line;
  while (std::getline(is, line)) {
    ASSERT_FALSE(line.empty());
    if (line[0] == '#') {
      EXPECT_EQ(line.rfind("# TYPE ", 0), 0u) << line;
      continue;
    }
    const auto space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    const std::string name = line.substr(0, space);
    for (char ch : name.substr(0, name.find('{'))) {
      const bool ok = (ch >= 'a' && ch <= 'z') || (ch >= 'A' && ch <= 'Z') ||
                      (ch >= '0' && ch <= '9') || ch == '_' || ch == ':';
      EXPECT_TRUE(ok) << "bad metric-name char '" << ch << "' in " << line;
    }
    // The value must parse as a number.
    EXPECT_NO_THROW(std::stod(line.substr(space + 1))) << line;
  }
}

// ------------------------------------------------------------------- trace

TEST(TraceRecorder, RingBufferWrapsWithDropCount) {
  TraceRecorder rec(4);
  for (int i = 0; i < 6; ++i) {
    rec.mark(static_cast<double>(i), numbered("m", i));
  }
  EXPECT_EQ(rec.size(), 4u);
  EXPECT_EQ(rec.capacity(), 4u);
  EXPECT_EQ(rec.dropped(), 2u);
  const auto events = rec.events();
  ASSERT_EQ(events.size(), 4u);
  // Oldest two were overwritten; survivors come back oldest-first.
  EXPECT_EQ(events.front().label, "m2");
  EXPECT_EQ(events.back().label, "m5");
  rec.clear();
  EXPECT_EQ(rec.size(), 0u);
  EXPECT_EQ(rec.dropped(), 0u);
}

TEST(TraceRecorder, TypedHelpersFillTheDocumentedFields) {
  TraceRecorder rec;
  rec.schedule(7, 3.5, 0.5, {2, 0}, 1);
  rec.attempt(7, 3.5, 0.5, 2, AttemptOutcome::DiedMidway, -1, 0.0, 0.01);
  rec.output(7, 3.5, 0.5, 4, 4);
  const auto events = rec.events();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].kind, EventKind::Schedule);
  EXPECT_EQ(events[0].label, "s2,s0");
  EXPECT_EQ(events[0].count, 1);  // fallback hops
  EXPECT_EQ(events[1].outcome,
            static_cast<std::uint8_t>(AttemptOutcome::DiedMidway));
  EXPECT_TRUE(events[2].flag);  // correct output
  EXPECT_EQ(events[2].cls, 4);
}

TEST(JsonlSink, GoldenOutput) {
  TraceRecorder rec;
  rec.output(0, 0.5, 0.5, 2, 2);
  std::ostringstream os;
  JsonlSink{}.write(rec.events(), rec.dropped(), os);
  EXPECT_EQ(os.str(),
            "{\"type\":\"header\",\"events\":1,\"dropped\":0}\n"
            "{\"kind\":\"output\",\"slot\":0,\"t0_s\":0.5,\"dur_s\":0.5,"
            "\"predicted\":2,\"truth\":2,\"correct\":true}\n");
}

TEST(ChromeTraceSink, GoldenOutput) {
  TraceRecorder rec;
  rec.output(0, 0.5, 0.5, 2, 2);
  std::ostringstream os;
  ChromeTraceSink{}.write(rec.events(), rec.dropped(), os);
  EXPECT_EQ(
      os.str(),
      "{\"displayTimeUnit\":\"ms\",\"origin_dropped_events\":0,"
      "\"traceEvents\":["
      "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,"
      "\"args\":{\"name\":\"simulator\"}},"
      "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":102,"
      "\"args\":{\"name\":\"output\"}},"
      "{\"name\":\"correct\",\"ph\":\"X\",\"pid\":1,\"tid\":102,"
      "\"ts\":500000,\"dur\":500000,"
      "\"args\":{\"slot\":0,\"predicted\":2,\"truth\":2}}"
      "]}\n");
}

TEST(ChromeTraceSink, EnergyBecomesCounterSeries) {
  TraceRecorder rec;
  rec.energy(0, 0.0, 1, 0.25, 0.1);
  std::ostringstream os;
  ChromeTraceSink{}.write(rec.events(), rec.dropped(), os);
  const std::string out = os.str();
  EXPECT_NE(out.find("\"name\":\"stored_j.sensor1\""), std::string::npos);
  EXPECT_NE(out.find("\"ph\":\"C\""), std::string::npos);
}

TEST(TraceMacro, NullRecorderIsANoOp) {
  TraceRecorder* recorder = nullptr;
  // Must not crash; with ORIGIN_TRACE=OFF this is compiled out entirely.
  ORIGIN_TRACE(recorder, mark(0.0, "never"));
  TraceRecorder rec;
  recorder = &rec;
  ORIGIN_TRACE(recorder, mark(1.0, "once"));
  if (kTraceEnabled) {
    EXPECT_EQ(rec.size(), 1u);
  } else {
    EXPECT_EQ(rec.size(), 0u);
  }
}

// ---------------------------------------------------------------- manifest

TEST(RunManifest, CapturesBuildInfoAndParams) {
  RunManifest m("test_tool");
  m.set("seed", std::uint64_t{42});
  m.set("seed", std::uint64_t{43});  // dedupe by key: last write wins
  m.set("policy", "origin");
  m.set_wall_seconds(1.5);
  const std::string json = m.to_json();
  EXPECT_NE(json.find("\"tool\":\"test_tool\""), std::string::npos);
  EXPECT_NE(json.find("\"git_describe\""), std::string::npos);
  EXPECT_NE(json.find("\"policy\":\"origin\""), std::string::npos);
  EXPECT_NE(json.find("\"seed\":\"43\""), std::string::npos);
  EXPECT_EQ(json.find("\"seed\":\"42\""), std::string::npos);

  // Metrics splice stays a single valid object with a "metrics" key.
  MetricsRegistry reg;
  reg.add_counter("c");
  const auto snap = snapshot(reg, reg.make_shard());
  const std::string with_metrics = m.to_json(&snap);
  EXPECT_NE(with_metrics.find("\"metrics\":"), std::string::npos);
  EXPECT_EQ(with_metrics.back(), '}');
}

TEST(BuildInfo, GitDescribeMatchesTheCheckout) {
  // The stamp is taken at build time, so a build tree reused across
  // commits (or across a clean/dirty change) reports the tree it built.
  const std::string command =
      "git -C \"" ORIGIN_SOURCE_DIR "\" describe --always --dirty --tags "
      "2>/dev/null";
  FILE* pipe = popen(command.c_str(), "r");
  if (pipe == nullptr) GTEST_SKIP() << "cannot run git";
  std::string describe;
  char buf[256];
  while (std::fgets(buf, sizeof buf, pipe) != nullptr) describe += buf;
  if (pclose(pipe) != 0 || describe.empty()) {
    GTEST_SKIP() << "git absent, or the source tree is not a checkout";
  }
  while (!describe.empty() && describe.back() == '\n') describe.pop_back();
  EXPECT_EQ(build_info().git_describe, describe);
}

// -------------------------------------------------------------- concurrency

// Run under TSan via the obs/fleet ctest labels: many threads hammer one
// recorder and private metric shards; totals must be exact.
TEST(ObsConcurrency, ParallelRecordingIsExact) {
  constexpr int kThreads = 8;
  constexpr int kPerThread = 1000;
  TraceRecorder rec(1024);  // forces wrap: drops must be counted exactly
  MetricsRegistry reg;
  const auto c = reg.add_counter("events");
  const auto h = reg.add_histogram("value", {250.0, 500.0, 750.0});
  std::vector<MetricsShard> shards;
  for (int t = 0; t < kThreads; ++t) shards.push_back(reg.make_shard());

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        rec.mark(static_cast<double>(i), numbered("t", t));
        shards[static_cast<std::size_t>(t)].inc(c);
        shards[static_cast<std::size_t>(t)].observe(
            h, static_cast<double>(i));
      }
    });
  }
  for (auto& th : threads) th.join();

  EXPECT_EQ(rec.size() + rec.dropped(),
            static_cast<std::size_t>(kThreads * kPerThread));
  const auto merged = merge_in_order(shards);
  EXPECT_EQ(merged.counter(c),
            static_cast<std::uint64_t>(kThreads * kPerThread));
  EXPECT_EQ(merged.histogram(h).count,
            static_cast<std::uint64_t>(kThreads * kPerThread));
}

}  // namespace
}  // namespace origin::obs
