// Observability layer tests: metric shards merge deterministically (the
// FleetAccumulator contract), histogram bucket edges follow the documented
// v <= bound rule, the simulator and fleet helpers fill the packed event
// record and its label codes, the sinks emit the golden JSON shapes, and
// concurrent recording into per-thread logs and metric shards is race-free
// (this suite carries the fleet/obs labels so it runs under the TSan gate:
// ctest -L obs).
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

/// The events `fill` records into a fresh log, folded into a ring.
template <typename Fill>
FlightRecorder folded(Fill fill) {
  FlightRecorder ring;
  FlightLog log;
  fill(log);
  ring.fold(log);
  return ring;
}

TEST(FlightLog, SimHelpersFillTheDocumentedFields) {
  FlightLog log;
  log.schedule(7, 3.5, 0.5, {2, 0}, 1);
  log.attempt(7, 3.5, 0.5, 2, AttemptOutcome::DiedMidway, -1, 0.0, 0.01);
  log.output(7, 3.5, 0.5, 4, 4);
  log.job(3, 0.25, 1.5, 1, "origin");
  const auto& events = log.events();
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events[0].kind, EventKind::Schedule);
  EXPECT_EQ(sensors_label(events[0].sensors), "s2,s0");
  EXPECT_EQ(events[0].track, 2);  // first planned sensor
  EXPECT_EQ(events[0].count, 1);  // fallback hops
  EXPECT_EQ(events[1].outcome,
            static_cast<std::uint8_t>(AttemptOutcome::DiedMidway));
  EXPECT_TRUE(events[2].flag);  // correct output
  EXPECT_EQ(events[2].cls, 4);
  EXPECT_EQ(events[3].kind, EventKind::Job);
  EXPECT_EQ(events[3].track, 1);  // shard
  EXPECT_STREQ(label_text(events[3].cls), "origin");
}

TEST(FlightLog, LabelCodesRoundTrip) {
  for (const std::vector<int>& sensors :
       {std::vector<int>{}, {1}, {0, 2}, {2, 1, 0}, {3, 3, 3}}) {
    std::string want;
    for (const int s : sensors) want += (want.empty() ? "s" : ",s") +
                                        std::to_string(s);
    EXPECT_EQ(sensors_label(pack_sensors(sensors)), want);
  }
  EXPECT_THROW(pack_sensors({0, 1, 2, 0}), std::invalid_argument);
  EXPECT_THROW(pack_sensors({4}), std::invalid_argument);
  EXPECT_THROW(pack_sensors({-1}), std::invalid_argument);

  // Equal strings share a code, whatever their address.
  const std::string copy = "Baseline-2";
  EXPECT_EQ(intern_label("Baseline-2"), intern_label(copy.c_str()));
  EXPECT_NE(intern_label("Baseline-2"), intern_label("aasr"));
  EXPECT_STREQ(label_text(intern_label("aasr")), "aasr");
  EXPECT_STREQ(label_text(-1), "");
  EXPECT_STREQ(label_text(1 << 20), "");
}

TEST(JsonlSink, GoldenOutput) {
  const auto rec = folded([](FlightLog& log) { log.output(0, 0.5, 0.5, 2, 2); });
  std::ostringstream os;
  JsonlSink{}.write(rec.events(), rec.dropped(), os);
  EXPECT_EQ(os.str(),
            "{\"type\":\"header\",\"events\":1,\"dropped\":0}\n"
            "{\"kind\":\"output\",\"slot\":0,\"t0_s\":0.5,\"dur_s\":0.5,"
            "\"predicted\":2,\"truth\":2,\"correct\":true}\n");
}

TEST(ChromeTraceSink, GoldenOutput) {
  const auto rec = folded([](FlightLog& log) { log.output(0, 0.5, 0.5, 2, 2); });
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
  const auto rec =
      folded([](FlightLog& log) { log.energy(0, 0.0, 1, 0.25, 0.1); });
  std::ostringstream os;
  ChromeTraceSink{}.write(rec.events(), rec.dropped(), os);
  const std::string out = os.str();
  EXPECT_NE(out.find("\"name\":\"stored_j.sensor1\""), std::string::npos);
  EXPECT_NE(out.find("\"ph\":\"C\""), std::string::npos);
}

TEST(TraceSinks, LabelsPrintAsText) {
  const auto rec = folded([](FlightLog& log) {
    log.schedule(4, 2.0, 0.5, {1, 2}, 0);
    log.job(9, 0.0, 0.25, 3, "Baseline-1");
  });
  std::ostringstream jsonl;
  JsonlSink{}.write(rec.events(), rec.dropped(), jsonl);
  EXPECT_NE(jsonl.str().find("\"sensors\":\"s1,s2\""), std::string::npos);
  EXPECT_NE(jsonl.str().find("\"label\":\"Baseline-1\""), std::string::npos);
  std::ostringstream chrome;
  ChromeTraceSink{}.write(rec.events(), rec.dropped(), chrome);
  EXPECT_NE(chrome.str().find("\"name\":\"Baseline-1\",\"ph\":\"X\""),
            std::string::npos);
  EXPECT_NE(chrome.str().find("\"sensors\":\"s1,s2\""), std::string::npos);
}

TEST(TraceMacro, NullRecorderIsANoOp) {
  FlightLog* log = nullptr;
  // Must not crash; with ORIGIN_TRACE=OFF this is compiled out entirely.
  ORIGIN_TRACE(log, output(0, 0.0, 0.5, 1, 1));
  FlightLog mine;
  log = &mine;
  ORIGIN_TRACE(log, output(1, 0.5, 0.5, 1, 1));
  if (kTraceEnabled) {
    EXPECT_EQ(mine.size(), 1u);
  } else {
    EXPECT_EQ(mine.size(), 0u);
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

// Run under TSan via the obs/fleet ctest labels: many threads intern job
// labels and record into their own logs and metric shards; the logs fold
// in thread order, and totals and order must be exact.
TEST(ObsConcurrency, ParallelRecordingIsExact) {
  static constexpr const char* kLabels[] = {"job t0", "job t1", "job t2",
                                            "job t3", "job t4", "job t5",
                                            "job t6", "job t7"};
  constexpr int kThreads = 8;
  constexpr int kPerThread = 1000;
  MetricsRegistry reg;
  const auto c = reg.add_counter("events");
  const auto h = reg.add_histogram("value", {250.0, 500.0, 750.0});
  std::vector<MetricsShard> shards;
  for (int t = 0; t < kThreads; ++t) shards.push_back(reg.make_shard());
  std::vector<FlightLog> logs(kThreads);

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const auto ti = static_cast<std::size_t>(t);
      logs[ti].job(0, 0.0, 0.0, t, kLabels[ti]);
      for (int i = 0; i < kPerThread; ++i) {
        logs[ti].output(i, static_cast<double>(i), 0.5, t, t);
        shards[ti].inc(c);
        shards[ti].observe(h, static_cast<double>(i));
      }
    });
  }
  for (auto& th : threads) th.join();

  for (std::size_t t = 0; t < logs.size(); ++t) {
    EXPECT_STREQ(label_text(logs[t].events().front().cls), kLabels[t]);
  }
  FlightRecorder ring(1024);  // forces wrap: drops must be counted exactly
  for (FlightLog& log : logs) ring.fold(log);
  EXPECT_EQ(ring.size() + ring.dropped(),
            static_cast<std::size_t>(kThreads * (kPerThread + 1)));
  // The newest 1024 events are the last thread's job span and 1000
  // outputs after the tail of the thread before it.
  const auto events = ring.events();
  EXPECT_EQ(events.front().cls, kThreads - 2);
  EXPECT_EQ(events.front().slot, kPerThread - 23);
  EXPECT_EQ(events.back().cls, kThreads - 1);
  EXPECT_EQ(events.back().slot, kPerThread - 1);
  const auto merged = merge_in_order(shards);
  EXPECT_EQ(merged.counter(c),
            static_cast<std::uint64_t>(kThreads * kPerThread));
  EXPECT_EQ(merged.histogram(h).count,
            static_cast<std::uint64_t>(kThreads * kPerThread));
}

}  // namespace
}  // namespace origin::obs
