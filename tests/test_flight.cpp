// Serve-tier flight recorder: typed event construction, bounded-ring
// wrap, and the determinism contract — the folded event stream of a
// served run is bit-identical at any thread count (at fixed tick
// chunking), and the HTTP routes expose it in both formats. The suite
// stays meaningful under -DORIGIN_TRACE=OFF: unit cases always run (the
// classes stay functional), end-to-end cases flip to asserting that
// recording is compiled out.
#include "obs/flight_recorder.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <sstream>
#include <type_traits>
#include <vector>

#include "obs/prometheus.hpp"
#include "serve/endpoint.hpp"
#include "serve/serve_loop.hpp"
#include "util/rng.hpp"

namespace origin::serve {
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

class FlightServeTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    sim::ExperimentConfig cfg;
    cfg.pipeline = micro_pipeline();
    cfg.stream_slots = 60;
    experiment_ = new sim::Experiment(cfg);
  }
  static void TearDownTestSuite() {
    delete experiment_;
    experiment_ = nullptr;
  }

  static ServeConfig small_config() {
    ServeConfig cfg;
    cfg.users = 6;
    cfg.arrival_rate_hz = 2.0;
    cfg.shards = 3;
    cfg.policy = sim::PolicyKind::Origin;
    return cfg;
  }

  static std::vector<obs::TraceEvent> drain_flight(unsigned threads) {
    ServeConfig cfg = small_config();
    cfg.threads = threads;
    ServeLoop loop(*experiment_, cfg);
    // Fixed chunk: the fold boundaries (and so the stream) depend on tick
    // chunking, which is part of the workload — never on threads.
    loop.drain(/*chunk=*/8);
    return loop.flight_events();
  }

  static sim::Experiment* experiment_;
};

sim::Experiment* FlightServeTest::experiment_ = nullptr;

TEST(FlightLog, TypedHelpersFillTheAgreedFields) {
  obs::FlightLog log;
  log.admit(7, 2, 1.5, 3, 60);
  log.step(7, 2, 2.0, 0.5, 4, 1, 1, 0.123, 0.01);
  log.step(7, 2, 2.5, 0.5, 5, 0, 2, 0.2, 0.02);
  log.hop(7, 2, 2.0, 4, 3);
  log.nvp_save(7, 2, 2.0, 4, 1, 2);
  log.nvp_restore(7, 2, 2.0, 4, 0, 1);
  log.session_end(7, 2, 30.0, 60, 60, 0.75, 88.5, true);
  ASSERT_EQ(log.size(), 7u);

  const auto& e = log.events();
  EXPECT_EQ(e[0].kind, obs::EventKind::Admit);
  EXPECT_EQ(e[0].session, 7);
  EXPECT_EQ(e[0].track, 2);
  EXPECT_EQ(e[0].slot, 3);     // arrival tick
  EXPECT_EQ(e[0].count, 60);   // slots total

  EXPECT_EQ(e[1].kind, obs::EventKind::Step);
  EXPECT_EQ(e[1].cls, 1);      // predicted
  EXPECT_EQ(e[1].count, 1);    // truth
  EXPECT_TRUE(e[1].flag);      // correct
  EXPECT_DOUBLE_EQ(e[1].value, 0.123);  // stored total J
  EXPECT_DOUBLE_EQ(e[1].aux, 0.01);     // stored min J
  EXPECT_FALSE(e[2].flag);     // predicted 0 != truth 2

  EXPECT_EQ(e[3].kind, obs::EventKind::Hop);
  EXPECT_EQ(e[3].count, 3);

  EXPECT_EQ(e[4].kind, obs::EventKind::NvpSave);
  EXPECT_EQ(e[4].cls, 1);      // sensor
  EXPECT_EQ(e[4].count, 2);    // checkpoints this slot
  EXPECT_EQ(e[5].kind, obs::EventKind::NvpRestore);

  EXPECT_EQ(e[6].kind, obs::EventKind::SessionEnd);
  EXPECT_EQ(e[6].slot, 60);    // completed tick
  EXPECT_DOUBLE_EQ(e[6].value, 0.75);
  EXPECT_DOUBLE_EQ(e[6].aux, 88.5);
  EXPECT_TRUE(e[6].flag);

  log.clear();
  EXPECT_EQ(log.size(), 0u);
}

TEST(FlightRecorder, FoldAppendsAndClearsInOrder) {
  obs::FlightRecorder rec(16);
  obs::FlightLog a, b;
  a.step(0, 0, 0.0, 0.5, 0, 1, 1, 0.1, 0.01);
  a.step(0, 0, 0.5, 0.5, 1, 1, 1, 0.1, 0.01);
  b.step(1, 1, 0.0, 0.5, 0, 2, 2, 0.2, 0.02);
  rec.fold(a);
  rec.fold(b);
  EXPECT_EQ(a.size(), 0u);
  EXPECT_EQ(b.size(), 0u);
  const auto events = rec.events();
  ASSERT_EQ(events.size(), 3u);
  // Shard 0's events precede shard 1's — the fold order is the caller's.
  EXPECT_EQ(events[0].session, 0);
  EXPECT_EQ(events[1].session, 0);
  EXPECT_EQ(events[2].session, 1);
  EXPECT_EQ(rec.dropped(), 0u);
}

TEST(FlightRecorder, RingWrapDropsOldestAndCounts) {
  obs::FlightRecorder rec(4);
  obs::FlightLog log;
  for (int i = 0; i < 10; ++i) {
    log.step(/*session=*/i, 0, 0.0, 0.5, i, 1, 1, 0.1, 0.01);
  }
  rec.fold(log);
  EXPECT_EQ(rec.size(), 4u);
  EXPECT_EQ(rec.capacity(), 4u);
  EXPECT_EQ(rec.dropped(), 6u);
  const auto events = rec.events();
  ASSERT_EQ(events.size(), 4u);
  // The newest four survive, oldest first.
  EXPECT_EQ(events.front().session, 6);
  EXPECT_EQ(events.back().session, 9);

  EXPECT_EQ(rec.recent(2).size(), 2u);
  EXPECT_EQ(rec.recent(2).front().session, 8);
  EXPECT_EQ(rec.recent(99).size(), 4u);

  rec.clear();
  EXPECT_EQ(rec.size(), 0u);
  EXPECT_EQ(rec.dropped(), 0u);
}

TEST(FlightRecorder, SessionQueryFiltersById) {
  obs::FlightRecorder rec(16);
  obs::FlightLog log;
  log.admit(3, 0, 0.0, 0, 60);
  log.step(3, 0, 0.0, 0.5, 0, 1, 1, 0.1, 0.01);
  log.step(5, 0, 0.0, 0.5, 0, 2, 2, 0.2, 0.02);
  log.session_end(3, 0, 30.0, 59, 60, 0.8, 90.0, true);
  rec.fold(log);
  const auto three = rec.session(3);
  ASSERT_EQ(three.size(), 3u);
  EXPECT_EQ(three[0].kind, obs::EventKind::Admit);
  EXPECT_EQ(three[2].kind, obs::EventKind::SessionEnd);
  EXPECT_EQ(rec.session(5).size(), 1u);
  EXPECT_TRUE(rec.session(42).empty());
}

TEST(FlightRecorder, ZeroCapacityClampsToOne) {
  obs::FlightRecorder rec(0);
  EXPECT_EQ(rec.capacity(), 1u);
  obs::FlightLog log;
  log.step(0, 0, 0.0, 0.5, 0, 1, 1, 0.1, 0.01);
  log.step(1, 0, 0.5, 0.5, 1, 1, 1, 0.1, 0.01);
  rec.fold(log);
  EXPECT_EQ(rec.size(), 1u);
  EXPECT_EQ(rec.events().front().session, 1);
}

static_assert(std::is_trivially_copyable_v<obs::FlightRecord>);
static_assert(sizeof(obs::FlightRecord) <= 64);

/// Appends one random event of a random flight kind to `log` and the
/// TraceEvent it must read back as to `expected`, filled field by field
/// as the recorder's deque-of-TraceEvent ring used to store it.
void append_random_event(util::Rng& rng, obs::FlightLog& log,
                         std::vector<obs::TraceEvent>& expected) {
  obs::TraceEvent e;
  e.session = rng.uniform_int(0, 7);
  e.track = static_cast<int>(rng.uniform_int(0, 7));
  e.t0_s = rng.uniform(0.0, 1e4);
  e.slot = rng.uniform_int(0, 1 << 20);
  switch (rng.uniform_int(0, 5)) {
    case 0:
      e.kind = obs::EventKind::Admit;
      e.count = static_cast<int>(rng.uniform_int(1, 400));
      log.admit(e.session, e.track, e.t0_s, e.slot, e.count);
      break;
    case 1:
      e.kind = obs::EventKind::Step;
      e.dur_s = rng.uniform(0.0, 1.0);
      e.cls = static_cast<int>(rng.uniform_int(0, 11));
      e.count = static_cast<int>(rng.uniform_int(0, 11));
      e.flag = e.cls == e.count;
      e.value = rng.uniform(0.0, 0.5);
      e.aux = rng.uniform(0.0, 0.1);
      log.step(e.session, e.track, e.t0_s, e.dur_s, e.slot, e.cls, e.count,
               e.value, e.aux);
      break;
    case 2:
      e.kind = obs::EventKind::Hop;
      e.count = static_cast<int>(rng.uniform_int(1, 3));
      log.hop(e.session, e.track, e.t0_s, e.slot, e.count);
      break;
    case 3:
      e.kind = obs::EventKind::NvpSave;
      e.cls = static_cast<int>(rng.uniform_int(0, 2));
      e.count = static_cast<int>(rng.uniform_int(1, 4));
      log.nvp_save(e.session, e.track, e.t0_s, e.slot, e.cls, e.count);
      break;
    case 4:
      e.kind = obs::EventKind::NvpRestore;
      e.cls = static_cast<int>(rng.uniform_int(0, 2));
      e.count = static_cast<int>(rng.uniform_int(1, 4));
      log.nvp_restore(e.session, e.track, e.t0_s, e.slot, e.cls, e.count);
      break;
    default:
      e.kind = obs::EventKind::SessionEnd;
      e.count = static_cast<int>(rng.uniform_int(1, 400));
      e.value = rng.uniform(0.0, 1.0);
      e.aux = rng.uniform(0.0, 100.0);
      e.flag = rng.bernoulli(0.5);
      log.session_end(e.session, e.track, e.t0_s, e.slot, e.count, e.value,
                      e.aux, e.flag);
      break;
  }
  expected.push_back(e);
}

TEST(FlightRecorder, PackedRingMatchesDequeOracle) {
  // The packed ring against the std::deque<TraceEvent> ring it replaced,
  // over seeded streams folded in rounds of random size: wrap-around,
  // drop counts and all three queries agree after every fold.
  for (const std::size_t capacity :
       {std::size_t{1}, std::size_t{3}, std::size_t{1} << 15}) {
    for (const std::uint64_t seed : {1u, 2u, 3u}) {
      SCOPED_TRACE(::testing::Message()
                   << "capacity " << capacity << " seed " << seed);
      util::Rng rng(seed);
      obs::FlightRecorder rec(capacity);
      std::deque<obs::TraceEvent> oracle;
      std::uint64_t oracle_dropped = 0;
      // About 1.3 times the capacity, so every ring wraps.
      const std::size_t total = capacity + capacity / 3 + 5;
      std::size_t appended = 0;
      while (appended < total) {
        obs::FlightLog log;
        std::vector<obs::TraceEvent> expected;
        const auto round = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(capacity / 4 + 2)));
        for (std::size_t i = 0; i < round; ++i) {
          append_random_event(rng, log, expected);
        }
        appended += round;
        rec.fold(log);
        EXPECT_EQ(log.size(), 0u);
        for (const obs::TraceEvent& e : expected) {
          if (oracle.size() == capacity) {
            oracle.pop_front();
            ++oracle_dropped;
          }
          oracle.push_back(e);
        }

        ASSERT_EQ(rec.size(), oracle.size());
        ASSERT_EQ(rec.dropped(), oracle_dropped);
        const std::vector<obs::TraceEvent> all(oracle.begin(), oracle.end());
        ASSERT_EQ(rec.events(), all);
        for (const std::size_t n :
             {std::size_t{0}, std::size_t{1}, oracle.size() / 2, oracle.size(),
              oracle.size() + 7}) {
          const std::size_t take = std::min(n, oracle.size());
          const std::vector<obs::TraceEvent> tail(
              oracle.end() - static_cast<std::ptrdiff_t>(take), oracle.end());
          ASSERT_EQ(rec.recent(n), tail) << "n " << n;
        }
        for (const std::uint64_t id : {0u, 5u, 99u}) {
          std::vector<obs::TraceEvent> mine;
          for (const obs::TraceEvent& e : oracle) {
            if (e.session == static_cast<std::int64_t>(id)) mine.push_back(e);
          }
          ASSERT_EQ(rec.session(id), mine) << "session " << id;
        }
      }
      EXPECT_GT(oracle_dropped, 0u);
      rec.clear();
      EXPECT_EQ(rec.size(), 0u);
      EXPECT_EQ(rec.dropped(), 0u);
      EXPECT_TRUE(rec.events().empty());
    }
  }
}

TEST_F(FlightServeTest, StreamBitIdenticalAcrossThreadCounts) {
  const auto reference = drain_flight(1);
  if (!obs::kTraceEnabled) {
    EXPECT_TRUE(reference.empty());
    return;
  }
  ASSERT_FALSE(reference.empty());
  for (unsigned threads : {2u, 8u}) {
    const auto events = drain_flight(threads);
    ASSERT_EQ(events.size(), reference.size()) << "threads=" << threads;
    for (std::size_t i = 0; i < events.size(); ++i) {
      ASSERT_EQ(events[i], reference[i])
          << "event " << i << " diverges at threads=" << threads;
    }
  }
}

TEST_F(FlightServeTest, StreamCoversTheSessionLifecycle) {
  ServeConfig cfg = small_config();
  ServeLoop loop(*experiment_, cfg);
  loop.drain(8);
  if (!obs::kTraceEnabled) {
    EXPECT_FALSE(loop.flight_enabled());
    EXPECT_TRUE(loop.flight_events().empty());
    return;
  }
  ASSERT_TRUE(loop.flight_enabled());

  std::size_t admits = 0, steps = 0, ends = 0;
  for (const auto& e : loop.flight_events()) {
    switch (e.kind) {
      case obs::EventKind::Admit: ++admits; break;
      case obs::EventKind::Step: ++steps; break;
      case obs::EventKind::SessionEnd: ++ends; break;
      default: break;
    }
  }
  // Every admitted session admits once, steps its whole stream, ends once.
  EXPECT_EQ(admits, cfg.users);
  EXPECT_EQ(ends, cfg.users);
  EXPECT_EQ(steps, cfg.users * 60u);

  // The per-session view is the stream filtered by id: admit first,
  // session-end last, every step's session-local slot increasing.
  const auto one = loop.flight_session(0);
  ASSERT_GE(one.size(), 3u);
  EXPECT_EQ(one.front().kind, obs::EventKind::Admit);
  EXPECT_EQ(one.back().kind, obs::EventKind::SessionEnd);
  std::int64_t prev_slot = -1;
  for (const auto& e : one) {
    if (e.kind != obs::EventKind::Step) continue;
    EXPECT_GT(e.slot, prev_slot);
    prev_slot = e.slot;
  }
}

TEST_F(FlightServeTest, FlightCapacityZeroDisablesRecording) {
  ServeConfig cfg = small_config();
  cfg.flight_capacity = 0;
  ServeLoop loop(*experiment_, cfg);
  loop.drain(8);
  EXPECT_FALSE(loop.flight_enabled());
  EXPECT_TRUE(loop.flight_events().empty());
  EXPECT_TRUE(loop.flight_recent(8).empty());
  EXPECT_TRUE(loop.flight_session(0).empty());
  EXPECT_EQ(loop.flight_dropped(), 0u);
}

TEST_F(FlightServeTest, EndpointServesTraceAndPrometheusRoutes) {
  ServeConfig cfg = small_config();
  ServeLoop loop(*experiment_, cfg);
  loop.drain(8);
  ServeEndpoint endpoint(loop, nullptr);

  const auto get = [&](const std::string& target) {
    HttpRequest request;
    request.method = "GET";
    request.target = target;
    const auto q = target.find('?');
    request.path = target.substr(0, q);
    if (q != std::string::npos) request.query = target.substr(q + 1);
    return endpoint.handle(request);
  };

  // Prometheus exposition: typed counter series with the content type a
  // scraper expects, histogram buckets cumulative up to +Inf.
  const HttpResponse prom = get("/metrics?format=prom");
  EXPECT_EQ(prom.status, 200);
  EXPECT_EQ(prom.content_type, obs::kPrometheusContentType);
  EXPECT_NE(prom.body.find("# TYPE serve_slots_served_total counter"),
            std::string::npos);
  EXPECT_NE(prom.body.find("serve_step_seconds_bucket{le=\"+Inf\"}"),
            std::string::npos);
  EXPECT_EQ(get("/metrics?format=nope").status, 400);
  EXPECT_EQ(get("/metrics").status, 200);  // default stays JSON

  // SLO block inside /status.
  const HttpResponse status = get("/status");
  EXPECT_NE(status.body.find("\"slo\""), std::string::npos);
  EXPECT_NE(status.body.find("\"step_p95_us\""), std::string::npos);
  EXPECT_NE(status.body.find("\"admission_backlog\""), std::string::npos);

  const HttpResponse recent = get("/trace/recent?n=16");
  const HttpResponse chrome = get("/trace/recent?n=16&format=chrome");
  const HttpResponse one = get("/trace?session=0");
  if (!obs::kTraceEnabled) {
    EXPECT_EQ(recent.status, 404);
    EXPECT_EQ(chrome.status, 404);
    EXPECT_EQ(one.status, 404);
    return;
  }
  EXPECT_EQ(recent.status, 200);
  EXPECT_EQ(recent.content_type, "application/x-ndjson");
  EXPECT_NE(recent.body.find("\"kind\":\"step\""), std::string::npos);
  EXPECT_EQ(chrome.status, 200);
  EXPECT_NE(chrome.body.find("\"traceEvents\""), std::string::npos);
  EXPECT_EQ(one.status, 200);
  EXPECT_NE(one.body.find("\"session\":0"), std::string::npos);
  EXPECT_EQ(get("/trace").status, 400);           // missing session=
  EXPECT_EQ(get("/trace?session=abc").status, 400);
  EXPECT_EQ(get("/trace/recent?n=abc").status, 400);
}

}  // namespace
}  // namespace origin::serve
