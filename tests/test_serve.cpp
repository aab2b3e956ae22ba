// The serving subsystem's core contracts: open-loop arrival determinism,
// slot-granular stepping equivalent to batch Simulator::run, interleaved
// sessions sharing shard models without cross-talk, bit-identity of the
// ServeLoop across thread counts, and the HTTP/JSONL endpoint (routed
// socketless through handle(), plus real-socket tests: a smoke of every
// route family, and a silent and a trickling client each cut off at the
// request deadline).
#include "serve/serve_loop.hpp"

#include <gtest/gtest.h>

#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <chrono>
#include <stdexcept>
#include <thread>

#include "fleet/fleet_runner.hpp"
#include "serve/endpoint.hpp"
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

class ServeTest : public ::testing::Test {
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

  static sim::Experiment* experiment_;
};

sim::Experiment* ServeTest::experiment_ = nullptr;

TEST(ArrivalSchedule, DeterministicMonotoneAndValidated) {
  ArrivalConfig cfg;
  cfg.users = 32;
  cfg.rate_per_s = 3.0;
  cfg.seed = 77;
  cfg.slot_seconds = 0.5;
  const ArrivalSchedule a(cfg);
  const ArrivalSchedule b(cfg);
  ASSERT_EQ(a.size(), 32u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.tick(i), b.tick(i));
    if (i > 0) {
      EXPECT_GE(a.tick(i), a.tick(i - 1));
    }
  }
  EXPECT_EQ(a.last_tick(), a.tick(31));

  cfg.seed = 78;
  const ArrivalSchedule c(cfg);
  bool any_differs = false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    any_differs = any_differs || a.tick(i) != c.tick(i);
  }
  EXPECT_TRUE(any_differs);

  ArrivalConfig bad = cfg;
  bad.rate_per_s = 0.0;
  EXPECT_THROW(ArrivalSchedule{bad}, std::invalid_argument);
  bad = cfg;
  bad.slot_seconds = 0.0;
  EXPECT_THROW(ArrivalSchedule{bad}, std::invalid_argument);
}

TEST_F(ServeTest, InterleavedSessionsMatchSequentialRuns) {
  // Two sessions advanced strictly alternately on one shard's shared
  // models must produce the same outputs as each served to completion on
  // its own — per-slot inference state never leaks across sessions.
  const auto run_alone = [&](std::uint64_t id) {
    ServeConfig cfg = small_config();
    SessionSpec spec;
    SessionShard shard(*experiment_, cfg.set);
    util::Rng rng(fleet::shard_seed(cfg.population_seed, id));
    spec.id = id;
    spec.user = data::random_user(static_cast<int>(id), rng, cfg.severity);
    spec.seed_offset = fleet::shard_seed(cfg.population_seed ^ 0xA11CEULL, id);
    spec.policy = cfg.policy;
    spec.rr_cycle = cfg.rr_cycle;
    spec.set = cfg.set;
    auto session = std::make_unique<Session>(*experiment_, spec, shard.models(),
                                             cfg.ring_capacity);
    std::vector<int> outputs;
    while (!session->done()) outputs.push_back(session->stepper().step().predicted);
    return outputs;
  };

  const auto alone0 = run_alone(0);
  const auto alone1 = run_alone(1);

  ServeConfig cfg = small_config();
  SessionShard shard(*experiment_, cfg.set);
  std::array<std::unique_ptr<Session>, 2> sessions;
  for (std::uint64_t id = 0; id < 2; ++id) {
    SessionSpec spec;
    util::Rng rng(fleet::shard_seed(cfg.population_seed, id));
    spec.id = id;
    spec.user = data::random_user(static_cast<int>(id), rng, cfg.severity);
    spec.seed_offset = fleet::shard_seed(cfg.population_seed ^ 0xA11CEULL, id);
    spec.policy = cfg.policy;
    spec.rr_cycle = cfg.rr_cycle;
    spec.set = cfg.set;
    sessions[id] = std::make_unique<Session>(*experiment_, spec, shard.models(),
                                             cfg.ring_capacity);
  }
  std::array<std::vector<int>, 2> interleaved;
  while (!sessions[0]->done() || !sessions[1]->done()) {
    for (int s = 0; s < 2; ++s) {
      if (!sessions[s]->done()) {
        interleaved[s].push_back(sessions[s]->stepper().step().predicted);
      }
    }
  }
  EXPECT_EQ(interleaved[0], alone0);
  EXPECT_EQ(interleaved[1], alone1);
}

TEST_F(ServeTest, SessionIntOverloadAcceptsOnlyZero) {
  // The five-int Session constructor survives only for an older caller
  // that forwards a literal 0; any other value names the retired in-shard
  // block size and must be refused.
  ServeConfig cfg = small_config();
  SessionShard shard(*experiment_, cfg.set);
  EXPECT_NO_THROW(std::make_unique<Session>(*experiment_, SessionSpec{},
                                            shard.models(), cfg.ring_capacity,
                                            0));
  EXPECT_THROW(std::make_unique<Session>(*experiment_, SessionSpec{},
                                         shard.models(), cfg.ring_capacity, 4),
               std::invalid_argument);
}

TEST_F(ServeTest, CompletedSessionsMatchBatchFleetRun) {
  // A drained serving process reproduces the batch fleet simulator
  // bit-for-bit: same per-user derivation, same per-slot outputs.
  ServeConfig cfg = small_config();
  ServeLoop loop(*experiment_, cfg);
  loop.drain();
  const auto completed = loop.completed_sessions();
  ASSERT_EQ(completed.size(), cfg.users);

  fleet::PopulationConfig pop;
  pop.users = cfg.users;
  pop.runs_per_user = 1;
  pop.root_seed = cfg.population_seed;
  pop.severity = cfg.severity;
  pop.policy = cfg.policy;
  pop.rr_cycle = cfg.rr_cycle;
  pop.set = cfg.set;
  fleet::FleetRunnerConfig runner_cfg;
  runner_cfg.keep_sim_results = true;
  const auto batch =
      fleet::FleetRunner(*experiment_, runner_cfg).run(fleet::make_population(pop));
  ASSERT_EQ(batch.sim_results.size(), cfg.users);

  for (const CompletedSession& record : completed) {
    SCOPED_TRACE(record.id);
    const sim::SimResult& ref = batch.sim_results[record.id];
    EXPECT_EQ(record.outputs, ref.outputs);
    EXPECT_EQ(record.outputs_fnv1a, fnv1a_outputs(ref.outputs));
    EXPECT_EQ(record.accuracy, ref.accuracy.overall());
    EXPECT_EQ(record.success_rate, ref.completion.attempt_success_rate());
  }
}

TEST_F(ServeTest, BitIdenticalAcrossThreadCounts) {
  // Threads decide when a shard runs, never what it computes, and the
  // flight recorder observes without perturbing: every (threads, flight
  // capacity) cell publishes the same log and deterministic metrics —
  // the cross-session panel stats included — as the threads=1 baseline.
  const auto run = [&](unsigned threads, std::size_t flight_capacity) {
    ServeConfig cfg = small_config();
    cfg.threads = threads;
    cfg.flight_capacity = flight_capacity;
    ServeLoop loop(*experiment_, cfg);
    loop.drain(/*chunk=*/7);
    return std::tuple(loop.completed_sessions(), loop.metrics(),
                      loop.status());
  };
  // The occupancy histogram is the panel ledger: one observation per
  // panel, summing to the windows served through them.
  const auto expect_panel_ledger = [](const obs::MetricsSnapshot& metrics,
                                      const ServeLoop::Status& status) {
    EXPECT_GT(status.batch_panels, 0u);
    EXPECT_GE(status.batch_windows, status.batch_panels);
    const auto& occupancy = metrics.histogram_value("serve.batch_occupancy");
    EXPECT_EQ(occupancy.count, status.batch_panels);
    EXPECT_EQ(occupancy.sum, static_cast<double>(status.batch_windows));
    EXPECT_EQ(metrics.counter_value("serve.batch_panels"),
              status.batch_panels);
    EXPECT_EQ(metrics.counter_value("serve.batch_windows"),
              status.batch_windows);
  };
  constexpr std::size_t kFlight = 4096;
  const auto [base_log, base_metrics, base_status] = run(1, kFlight);
  ASSERT_EQ(base_log.size(), small_config().users);
  expect_panel_ledger(base_metrics, base_status);
  for (unsigned threads : {1u, 2u, 8u}) {
    for (std::size_t flight_capacity : {std::size_t{0}, kFlight}) {
      if (threads == 1 && flight_capacity == kFlight) continue;  // baseline
      SCOPED_TRACE(threads);
      SCOPED_TRACE(flight_capacity);
      const auto [log, metrics, status] = run(threads, flight_capacity);
      ASSERT_EQ(log.size(), base_log.size());
      for (std::size_t i = 0; i < log.size(); ++i) {
        SCOPED_TRACE(i);
        EXPECT_EQ(log[i].id, base_log[i].id);
        EXPECT_EQ(log[i].completed_tick, base_log[i].completed_tick);
        EXPECT_EQ(log[i].outputs, base_log[i].outputs);
        EXPECT_EQ(log[i].outputs_fnv1a, base_log[i].outputs_fnv1a);
        EXPECT_EQ(log[i].accuracy, base_log[i].accuracy);
        EXPECT_EQ(log[i].success_rate, base_log[i].success_rate);
        EXPECT_EQ(log[i].harvested_j, base_log[i].harvested_j);
        EXPECT_EQ(log[i].consumed_j, base_log[i].consumed_j);
      }
      EXPECT_TRUE(
          obs::MetricsSnapshot::deterministic_equal(base_metrics, metrics));
      expect_panel_ledger(metrics, status);
    }
  }
}

TEST_F(ServeTest, StatusAndSummariesTrackProgress) {
  ServeConfig cfg = small_config();
  ServeLoop loop(*experiment_, cfg);
  EXPECT_FALSE(loop.done());
  loop.tick(5);
  const auto status = loop.status();
  EXPECT_EQ(status.now, 5u);
  EXPECT_GT(status.admitted, 0u);
  const auto summaries = loop.session_summaries();
  EXPECT_EQ(summaries.size(), status.active);
  for (const auto& summary : summaries) {
    EXPECT_LE(summary.slots_done, summary.slots_total);
    EXPECT_TRUE(loop.session_summary(summary.id).has_value());
  }
  loop.drain();
  EXPECT_TRUE(loop.done());
  EXPECT_EQ(loop.status().completed, cfg.users);
  EXPECT_EQ(loop.status().slots_served, cfg.users * 60u);
  // Virtual clock: every slot of every session was served exactly once.
  EXPECT_TRUE(loop.session_summaries().empty());
}

TEST_F(ServeTest, SerialSectionAndShardBusyMetricsArePublishedAsWallClock) {
  ServeConfig cfg = small_config();
  cfg.threads = 2;
  ServeLoop loop(*experiment_, cfg);
  constexpr std::uint64_t kTicks = 5;
  for (std::uint64_t t = 0; t < kTicks; ++t) loop.tick(1);
  const obs::MetricsSnapshot metrics = loop.metrics();

  // One serial-section observation per tick() call, one busy observation
  // per shard per tick() call; both in the exposition /metrics serves.
  for (const char* name :
       {"serve.tick_serial_seconds", "serve.shard_busy_seconds"}) {
    SCOPED_TRACE(name);
    const obs::MetricDef* def = metrics.find(name);
    ASSERT_NE(def, nullptr);
    EXPECT_FALSE(def->deterministic);
    EXPECT_NE(metrics.to_json().find(name), std::string::npos);
  }
  EXPECT_EQ(metrics.histogram_value("serve.tick_serial_seconds").count,
            kTicks);
  EXPECT_EQ(metrics.histogram_value("serve.shard_busy_seconds").count,
            kTicks * cfg.shards);
  obs::RunManifest manifest("test_serve");
  ServeEndpoint endpoint(loop, &manifest);
  HttpRequest request;
  request.method = "GET";
  request.path = "/metrics";
  request.target = "/metrics";
  const std::string body = endpoint.handle(request).body;
  EXPECT_NE(body.find("serve.tick_serial_seconds"), std::string::npos);
  EXPECT_NE(body.find("serve.shard_busy_seconds"), std::string::npos);

  // The bit-identity comparisons (across thread counts and snapshot
  // splits) skip them: any wall-clock value compares equal, while the
  // same edit to a deterministic histogram does not.
  obs::MetricsSnapshot perturbed = metrics;
  for (const char* name :
       {"serve.tick_serial_seconds", "serve.shard_busy_seconds"}) {
    obs::HistogramCell& cell =
        perturbed.histograms[perturbed.find(name)->slot];
    cell.sum += 1.0;
    cell.max += 1.0;
    cell.count += 3;
    cell.buckets.back() += 3;
  }
  EXPECT_TRUE(obs::MetricsSnapshot::deterministic_equal(metrics, perturbed));
  perturbed.histograms[perturbed.find("serve.batch_occupancy")->slot].sum +=
      1.0;
  EXPECT_FALSE(obs::MetricsSnapshot::deterministic_equal(metrics, perturbed));
}

TEST_F(ServeTest, EndpointRoutes) {
  ServeConfig cfg = small_config();
  ServeLoop loop(*experiment_, cfg);
  loop.tick(3);
  obs::RunManifest manifest("test_serve");
  ServeEndpoint endpoint(loop, &manifest);

  const auto get = [&](const std::string& target) {
    HttpRequest request;
    request.method = "GET";
    request.target = target;
    const std::size_t q = target.find('?');
    request.path = target.substr(0, q);
    request.query = q == std::string::npos ? "" : target.substr(q + 1);
    return endpoint.handle(request);
  };

  EXPECT_EQ(get("/healthz").status, 200);
  EXPECT_NE(get("/healthz").body.find("\"status\":\"ok\""), std::string::npos);
  EXPECT_NE(get("/status").body.find("\"slots_served\""), std::string::npos);
  EXPECT_EQ(get("/metrics").status, 200);
  EXPECT_NE(get("/metrics").body.find("serve.slots.served"),
            std::string::npos);
  EXPECT_EQ(get("/manifest").status, 200);
  EXPECT_EQ(get("/sessions").status, 200);

  const auto summaries = loop.session_summaries();
  ASSERT_FALSE(summaries.empty());
  const std::string one = "/sessions/" + std::to_string(summaries[0].id);
  EXPECT_EQ(get(one).status, 200);
  EXPECT_EQ(get("/sessions/9999").status, 404);
  EXPECT_EQ(get("/sessions/abc").status, 400);

  const auto results = get("/results?tail=2");
  EXPECT_EQ(results.status, 200);
  EXPECT_EQ(results.content_type, "application/x-ndjson");
  // JSONL: every line is one self-contained object.
  std::size_t lines = 0;
  for (char c : results.body) lines += c == '\n';
  EXPECT_EQ(lines, 2u);
  EXPECT_EQ(get("/results?tail=junk").status, 400);
  EXPECT_EQ(get("/completed").status, 200);

  EXPECT_EQ(get("/nothing").status, 404);
  HttpRequest post;
  post.method = "POST";
  post.path = "/status";
  EXPECT_EQ(endpoint.handle(post).status, 405);

  // Endpoint never mutates the loop.
  EXPECT_EQ(loop.now(), 3u);
}

TEST(HttpHelpers, QueryParamAndWireFormat) {
  EXPECT_EQ(query_param("a=1&b=2", "b", "x"), "2");
  EXPECT_EQ(query_param("a=1&b=2", "c", "x"), "x");
  EXPECT_EQ(query_param("", "a", "d"), "d");
  const std::string wire = to_wire({404, "application/json", "{}"});
  EXPECT_NE(wire.find("HTTP/1.0 404 Not Found\r\n"), std::string::npos);
  EXPECT_NE(wire.find("Content-Length: 2\r\n"), std::string::npos);
  EXPECT_NE(wire.find("Connection: close\r\n\r\n{}"), std::string::npos);
}

/// Connects a client socket to the loopback server on `port`, or -1.
/// Reads give up after 10 s, so a server that never answers fails the
/// test instead of hanging it.
int connect_loopback(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  const timeval read_timeout{10, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &read_timeout,
               sizeof read_timeout);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) !=
      0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

/// Reads `fd` until the server closes it (or the read timeout), then
/// closes it.
std::string read_to_close(int fd) {
  std::string response;
  char buf[1024];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof buf, 0)) > 0) {
    response.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return response;
}

/// Sends `request` and reads the response until the server closes.
std::string round_trip(std::uint16_t port, const std::string& request) {
  const int fd = connect_loopback(port);
  if (fd < 0) return {};
  ::send(fd, request.data(), request.size(), MSG_NOSIGNAL);
  return read_to_close(fd);
}

double seconds_since(std::chrono::steady_clock::time_point t) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t)
      .count();
}

class HttpDeadlineTest : public ServeTest {
 protected:
  void SetUp() override {
    loop_ = std::make_unique<ServeLoop>(*experiment_, small_config());
    endpoint_ = std::make_unique<ServeEndpoint>(*loop_);
    try {
      server_ = endpoint_->serve(/*port=*/0);
    } catch (const std::runtime_error&) {
      GTEST_SKIP() << "cannot bind a loopback socket in this environment";
    }
  }

  std::unique_ptr<ServeLoop> loop_;
  std::unique_ptr<ServeEndpoint> endpoint_;
  std::unique_ptr<HttpServer> server_;
};

TEST_F(ServeTest, HttpServerSocketSmoke) {
  // Every route family over a real socket: the JSON and JSONL routes, the
  // Prometheus exposition and the flight-recorder route.
  ServeConfig cfg = small_config();
  ServeLoop loop(*experiment_, cfg);
  loop.tick(20);
  ASSERT_GT(loop.status().slots_served, 0u);
  obs::RunManifest manifest("test_serve");
  ServeEndpoint endpoint(loop, &manifest);
  std::unique_ptr<HttpServer> server;
  try {
    server = endpoint.serve(/*port=*/0);
  } catch (const std::runtime_error&) {
    GTEST_SKIP() << "cannot bind a loopback socket in this environment";
  }
  ASSERT_NE(server->port(), 0);

  const auto get = [&](const std::string& target, int status = 200) {
    const std::string response = round_trip(
        server->port(), "GET " + target + " HTTP/1.0\r\n\r\n");
    EXPECT_EQ(response.rfind("HTTP/1.0 " + std::to_string(status) + " ", 0),
              0u)
        << target;
    return response;
  };
  const auto carries = [](const std::string& response, const char* text) {
    return response.find(text) != std::string::npos;
  };
  EXPECT_TRUE(carries(get("/healthz"), "\"status\":\"ok\""));
  const std::string status = get("/status");
  EXPECT_TRUE(carries(status, "\"slots_served\""));
  EXPECT_TRUE(carries(status, "\"slo\""));
  EXPECT_TRUE(carries(get("/results?tail=3"), "\"predicted\""));
  const std::string prom = get("/metrics?format=prom");
  EXPECT_TRUE(carries(prom, "\n# TYPE serve_slots_served_total counter\n"));
  EXPECT_TRUE(carries(prom, "_bucket{le=\"+Inf\"}"));
  // A -DORIGIN_TRACE=OFF build compiles the flight recorder out.
  if (loop.flight_enabled()) {
    EXPECT_TRUE(carries(get("/trace/recent?n=16"), "\"kind\""));
  } else {
    get("/trace/recent?n=16", 404);
  }
  server->stop();
}

TEST_F(ServeTest, SloTickFieldsComeFromTheTickHistogram) {
  ServeConfig cfg = small_config();
  ServeLoop loop(*experiment_, cfg);
  constexpr std::uint64_t kTicks = 12;
  for (std::uint64_t t = 0; t < kTicks; ++t) loop.tick(1);
  const ServeLoop::Slo slo = loop.slo();
  const ServeLoop::Status status = loop.status();
  const obs::HistogramCell ticks =
      loop.metrics().histogram_value("serve.tick_seconds");
  ASSERT_EQ(ticks.count, kTicks);
  ASSERT_GT(ticks.sum, 0.0);
  ASSERT_GT(status.slots_served, 0u);
  EXPECT_GT(slo.tick_p50_ms, 0.0);
  EXPECT_LE(slo.tick_p50_ms, slo.tick_p95_ms);
  EXPECT_LE(slo.tick_p95_ms, slo.tick_p99_ms);
  EXPECT_EQ(slo.slots_per_s,
            static_cast<double>(status.slots_served) / ticks.sum);
  EXPECT_EQ(slo.sessions_per_s,
            static_cast<double>(status.completed) / ticks.sum);
}

TEST_F(HttpDeadlineTest, SilentClientTimesOutAndStopReturns) {
  // A client that connects and sends nothing holds the one-at-a-time
  // server only until the request deadline (2 s): a later request is
  // still served, and the silent client gets a 408.
  const auto begin = std::chrono::steady_clock::now();
  const int silent = connect_loopback(server_->port());
  ASSERT_GE(silent, 0);
  const std::string response =
      round_trip(server_->port(), "GET /healthz HTTP/1.0\r\n\r\n");
  EXPECT_NE(response.find("HTTP/1.0 200 OK"), std::string::npos);
  EXPECT_LT(seconds_since(begin), 5.0);
  EXPECT_NE(read_to_close(silent).find("HTTP/1.0 408 Request Timeout"),
            std::string::npos);

  // stop() returns promptly while a silent client is mid-request.
  const int held = connect_loopback(server_->port());
  ASSERT_GE(held, 0);
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  const auto stop_begin = std::chrono::steady_clock::now();
  server_->stop();
  EXPECT_LT(seconds_since(stop_begin), 1.0);
  ::close(held);
}

TEST_F(HttpDeadlineTest, TrickledRequestCappedAtDeadline) {
  // A client that keeps sending one byte every 20 ms never goes silent,
  // so only the cap on the whole request ends it: the server answers 408
  // and closes near the 2 s deadline, then serves the next client.
  const int fd = connect_loopback(server_->port());
  ASSERT_GE(fd, 0);
  const auto begin = std::chrono::steady_clock::now();
  const std::string head = "GET /healthz?pad=";
  ::send(fd, head.data(), head.size(), MSG_NOSIGNAL);
  std::string response;
  bool closed = false;
  while (!closed && seconds_since(begin) < 10.0) {
    ::send(fd, "a", 1, MSG_NOSIGNAL);
    pollfd pfd{fd, POLLIN, 0};
    if (::poll(&pfd, 1, 20) <= 0) continue;
    char buf[256];
    const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
    if (n <= 0) {
      closed = true;
    } else {
      response.append(buf, static_cast<std::size_t>(n));
    }
  }
  const double held_s = seconds_since(begin);
  ::close(fd);
  EXPECT_TRUE(closed);
  EXPECT_NE(response.find("HTTP/1.0 408 Request Timeout"), std::string::npos);
  EXPECT_GE(held_s, 1.5);
  EXPECT_LT(held_s, 5.0);

  const std::string next =
      round_trip(server_->port(), "GET /healthz HTTP/1.0\r\n\r\n");
  EXPECT_NE(next.find("HTTP/1.0 200 OK"), std::string::npos);
}

}  // namespace
}  // namespace origin::serve
