// Fleet serving — the long-lived counterpart of fleet_simulation: admit a
// population of users under an open-loop arrival schedule, advance every
// active session one stream slot per virtual tick, and answer HTTP/JSONL
// queries while serving. Results are bit-identical at any --threads and
// across a --snapshot save/restore (see DESIGN.md §11).
//
// Build & run (from the repository root):
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/fleet_serve --users 32 --port 8080 &
//   curl -s localhost:8080/status
//   curl -s localhost:8080/results?tail=5
//
// Run with --help for the full flag list.
#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <thread>

#include "nn/kernels/backend.hpp"
#include "obs/manifest.hpp"
#include "obs/prometheus.hpp"
#include "serve/endpoint.hpp"
#include "serve/serve_loop.hpp"
#include "serve/snapshot.hpp"
#include "util/args.hpp"
#include "util/logging.hpp"

using namespace origin;

namespace {

bool file_exists(const std::string& path) {
  if (FILE* f = std::fopen(path.c_str(), "rb")) {
    std::fclose(f);
    return true;
  }
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  util::set_log_level(util::LogLevel::Info);

  serve::ServeConfig serve_config;
  std::uint64_t port = 0;
  int slots = 240;
  std::uint64_t users = serve_config.users;
  std::uint64_t shards = serve_config.shards;
  std::uint64_t tick_slots = 16;
  std::string policy_name = to_string(serve_config.policy);
  std::string backend;  // empty = keep ORIGIN_BACKEND / reference default
  std::string snapshot_path;
  std::string manifest_path;
  std::string trace_path;
  bool prom = false;
  double linger_s = 0.0;

  util::ArgParser args("fleet_serve",
                       "serve a user population with an HTTP/JSONL endpoint");
  args.add("port", &port, "HTTP port on 127.0.0.1 (0 = ephemeral)");
  args.add("users", &users, "sessions admitted over the process lifetime");
  args.add("arrival-rate", &serve_config.arrival_rate_hz,
           "open-loop arrivals per virtual second");
  args.add("slots", &slots, "stream length per session, in slots");
  args.add("threads", &serve_config.threads,
           "serving threads, counting the driver (1 = driver only)");
  args.add("shards", &shards, "session-table shards (affects fold order)");
  args.add("policy", &policy_name, "naive|rr|aas|aasr|origin");
  args.add("rr", &serve_config.rr_cycle, "round-robin depth");
  args.add("severity", &serve_config.severity, "user deviation severity");
  args.add("backend", &backend,
           "kernel backend: reference|avx2|auto (auto = best available; "
           "default keeps ORIGIN_BACKEND or reference)");
  args.add("bits", &serve_config.bits,
           "inference word width: 32 (float) or 2..8 (int8 serving path)");
  args.add_switch("fine-tune", &serve_config.personalize.enabled,
                  "bounded per-user fine-tuning (requires --bits 32)");
  args.add("ft-budget", &serve_config.personalize.step_budget,
           "fine-tune optimizer-step budget per sensor net");
  args.add("ft-cadence", &serve_config.personalize.cadence_slots,
           "slots between fine-tune attempts");
  args.add("tick-slots", &tick_slots, "virtual ticks advanced per loop turn");
  args.add("snapshot", &snapshot_path,
           "session-table snapshot: restored when the file exists, saved on "
           "exit");
  args.add("linger-s", &linger_s,
           "keep the endpoint up this many seconds after draining");
  args.add("manifest", &manifest_path, "write a run manifest JSON on exit");
  args.add("trace", &trace_path,
           "write the flight-recorder events as a Chrome trace on exit");
  args.add_switch("prom", &prom,
                  "print the Prometheus exposition once at exit");
  try {
    if (!args.parse(argc, argv)) return 0;
    if (!backend.empty() && !nn::kernels::set_backend(backend)) {
      throw std::invalid_argument("unknown or unavailable backend '" +
                                  backend + "'");
    }
    serve_config.policy = sim::parse_policy_kind(policy_name);
    serve_config.users = users;
    serve_config.shards = shards;
    if (tick_slots == 0) tick_slots = 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fleet_serve: %s\n%s", e.what(), args.usage().c_str());
    return 2;
  }

  sim::ExperimentConfig config;
  config.pipeline.kind = data::DatasetKind::MHealthLike;
  config.stream_slots = slots;
  sim::Experiment experiment(config);

  serve::ServeLoop loop(experiment, serve_config);
  if (!snapshot_path.empty() && file_exists(snapshot_path)) {
    try {
      loop.restore(snapshot_path);
      std::printf("restored %s: now=%llu, %llu admitted, %llu completed\n",
                  snapshot_path.c_str(),
                  static_cast<unsigned long long>(loop.now()),
                  static_cast<unsigned long long>(loop.status().admitted),
                  static_cast<unsigned long long>(loop.status().completed));
    } catch (const std::exception& e) {
      std::fprintf(stderr, "fleet_serve: %s\n", e.what());
      return 2;
    }
  }

  obs::RunManifest manifest("fleet_serve");
  manifest.set("users", std::uint64_t{serve_config.users});
  manifest.set("arrival_rate_hz", serve_config.arrival_rate_hz);
  manifest.set("slots", slots);
  manifest.set("policy", to_string(serve_config.policy));
  manifest.set("rr_cycle", serve_config.rr_cycle);
  manifest.set("severity", serve_config.severity);
  manifest.set("threads", static_cast<int>(serve_config.threads));
  manifest.set("shards", std::uint64_t{serve_config.shards});
  manifest.set("kernel_backend",
               std::string(nn::kernels::active_backend().name));
  manifest.set("simd", nn::kernels::simd_features());
  manifest.set("bits", serve_config.bits);
  manifest.set("fine_tune", serve_config.personalize.enabled);
  if (serve_config.personalize.enabled) {
    manifest.set("ft_budget", serve_config.personalize.step_budget);
    manifest.set("ft_cadence", serve_config.personalize.cadence_slots);
  }

  serve::ServeEndpoint endpoint(loop, &manifest);
  std::unique_ptr<serve::HttpServer> server;
  try {
    server = endpoint.serve(static_cast<std::uint16_t>(port));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fleet_serve: %s\n", e.what());
    return 2;
  }
  // The smoke test and interactive curls parse this line for the port.
  std::printf("serving on http://127.0.0.1:%u\n",
              static_cast<unsigned>(server->port()));
  std::fflush(stdout);

  const auto begin = std::chrono::steady_clock::now();
  while (!loop.done()) {
    loop.tick(tick_slots);
    const auto status = loop.status();
    std::printf("\r[serve] now=%llu active=%llu completed=%llu/%llu",
                static_cast<unsigned long long>(status.now),
                static_cast<unsigned long long>(status.active),
                static_cast<unsigned long long>(status.completed),
                static_cast<unsigned long long>(serve_config.users));
    std::fflush(stdout);
  }
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - begin)
          .count();
  std::printf("\n");

  const auto status = loop.status();
  const auto metrics = loop.metrics();
  const auto& step_def = *metrics.find("serve.step_seconds");
  const auto& step = metrics.histograms[step_def.slot];
  std::printf("served %llu slots over %llu sessions in %.2f s "
              "(%.1f slots/s, %.2f users/s)\n",
              static_cast<unsigned long long>(status.slots_served),
              static_cast<unsigned long long>(status.completed), wall_s,
              wall_s > 0 ? static_cast<double>(status.slots_served) / wall_s
                         : 0.0,
              wall_s > 0 ? static_cast<double>(status.completed) / wall_s
                         : 0.0);
  const auto step_q = obs::histogram_quantiles(
      step, step_def.upper_bounds,
      {obs::kSloQuantiles.begin(), obs::kSloQuantiles.end()});
  std::printf("per-slot latency: p50 %.1f us, p95 %.1f us, p99 %.1f us\n",
              1e6 * step_q[0], 1e6 * step_q[1], 1e6 * step_q[2]);
  std::printf("cross-session batching: %llu panels, %llu windows, "
              "mean occupancy %.2f\n",
              static_cast<unsigned long long>(status.batch_panels),
              static_cast<unsigned long long>(status.batch_windows),
              status.batch_mean_occupancy);

  if (linger_s > 0) {
    std::printf("lingering %.1f s for queries...\n", linger_s);
    std::fflush(stdout);
    std::this_thread::sleep_for(std::chrono::duration<double>(linger_s));
  }
  server->stop();

  if (!snapshot_path.empty()) {
    loop.save(snapshot_path);
    std::printf("snapshot: %s\n", snapshot_path.c_str());
  }
  if (!manifest_path.empty()) {
    manifest.set_wall_seconds(wall_s);
    manifest.write(manifest_path, &metrics);
    std::printf("manifest: %s\n", manifest_path.c_str());
  }
  if (!trace_path.empty()) {
    if (!loop.flight_enabled()) {
      std::fprintf(stderr,
                   "fleet_serve: --trace ignored (flight recorder off; "
                   "built with -DORIGIN_TRACE=OFF?)\n");
    } else {
      std::ofstream os(trace_path, std::ios::binary);
      if (!os) {
        std::fprintf(stderr, "fleet_serve: cannot write %s\n",
                     trace_path.c_str());
        return 2;
      }
      obs::ChromeTraceSink sink;
      sink.write(loop.flight_events(), loop.flight_dropped(), os);
      std::printf("trace: %s (%llu events, %llu dropped)\n",
                  trace_path.c_str(),
                  static_cast<unsigned long long>(loop.flight_events().size()),
                  static_cast<unsigned long long>(loop.flight_dropped()));
    }
  }
  if (prom) {
    std::fputs(obs::prometheus_text(metrics).c_str(), stdout);
  }
  return 0;
}
