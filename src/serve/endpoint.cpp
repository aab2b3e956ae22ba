#include "serve/endpoint.hpp"

#include <cstdlib>
#include <sstream>

#include "nn/kernels/backend.hpp"
#include "obs/json.hpp"
#include "obs/prometheus.hpp"
#include "obs/trace.hpp"

namespace origin::serve {

namespace {

HttpResponse json_ok(std::string body) {
  body.push_back('\n');
  return {200, "application/json", std::move(body)};
}

HttpResponse error(int status, const std::string& message) {
  obs::JsonWriter w;
  w.begin_object().kv("error", message).end_object();
  return {status, "application/json", w.str() + "\n"};
}

/// Renders flight events as JSONL (default) or a Chrome trace_event
/// document, reusing the obs trace sinks.
HttpResponse trace_response(const std::vector<obs::TraceEvent>& events,
                            std::uint64_t dropped,
                            const std::string& format) {
  std::ostringstream os;
  if (format == "chrome") {
    obs::ChromeTraceSink sink;
    sink.write(events, dropped, os);
    return {200, "application/json", os.str()};
  }
  if (format != "jsonl") return error(400, "bad format (jsonl|chrome)");
  obs::JsonlSink sink;
  sink.write(events, dropped, os);
  return {200, "application/x-ndjson", os.str()};
}

void session_summary_fields(obs::JsonWriter& w, const SessionSummary& s) {
  w.kv("id", s.id);
  w.kv("arrival_tick", s.arrival_tick);
  w.kv("slots_done", s.slots_done);
  w.kv("slots_total", s.slots_total);
  w.kv("accuracy", s.accuracy);
  w.kv("attempts", s.attempts);
  w.kv("completions", s.completions);
  w.key("stored_j").begin_array();
  for (double j : s.stored_j) w.value(j);
  w.end_array();
  w.kv("fine_tunes", s.fine_tunes);
  w.kv("fine_tune_steps", s.fine_tune_steps);
  w.kv("delta_bytes", s.delta_bytes);
  w.kv("personalize_j", s.personalize_j);
}

}  // namespace

std::string slot_record_json(const SlotRecord& record) {
  obs::JsonWriter w;
  w.begin_object();
  w.kv("seq", record.seq);
  w.kv("tick", record.tick);
  w.kv("session", record.session);
  w.kv("slot", static_cast<std::uint64_t>(record.slot));
  w.kv("predicted", static_cast<int>(record.predicted));
  w.kv("label", static_cast<int>(record.label));
  w.end_object();
  return w.str();
}

std::string completed_session_json(const CompletedSession& record) {
  obs::JsonWriter w;
  w.begin_object();
  w.kv("id", record.id);
  w.kv("arrival_tick", record.arrival_tick);
  w.kv("completed_tick", record.completed_tick);
  w.kv("slots", record.slots);
  w.kv("accuracy", record.accuracy);
  w.kv("success_rate", record.success_rate);
  w.kv("harvested_j", record.harvested_j);
  w.kv("consumed_j", record.consumed_j);
  w.kv("outputs_fnv1a", record.outputs_fnv1a);
  w.kv("fine_tunes", record.fine_tunes);
  w.kv("fine_tune_steps", record.fine_tune_steps);
  w.kv("delta_bytes", record.delta_bytes);
  w.kv("personalize_j", record.personalize_j);
  w.end_object();
  return w.str();
}

ServeEndpoint::ServeEndpoint(const ServeLoop& loop,
                             const obs::RunManifest* manifest)
    : loop_(&loop), manifest_(manifest) {}

HttpResponse ServeEndpoint::handle(const HttpRequest& request) const {
  if (request.method != "GET") {
    return error(405, "only GET is supported");
  }
  const std::string& path = request.path;

  if (path == "/healthz") {
    const ServeLoop::Status status = loop_->status();
    obs::JsonWriter w;
    w.begin_object();
    w.kv("status", "ok");
    w.kv("now", status.now);
    w.kv("done", loop_->done());
    w.end_object();
    return json_ok(w.str());
  }

  if (path == "/status") {
    const ServeLoop::Status status = loop_->status();
    const ServeLoop::Slo slo = loop_->slo();
    obs::JsonWriter w;
    w.begin_object();
    w.kv("now", status.now);
    w.kv("admitted", status.admitted);
    w.kv("active", status.active);
    w.kv("completed", status.completed);
    w.kv("slots_served", status.slots_served);
    w.kv("users", static_cast<std::uint64_t>(loop_->config().users));
    w.kv("done", loop_->done());
    w.kv("backend", nn::kernels::active_backend().name);
    w.kv("bits", loop_->config().bits);
    w.kv("batch_panels", status.batch_panels);
    w.kv("batch_windows", status.batch_windows);
    w.kv("batch_mean_occupancy", status.batch_mean_occupancy);
    w.key("slo").begin_object();
    w.kv("step_p50_us", slo.step_p50_us);
    w.kv("step_p95_us", slo.step_p95_us);
    w.kv("step_p99_us", slo.step_p99_us);
    w.kv("tick_p50_ms", slo.tick_p50_ms);
    w.kv("tick_p95_ms", slo.tick_p95_ms);
    w.kv("tick_p99_ms", slo.tick_p99_ms);
    w.kv("fit_phases", slo.fit_phases);
    w.kv("fit_phase_p50_ms", slo.fit_phase_p50_ms);
    w.kv("fit_phase_p95_ms", slo.fit_phase_p95_ms);
    w.kv("fit_phase_p99_ms", slo.fit_phase_p99_ms);
    w.kv("admission_backlog", slo.admission_backlog);
    w.kv("sessions_per_s", slo.sessions_per_s);
    w.kv("slots_per_s", slo.slots_per_s);
    w.end_object();
    w.end_object();
    return json_ok(w.str());
  }

  if (path == "/metrics") {
    const std::string format = query_param(request.query, "format", "json");
    if (format == "prom") {
      return {200, obs::kPrometheusContentType,
              obs::prometheus_text(loop_->metrics())};
    }
    if (format != "json") return error(400, "bad format (json|prom)");
    return json_ok(loop_->metrics().to_json());
  }

  if (path == "/trace") {
    const std::string id_str = query_param(request.query, "session", "");
    if (id_str.empty()) return error(400, "missing session=<id>");
    char* end = nullptr;
    const unsigned long long id = std::strtoull(id_str.c_str(), &end, 10);
    if (end == nullptr || *end != '\0') return error(400, "bad session id");
    if (!loop_->flight_enabled()) return error(404, "flight recorder off");
    return trace_response(loop_->flight_session(id), 0,
                          query_param(request.query, "format", "jsonl"));
  }

  if (path == "/trace/recent") {
    const std::string n_str = query_param(request.query, "n", "256");
    char* end = nullptr;
    const unsigned long long n = std::strtoull(n_str.c_str(), &end, 10);
    if (n_str.empty() || end == nullptr || *end != '\0') {
      return error(400, "bad n");
    }
    if (!loop_->flight_enabled()) return error(404, "flight recorder off");
    return trace_response(loop_->flight_recent(n), loop_->flight_dropped(),
                          query_param(request.query, "format", "jsonl"));
  }

  if (path == "/manifest") {
    if (manifest_ == nullptr) return error(404, "no manifest attached");
    return json_ok(manifest_->to_json());
  }

  if (path == "/sessions") {
    obs::JsonWriter w;
    w.begin_array();
    for (const SessionSummary& summary : loop_->session_summaries()) {
      w.begin_object();
      session_summary_fields(w, summary);
      w.end_object();
    }
    w.end_array();
    return json_ok(w.str());
  }

  if (path.rfind("/sessions/", 0) == 0) {
    const std::string id_str = path.substr(std::string("/sessions/").size());
    char* end = nullptr;
    const unsigned long long id = std::strtoull(id_str.c_str(), &end, 10);
    if (id_str.empty() || end == nullptr || *end != '\0') {
      return error(400, "bad session id");
    }
    const auto summary = loop_->session_summary(id);
    if (!summary) return error(404, "no active session " + id_str);
    obs::JsonWriter w;
    w.begin_object();
    session_summary_fields(w, *summary);
    w.end_object();
    return json_ok(w.str());
  }

  if (path == "/results") {
    const std::string tail_str = query_param(request.query, "tail", "64");
    char* end = nullptr;
    const unsigned long long tail = std::strtoull(tail_str.c_str(), &end, 10);
    if (tail_str.empty() || end == nullptr || *end != '\0') {
      return error(400, "bad tail");
    }
    std::string body;
    for (const SlotRecord& record : loop_->recent_results(tail)) {
      body += slot_record_json(record);
      body.push_back('\n');
    }
    return {200, "application/x-ndjson", std::move(body)};
  }

  if (path == "/completed") {
    std::string body;
    for (const CompletedSession& record : loop_->completed_sessions()) {
      body += completed_session_json(record);
      body.push_back('\n');
    }
    return {200, "application/x-ndjson", std::move(body)};
  }

  return error(404, "no route " + path);
}

std::unique_ptr<HttpServer> ServeEndpoint::serve(std::uint16_t port) const {
  return std::make_unique<HttpServer>(
      [this](const HttpRequest& request) { return handle(request); }, port);
}

}  // namespace origin::serve
