#include "obs/trace.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <cstring>
#include <fstream>
#include <ostream>
#include <stdexcept>
#include <utility>

#include "obs/json.hpp"

namespace origin::obs {

const char* to_string(EventKind kind) {
  switch (kind) {
    case EventKind::Schedule: return "schedule";
    case EventKind::Energy: return "energy";
    case EventKind::Attempt: return "attempt";
    case EventKind::Vote: return "vote";
    case EventKind::Fusion: return "fusion";
    case EventKind::Output: return "output";
    case EventKind::Job: return "job";
    case EventKind::Admit: return "admit";
    case EventKind::Step: return "step";
    case EventKind::Hop: return "hop";
    case EventKind::NvpSave: return "nvp_save";
    case EventKind::NvpRestore: return "nvp_restore";
    case EventKind::SessionEnd: return "session_end";
  }
  return "?";
}

const char* to_string(AttemptOutcome outcome) {
  switch (outcome) {
    case AttemptOutcome::Completed: return "completed";
    case AttemptOutcome::SkippedNoEnergy: return "skipped_no_energy";
    case AttemptOutcome::DiedMidway: return "died_midway";
    case AttemptOutcome::InProgress: return "in_progress";
  }
  return "?";
}

// ------------------------------------------------------------ label codes

std::uint8_t pack_sensors(const std::vector<int>& sensors) {
  if (sensors.size() > 3) {
    throw std::invalid_argument("pack_sensors: more than three sensors");
  }
  unsigned packed = static_cast<unsigned>(sensors.size()) << 6;
  for (std::size_t i = 0; i < sensors.size(); ++i) {
    if (sensors[i] < 0 || sensors[i] > 3) {
      throw std::invalid_argument("pack_sensors: sensor outside [0, 3]");
    }
    packed |= static_cast<unsigned>(sensors[i]) << (2 * i);
  }
  return static_cast<std::uint8_t>(packed);
}

std::string sensors_label(std::uint8_t packed) {
  std::string label;
  for (unsigned i = 0; i < (packed >> 6u); ++i) {
    if (!label.empty()) label += ',';
    label += 's';
    label += static_cast<char>('0' + ((packed >> (2 * i)) & 3u));
  }
  return label;
}

namespace {

/// Interned job labels, filled front to back by compare-and-swap; a slot
/// never changes once set.
std::array<std::atomic<const char*>, 64> g_labels{};

}  // namespace

int intern_label(const char* label) {
  for (std::size_t i = 0; i < g_labels.size(); ++i) {
    const char* seen = nullptr;
    if (g_labels[i].compare_exchange_strong(seen, label,
                                            std::memory_order_acq_rel) ||
        seen == label || std::strcmp(seen, label) == 0) {
      return static_cast<int>(i);
    }
  }
  throw std::length_error("intern_label: more than 64 distinct labels");
}

const char* label_text(int code) {
  if (code < 0 || static_cast<std::size_t>(code) >= g_labels.size()) return "";
  const char* label = g_labels[static_cast<std::size_t>(code)].load(
      std::memory_order_acquire);
  return label != nullptr ? label : "";
}

// -------------------------------------------------------------------- log

void FlightLog::schedule(std::int64_t slot, double t0_s, double dur_s,
                         const std::vector<int>& sensors, int fallback_hops) {
  events_.push_back({.slot = slot, .t0_s = t0_s, .dur_s = dur_s,
                     .track = sensors.empty() ? 0 : sensors.front(),
                     .count = fallback_hops, .kind = EventKind::Schedule,
                     .sensors = pack_sensors(sensors)});
}

void FlightLog::energy(std::int64_t slot, double t0_s, int sensor,
                       double stored_j, double cost_j) {
  events_.push_back({.slot = slot, .t0_s = t0_s, .value = stored_j,
                     .aux = cost_j, .track = sensor,
                     .kind = EventKind::Energy});
}

void FlightLog::attempt(std::int64_t slot, double t0_s, double dur_s,
                        int sensor, AttemptOutcome outcome, int cls,
                        double confidence, double stored_j) {
  events_.push_back({.slot = slot, .t0_s = t0_s, .dur_s = dur_s,
                     .value = stored_j, .aux = confidence, .track = sensor,
                     .cls = cls, .kind = EventKind::Attempt,
                     .outcome = static_cast<std::uint8_t>(outcome)});
}

void FlightLog::vote(std::int64_t slot, double t0_s, int sensor, int cls,
                     double weight, double age_s, bool fresh) {
  events_.push_back({.slot = slot, .t0_s = t0_s, .value = weight,
                     .aux = age_s, .track = sensor, .cls = cls,
                     .kind = EventKind::Vote, .flag = fresh});
}

void FlightLog::fusion(std::int64_t slot, double t0_s, int cls,
                       double top_total, double second_total, int ballots,
                       bool tie_break) {
  events_.push_back({.slot = slot, .t0_s = t0_s, .value = top_total,
                     .aux = second_total, .cls = cls, .count = ballots,
                     .kind = EventKind::Fusion, .flag = tie_break});
}

void FlightLog::output(std::int64_t slot, double t0_s, double dur_s,
                       int predicted, int truth) {
  events_.push_back({.slot = slot, .t0_s = t0_s, .dur_s = dur_s,
                     .cls = predicted, .count = truth,
                     .kind = EventKind::Output, .flag = predicted == truth});
}

void FlightLog::job(std::int64_t job_index, double t0_s, double dur_s,
                    int shard, const char* label) {
  events_.push_back({.slot = job_index, .t0_s = t0_s, .dur_s = dur_s,
                     .track = shard, .cls = intern_label(label),
                     .kind = EventKind::Job});
}

void FlightLog::admit(std::int64_t session, int shard, double t0_s,
                      std::int64_t arrival_tick, int slots_total) {
  events_.push_back({.session = session, .slot = arrival_tick, .t0_s = t0_s,
                     .track = shard, .count = slots_total,
                     .kind = EventKind::Admit});
}

void FlightLog::step(std::int64_t session, int shard, double t0_s, double dur_s,
                     std::int64_t slot, int predicted, int truth,
                     double stored_total_j, double stored_min_j) {
  events_.push_back({.session = session, .slot = slot, .t0_s = t0_s,
                     .dur_s = dur_s, .value = stored_total_j,
                     .aux = stored_min_j, .track = shard, .cls = predicted,
                     .count = truth, .kind = EventKind::Step,
                     .flag = predicted == truth});
}

void FlightLog::hop(std::int64_t session, int shard, double t0_s,
                    std::int64_t slot, int hops) {
  events_.push_back({.session = session, .slot = slot, .t0_s = t0_s,
                     .track = shard, .count = hops, .kind = EventKind::Hop});
}

void FlightLog::nvp_save(std::int64_t session, int shard, double t0_s,
                         std::int64_t slot, int sensor, int times) {
  events_.push_back({.session = session, .slot = slot, .t0_s = t0_s,
                     .track = shard, .cls = sensor, .count = times,
                     .kind = EventKind::NvpSave});
}

void FlightLog::nvp_restore(std::int64_t session, int shard, double t0_s,
                            std::int64_t slot, int sensor, int times) {
  events_.push_back({.session = session, .slot = slot, .t0_s = t0_s,
                     .track = shard, .cls = sensor, .count = times,
                     .kind = EventKind::NvpRestore});
}

void FlightLog::session_end(std::int64_t session, int shard, double t0_s,
                            std::int64_t completed_tick, int slots,
                            double accuracy, double success_rate_pct,
                            bool completed) {
  events_.push_back({.session = session, .slot = completed_tick,
                     .t0_s = t0_s, .value = accuracy, .aux = success_rate_pct,
                     .track = shard, .count = slots,
                     .kind = EventKind::SessionEnd, .flag = completed});
}

// ------------------------------------------------------------------- ring

FlightRecorder::FlightRecorder(std::size_t capacity)
    : capacity_(std::max<std::size_t>(1, capacity)) {
  // One allocation for the ring's lifetime: its pages become resident as
  // events first land in them, and no growth step ever holds an old and
  // a new buffer at once (or leaves freed buffers resident in the heap).
  ring_.reserve(capacity_);
}

void FlightRecorder::fold(FlightLog& log) {
  for (const TraceEvent& e : log.events()) {
    if (ring_.size() < capacity_) {
      ring_.push_back(e);
    } else {
      ring_[head_] = e;
      head_ = head_ + 1 == capacity_ ? 0 : head_ + 1;
      ++dropped_;
    }
  }
  log.clear();
}

const TraceEvent& FlightRecorder::at(std::size_t i) const {
  const std::size_t j = head_ + i;
  return ring_[j < ring_.size() ? j : j - ring_.size()];
}

std::vector<TraceEvent> FlightRecorder::events() const {
  return recent(ring_.size());
}

std::vector<TraceEvent> FlightRecorder::recent(std::size_t n) const {
  const std::size_t take = std::min(n, ring_.size());
  std::vector<TraceEvent> out;
  out.reserve(take);
  for (std::size_t i = ring_.size() - take; i < ring_.size(); ++i) {
    out.push_back(at(i));
  }
  return out;
}

std::vector<TraceEvent> FlightRecorder::session(std::uint64_t id) const {
  std::vector<TraceEvent> out;
  for (std::size_t i = 0; i < ring_.size(); ++i) {
    const TraceEvent& e = at(i);
    if (e.session == static_cast<std::int64_t>(id)) out.push_back(e);
  }
  return out;
}

void FlightRecorder::clear() {
  ring_.clear();
  head_ = 0;
  dropped_ = 0;
}

// ------------------------------------------------------------------ JSONL

void JsonlSink::write(const std::vector<TraceEvent>& events,
                      std::uint64_t dropped, std::ostream& os) const {
  {
    JsonWriter w;
    w.begin_object();
    w.kv("type", "header");
    w.kv("events", static_cast<std::uint64_t>(events.size()));
    w.kv("dropped", dropped);
    w.end_object();
    os << w.str() << '\n';
  }
  for (const TraceEvent& e : events) {
    JsonWriter w;
    w.begin_object();
    w.kv("kind", to_string(e.kind));
    w.kv("slot", e.slot);
    w.kv("t0_s", e.t0_s);
    if (e.dur_s != 0.0) w.kv("dur_s", e.dur_s);
    if (e.session >= 0) w.kv("session", e.session);
    switch (e.kind) {
      case EventKind::Schedule:
        w.kv("sensors", sensors_label(e.sensors));
        w.kv("fallback_hops", e.count);
        break;
      case EventKind::Energy:
        w.kv("sensor", e.track);
        w.kv("stored_j", e.value);
        w.kv("cost_j", e.aux);
        break;
      case EventKind::Attempt:
        w.kv("sensor", e.track);
        w.kv("outcome", to_string(static_cast<AttemptOutcome>(e.outcome)));
        w.kv("cls", e.cls);
        w.kv("confidence", e.aux);
        w.kv("stored_j", e.value);
        break;
      case EventKind::Vote:
        w.kv("sensor", e.track);
        w.kv("cls", e.cls);
        w.kv("weight", e.value);
        w.kv("age_s", e.aux);
        w.kv("fresh", e.flag);
        break;
      case EventKind::Fusion:
        w.kv("cls", e.cls);
        w.kv("top_total", e.value);
        w.kv("second_total", e.aux);
        w.kv("ballots", e.count);
        w.kv("tie_break", e.flag);
        break;
      case EventKind::Output:
        w.kv("predicted", e.cls);
        w.kv("truth", e.count);
        w.kv("correct", e.flag);
        break;
      case EventKind::Job:
        w.kv("shard", e.track);
        w.kv("label", label_text(e.cls));
        break;
      case EventKind::Admit:
        w.kv("shard", e.track);
        w.kv("arrival_tick", e.slot);
        w.kv("slots_total", e.count);
        break;
      case EventKind::Step:
        w.kv("shard", e.track);
        w.kv("predicted", e.cls);
        w.kv("truth", e.count);
        w.kv("correct", e.flag);
        w.kv("stored_total_j", e.value);
        w.kv("stored_min_j", e.aux);
        break;
      case EventKind::Hop:
        w.kv("shard", e.track);
        w.kv("hops", e.count);
        break;
      case EventKind::NvpSave:
      case EventKind::NvpRestore:
        w.kv("shard", e.track);
        w.kv("sensor", e.cls);
        w.kv("times", e.count);
        break;
      case EventKind::SessionEnd:
        w.kv("shard", e.track);
        w.kv("completed_tick", e.slot);
        w.kv("slots", e.count);
        w.kv("accuracy", e.value);
        w.kv("success_rate_pct", e.aux);
        w.kv("completed", e.flag);
        break;
    }
    w.end_object();
    os << w.str() << '\n';
  }
}

// ----------------------------------------------------------- Chrome trace

namespace {

/// Lane assignment for the trace viewer. Simulator events share pid 1 with
/// one tid per sensor plus dedicated lanes for scheduling and the fused
/// output; fleet jobs get pid 2 with one tid per shard; serve events pid
/// 4 with one tid per session-table shard.
constexpr int kPidRun = 0;
constexpr int kPidSim = 1;
constexpr int kPidFleet = 2;
constexpr int kPidServe = 4;
constexpr int kTidSchedule = 100;
constexpr int kTidFusion = 101;
constexpr int kTidOutput = 102;

struct Lane {
  int pid = kPidRun;
  int tid = 0;
};

Lane lane_of(const TraceEvent& e) {
  switch (e.kind) {
    case EventKind::Schedule: return {kPidSim, kTidSchedule};
    case EventKind::Energy: return {kPidSim, e.track};
    case EventKind::Attempt: return {kPidSim, e.track};
    case EventKind::Vote: return {kPidSim, e.track};
    case EventKind::Fusion: return {kPidSim, kTidFusion};
    case EventKind::Output: return {kPidSim, kTidOutput};
    case EventKind::Job: return {kPidFleet, e.track};
    case EventKind::Admit:
    case EventKind::Step:
    case EventKind::Hop:
    case EventKind::NvpSave:
    case EventKind::NvpRestore:
    case EventKind::SessionEnd:
      return {kPidServe, e.track};  // one lane per session-table shard
  }
  return {};
}

std::string lane_thread_name(const Lane& lane) {
  if (lane.pid == kPidSim) {
    if (lane.tid == kTidSchedule) return "schedule";
    if (lane.tid == kTidFusion) return "fusion";
    if (lane.tid == kTidOutput) return "output";
    return "sensor " + std::to_string(lane.tid);
  }
  if (lane.pid == kPidFleet) return "shard " + std::to_string(lane.tid);
  if (lane.pid == kPidServe) return "shard " + std::to_string(lane.tid);
  return "run";
}

const char* pid_name(int pid) {
  switch (pid) {
    case kPidSim: return "simulator";
    case kPidFleet: return "fleet";
    case kPidServe: return "serve";
    default: return "run";
  }
}

void common_fields(JsonWriter& w, const char* name, const char* ph,
                   const Lane& lane, double ts_us) {
  w.kv("name", name);
  w.kv("ph", ph);
  w.kv("pid", lane.pid);
  w.kv("tid", lane.tid);
  w.kv("ts", ts_us);
}

}  // namespace

void ChromeTraceSink::write(const std::vector<TraceEvent>& events,
                            std::uint64_t dropped, std::ostream& os) const {
  JsonWriter w;
  w.begin_object();
  w.kv("displayTimeUnit", "ms");
  w.kv("origin_dropped_events", dropped);
  w.key("traceEvents").begin_array();

  // Name every (pid, tid) lane we are about to emit, plus the processes.
  std::vector<std::pair<int, int>> lanes_seen;
  std::vector<int> pids_seen;
  for (const TraceEvent& e : events) {
    const Lane lane = lane_of(e);
    if (e.kind == EventKind::Energy) {
      // Counter series are keyed by name, not tid; only the pid matters.
      bool have_pid = false;
      for (const int p : pids_seen) have_pid = have_pid || p == lane.pid;
      if (!have_pid) pids_seen.push_back(lane.pid);
      continue;
    }
    bool seen = false;
    for (const auto& l : lanes_seen) {
      seen = seen || (l.first == lane.pid && l.second == lane.tid);
    }
    if (!seen) lanes_seen.push_back({lane.pid, lane.tid});
    bool have_pid = false;
    for (const int p : pids_seen) have_pid = have_pid || p == lane.pid;
    if (!have_pid) pids_seen.push_back(lane.pid);
  }
  for (const int pid : pids_seen) {
    w.begin_object();
    w.kv("name", "process_name");
    w.kv("ph", "M");
    w.kv("pid", pid);
    w.key("args").begin_object().kv("name", pid_name(pid)).end_object();
    w.end_object();
  }
  for (const auto& [pid, tid] : lanes_seen) {
    w.begin_object();
    w.kv("name", "thread_name");
    w.kv("ph", "M");
    w.kv("pid", pid);
    w.kv("tid", tid);
    w.key("args")
        .begin_object()
        .kv("name", lane_thread_name({pid, tid}))
        .end_object();
    w.end_object();
  }

  for (const TraceEvent& e : events) {
    const Lane lane = lane_of(e);
    const double ts_us = e.t0_s * 1e6;
    const double dur_us = e.dur_s * 1e6;
    w.begin_object();
    switch (e.kind) {
      case EventKind::Schedule:
        common_fields(w, "plan", "X", lane, ts_us);
        w.kv("dur", dur_us);
        w.key("args").begin_object();
        w.kv("slot", e.slot);
        w.kv("sensors", sensors_label(e.sensors));
        w.kv("fallback_hops", e.count);
        w.end_object();
        break;
      case EventKind::Energy:
        common_fields(
            w, ("stored_j.sensor" + std::to_string(e.track)).c_str(), "C",
            lane, ts_us);
        w.key("args").begin_object();
        w.kv("J", e.value);
        w.end_object();
        break;
      case EventKind::Attempt: {
        const auto outcome = static_cast<AttemptOutcome>(e.outcome);
        common_fields(w, to_string(outcome), "X", lane, ts_us);
        w.kv("dur", dur_us);
        w.key("args").begin_object();
        w.kv("slot", e.slot);
        w.kv("cls", e.cls);
        w.kv("confidence", e.aux);
        w.kv("stored_j", e.value);
        w.end_object();
        break;
      }
      case EventKind::Vote:
        common_fields(w, "vote", "i", lane, ts_us);
        w.kv("s", "t");
        w.key("args").begin_object();
        w.kv("slot", e.slot);
        w.kv("cls", e.cls);
        w.kv("weight", e.value);
        w.kv("age_s", e.aux);
        w.kv("fresh", e.flag);
        w.end_object();
        break;
      case EventKind::Fusion:
        common_fields(w, "fusion", "i", lane, ts_us);
        w.kv("s", "t");
        w.key("args").begin_object();
        w.kv("slot", e.slot);
        w.kv("cls", e.cls);
        w.kv("top_total", e.value);
        w.kv("second_total", e.aux);
        w.kv("ballots", e.count);
        w.kv("tie_break", e.flag);
        w.end_object();
        break;
      case EventKind::Output:
        common_fields(w, e.flag ? "correct" : "wrong", "X", lane, ts_us);
        w.kv("dur", dur_us);
        w.key("args").begin_object();
        w.kv("slot", e.slot);
        w.kv("predicted", e.cls);
        w.kv("truth", e.count);
        w.end_object();
        break;
      case EventKind::Job: {
        const char* label = label_text(e.cls);
        common_fields(w, *label == '\0' ? "job" : label, "X", lane, ts_us);
        w.kv("dur", dur_us);
        w.key("args").begin_object();
        w.kv("job", e.slot);
        w.end_object();
        break;
      }
      case EventKind::Admit:
        common_fields(w, "admit", "i", lane, ts_us);
        w.kv("s", "t");
        w.key("args").begin_object();
        w.kv("session", e.session);
        w.kv("arrival_tick", e.slot);
        w.kv("slots_total", e.count);
        w.end_object();
        break;
      case EventKind::Step:
        common_fields(w, e.flag ? "step" : "step_wrong", "X", lane, ts_us);
        w.kv("dur", dur_us);
        w.key("args").begin_object();
        w.kv("session", e.session);
        w.kv("slot", e.slot);
        w.kv("predicted", e.cls);
        w.kv("truth", e.count);
        w.kv("stored_total_j", e.value);
        w.kv("stored_min_j", e.aux);
        w.end_object();
        break;
      case EventKind::Hop:
        common_fields(w, "hop", "i", lane, ts_us);
        w.kv("s", "t");
        w.key("args").begin_object();
        w.kv("session", e.session);
        w.kv("slot", e.slot);
        w.kv("hops", e.count);
        w.end_object();
        break;
      case EventKind::NvpSave:
      case EventKind::NvpRestore:
        common_fields(w, e.kind == EventKind::NvpSave ? "nvp_save"
                                                      : "nvp_restore",
                      "i", lane, ts_us);
        w.kv("s", "t");
        w.key("args").begin_object();
        w.kv("session", e.session);
        w.kv("slot", e.slot);
        w.kv("sensor", e.cls);
        w.kv("times", e.count);
        w.end_object();
        break;
      case EventKind::SessionEnd:
        common_fields(w, "session_end", "i", lane, ts_us);
        w.kv("s", "t");
        w.key("args").begin_object();
        w.kv("session", e.session);
        w.kv("completed_tick", e.slot);
        w.kv("slots", e.count);
        w.kv("accuracy", e.value);
        w.kv("success_rate_pct", e.aux);
        w.end_object();
        break;
    }
    w.end_object();
  }
  w.end_array();
  w.end_object();
  os << w.str() << '\n';
}

void write_trace(const FlightRecorder& recorder, const TraceSink& sink,
                 const std::string& path) {
  std::ofstream os(path);
  if (!os) throw std::runtime_error("write_trace: cannot open " + path);
  sink.write(recorder.events(), recorder.dropped(), os);
  if (!os) throw std::runtime_error("write_trace: write failed for " + path);
}

}  // namespace origin::obs
