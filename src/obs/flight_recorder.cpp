#include "obs/flight_recorder.hpp"

#include <algorithm>

namespace origin::obs {

TraceEvent FlightRecord::event() const {
  TraceEvent e;
  e.kind = kind;
  e.flag = flag;
  e.track = track;
  e.slot = slot;
  e.t0_s = t0_s;
  e.dur_s = dur_s;
  e.cls = cls;
  e.value = value;
  e.aux = aux;
  e.count = count;
  e.session = session;
  return e;
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

FlightRecorder::FlightRecorder(std::size_t capacity)
    : capacity_(std::max<std::size_t>(1, capacity)) {
  // One allocation for the ring's lifetime: its pages become resident as
  // records first land in them, and no growth step ever holds an old and
  // a new buffer at once (or leaves freed buffers resident in the heap).
  ring_.reserve(capacity_);
}

void FlightRecorder::fold(FlightLog& log) {
  for (const FlightRecord& r : log.events()) {
    if (ring_.size() < capacity_) {
      ring_.push_back(r);
    } else {
      ring_[head_] = r;
      head_ = head_ + 1 == capacity_ ? 0 : head_ + 1;
      ++dropped_;
    }
  }
  log.clear();
}

const FlightRecord& FlightRecorder::at(std::size_t i) const {
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
    out.push_back(at(i).event());
  }
  return out;
}

std::vector<TraceEvent> FlightRecorder::session(std::uint64_t id) const {
  std::vector<TraceEvent> out;
  for (std::size_t i = 0; i < ring_.size(); ++i) {
    const FlightRecord& r = at(i);
    if (r.session == static_cast<std::int64_t>(id)) out.push_back(r.event());
  }
  return out;
}

void FlightRecorder::clear() {
  ring_.clear();
  head_ = 0;
  dropped_ = 0;
}

}  // namespace origin::obs
