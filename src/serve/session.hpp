// One live serving session: a user's personal stream cursor, scheduling
// policy and slot-stepped simulation state, bound to shard-owned deployed
// networks. A session is the unit the serving loop admits, advances one
// slot per tick, snapshots and evicts on completion.
#pragma once

#include <cstdint>
#include <memory>

#include "data/user_profile.hpp"
#include "serve/personalize.hpp"
#include "sim/experiment.hpp"
#include "sim/slot_stepper.hpp"

namespace origin::serve {

/// Everything that identifies a session's workload — derivable from the
/// serve config and the session id alone, which is what lets a snapshot
/// store just the id and re-derive the rest on restore.
struct SessionSpec {
  std::uint64_t id = 0;  // dense [0, users)
  std::uint64_t arrival_tick = 0;
  data::UserProfile user = data::reference_user();
  std::uint64_t seed_offset = 0;
  sim::PolicyKind policy = sim::PolicyKind::Origin;
  int rr_cycle = 12;
  sim::ModelSet set = sim::ModelSet::BL2;
};

/// Sessions hold a SlotStepper pointing into their own cursor, so they
/// live behind unique_ptr and never move.
class Session {
 public:
  /// `models` is the owning shard's deployed-network scratch (must match
  /// spec.set) and must outlive the session; sessions of one shard share
  /// it safely because the shard serves them one slot at a time. The
  /// serve tier's event stream is the loop's flight recorder, so the
  /// stepper records no slot-level trace.
  Session(const sim::Experiment& experiment, SessionSpec spec,
          std::array<nn::Sequential, data::kNumSensors>* models,
          int ring_capacity);

  /// Compatibility overload for the repository benchmark's serve replica
  /// (benchmark/serve_replica.hpp), which still passes a retired
  /// in-shard block size of 0. Throws std::invalid_argument unless
  /// `batch_slots` is 0. Goes away with the next change to the benchmark.
  Session(const sim::Experiment& experiment, SessionSpec spec,
          std::array<nn::Sequential, data::kNumSensors>* models,
          int ring_capacity, int batch_slots);

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  const SessionSpec& spec() const { return spec_; }
  bool done() const { return stepper_.done(); }
  sim::SlotStepper& stepper() { return stepper_; }
  const sim::SlotStepper& stepper() const { return stepper_; }

  /// Per-session fine-tuning state; null unless the shard's personalize
  /// mode is on (enable_personalize() is called on admission and on
  /// snapshot restore). The state's synthesis context is this session's
  /// own cursor's.
  PersonalizeState* personalize() { return personalize_.get(); }
  const PersonalizeState* personalize() const { return personalize_.get(); }
  void enable_personalize() {
    if (personalize_) return;
    personalize_ = std::make_unique<PersonalizeState>();
    personalize_->context = cursor_.context();
  }

 private:
  SessionSpec spec_;
  std::unique_ptr<core::Policy> policy_;
  data::StreamCursor cursor_;
  sim::SlotStepper stepper_;
  std::unique_ptr<PersonalizeState> personalize_;
};

}  // namespace origin::serve
