// Scheduling/fusion policies — the decision logic each variant of the
// paper contributes:
//
//   NaiveAllPolicy   every sensor attempts every slot (Fig. 1a)
//   PlainRRPolicy    extended round-robin rotation, wait-compute (Fig. 1b/4)
//   AASPolicy        + activity-aware sensor choice with energy fallback
//   AASRPolicy       + host-side recall and majority voting
//   OriginPolicy     + adaptive confidence-weighted voting (the paper)
//
// The simulator drives a policy with three calls per slot: plan() (who
// attempts), on_result() (a sensor finished and reported), and fuse() (the
// system-level classification for this slot).
#pragma once

#include <array>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/confidence.hpp"
#include "core/ensemble.hpp"
#include "core/rank_table.hpp"
#include "core/schedule.hpp"
#include "net/host.hpp"
#include "net/message.hpp"
#include "obs/trace.hpp"

namespace origin::core {

/// What a policy may observe about a node when planning: its stored
/// energy and the energy one inference costs (an on-node check in the
/// real system; the "does the best sensor have enough energy" test of
/// §III-B).
struct NodeView {
  double stored_j = 0.0;
  double cost_j = 0.0;
  /// Seconds since this sensor last completed an inference (infinity if
  /// never) — lets recall-based schedulers keep every ensemble member's
  /// vote fresh.
  double vote_age_s = std::numeric_limits<double>::infinity();
  /// False once the device has failed (it stops responding to activation
  /// signals — the scheduler must route around it).
  bool alive = true;
  bool can_infer() const { return alive && stored_j >= cost_j; }
};

struct SlotContext {
  int slot = 0;
  double time_s = 0.0;
  std::array<NodeView, data::kNumSensors> nodes;
};

/// How a scheduled attempt consumes energy (paper §II's wait-compute
/// discussion):
///   WaitCompute  run only once a full inference's energy is stored — the
///                activity-aware policies' discipline;
///   EagerNvp     start regardless, checkpoint progress on power loss and
///                resume at the next opportunity (ER-r on NVP hardware;
///                the completed inference may be computed on a stale
///                window);
///   Deadline     the conventional ensemble: each slot's inference must
///                finish within the slot or its partial work is discarded.
enum class ExecutionModel { WaitCompute, EagerNvp, Deadline };

class Policy {
 public:
  virtual ~Policy() = default;

  virtual std::string name() const = 0;

  /// Sensors (by index) that should attempt an inference this slot.
  virtual std::vector<int> plan(const SlotContext& ctx) = 0;

  /// Called when sensor `sensor` completes an inference.
  virtual void on_result(int sensor, const net::Classification& result,
                         const SlotContext& ctx);

  /// System-level classification for this slot (nullopt = no output yet).
  virtual std::optional<int> fuse(const net::HostDevice& host,
                                  const SlotContext& ctx) = 0;

  /// Energy-consumption discipline of this policy's attempts.
  virtual ExecutionModel execution() const { return ExecutionModel::WaitCompute; }

  /// Clears cross-run state; called before each simulation run.
  virtual void reset();

  /// Borrowed event log (nullptr = no tracing). The simulator forwards
  /// its own log here so fusing policies can expose the ballots and
  /// weights behind each decision.
  void set_trace(obs::FlightLog* trace) { trace_ = trace; }

  /// Energy-fallback hops the most recent plan() took below the
  /// best-ranked sensor (0 for rotation policies; kNumSensors when every
  /// candidate lacked energy).
  virtual int last_plan_fallback_hops() const { return 0; }

  /// Snapshot surface (serve/): the anticipated-class memory that must
  /// survive a serving-process restart for a restored session to plan
  /// identically. restore_last_result_class is for restore only.
  int last_result_class() const { return last_result_class_; }
  void restore_last_result_class(int cls) { last_result_class_ = cls; }

 protected:
  obs::FlightLog* trace_ = nullptr;
  /// The activity the policy anticipates next (temporal continuity):
  /// the most recent classification the policy trusts. Base policies use
  /// the last raw sensor result; fusing policies use the ensemble output,
  /// which is far more robust to a single bad inference.
  virtual int anticipated_class() const { return last_result_class_; }

  /// Most recent successful classification by any sensor (class id).
  int last_result_class_ = -1;
};

/// All three sensors attempt every incoming inference — the conventional
/// ensemble the paper's motivation section shows failing (Fig. 1a).
class NaiveAllPolicy : public Policy {
 public:
  explicit NaiveAllPolicy(int num_classes);
  std::string name() const override { return "naive-all"; }
  std::vector<int> plan(const SlotContext& ctx) override;
  std::optional<int> fuse(const net::HostDevice& host, const SlotContext& ctx) override;
  ExecutionModel execution() const override { return ExecutionModel::Deadline; }

 private:
  int num_classes_;
};

/// Plain extended round-robin: the fixed rotation decides who attempts
/// (eagerly, trusting the NVP to keep partial progress across power
/// emergencies — Fig. 1b's discipline); the system output is the most
/// recent completed classification.
class PlainRRPolicy : public Policy {
 public:
  explicit PlainRRPolicy(ExtendedRoundRobin schedule);
  std::string name() const override { return schedule_.name(); }
  std::vector<int> plan(const SlotContext& ctx) override;
  std::optional<int> fuse(const net::HostDevice& host, const SlotContext& ctx) override;
  ExecutionModel execution() const override { return ExecutionModel::EagerNvp; }

 protected:
  ExtendedRoundRobin schedule_;
};

/// Activity-aware scheduling: at each opportunity activate the best-ranked
/// sensor for the anticipated activity (= the last classified activity),
/// falling back down the ranking when a sensor lacks energy.
class AASPolicy : public PlainRRPolicy {
 public:
  AASPolicy(ExtendedRoundRobin schedule, RankTable ranks);
  std::string name() const override { return schedule_.name() + "+AAS"; }
  std::vector<int> plan(const SlotContext& ctx) override;
  /// The energy check before activation is integral to AAS (§III-B).
  ExecutionModel execution() const override { return ExecutionModel::WaitCompute; }
  int last_plan_fallback_hops() const override { return last_fallback_hops_; }

 protected:
  /// The sensor to activate for the anticipated activity, honoring energy
  /// fallback; the best-ranked sensor if none can run (its attempt will
  /// record the energy failure). Recall-based subclasses additionally keep
  /// the ensemble covered: a charged sensor whose last vote is older than
  /// the coverage deadline takes priority — a recalled vote is only a
  /// valid proxy while it is recent (§III-B), so the scheduler maintains
  /// the recall buffer it feeds.
  int choose_sensor(const SlotContext& ctx) const;

  RankTable ranks_;
  /// Infinity = plain AAS (no recall to maintain).
  double coverage_deadline_s_ = std::numeric_limits<double>::infinity();
  /// Set by choose_sensor (observability): rank positions skipped because
  /// higher-ranked sensors lacked energy.
  mutable int last_fallback_hops_ = 0;
};

/// AAS + Recall: the host answers with a majority vote over the recall
/// buffer (fresh result plus the remembered votes of inactive sensors).
/// A recalled vote is only a good proxy for a sensor's current opinion
/// while the activity persists (paper §III-B's temporal-continuity
/// hypothesis), so votes older than the recall horizon are excluded.
class AASRPolicy : public AASPolicy {
 public:
  AASRPolicy(ExtendedRoundRobin schedule, RankTable ranks);
  std::string name() const override { return schedule_.name() + "+AASR"; }
  std::optional<int> fuse(const net::HostDevice& host, const SlotContext& ctx) override;

  /// Horizon in seconds beyond which a recalled vote is considered too
  /// stale to represent the sensor. Default: unlimited until configured
  /// (the Experiment harness sets a fraction of the expected dwell).
  void set_recall_horizon_s(double horizon_s);
  double recall_horizon_s() const { return recall_horizon_s_; }

  void reset() override;

  /// Snapshot surface (serve/): the fused-output memory, alongside the
  /// base class's last_result_class.
  int last_fused() const { return last_fused_; }
  void restore_last_fused(int cls) { last_fused_ = cls; }

 protected:
  /// Fusing policies anticipate from the ensemble output.
  int anticipated_class() const override {
    return last_fused_ >= 0 ? last_fused_ : last_result_class_;
  }

  double recall_horizon_s_ = std::numeric_limits<double>::infinity();
  int last_fused_ = -1;
};

/// Origin: AASR with confidence-weighted voting. A vote's weight combines
/// (a) the confidence score the sensor transmitted with the result — the
/// variance of its softmax output, low on genuinely ambiguous windows,
/// (b) the adaptive confidence-matrix entry for that (sensor, class) —
/// the per-user prior updated by moving average of the sensor's agreement
/// with clear-consensus decisions, and (c) an exponential recency decay,
/// so recalled votes fade as the activity may have moved on.
class OriginPolicy : public AASRPolicy {
 public:
  OriginPolicy(ExtendedRoundRobin schedule, RankTable ranks,
               ConfidenceMatrix confidence, bool adaptive = true);
  std::string name() const override { return schedule_.name() + "+Origin"; }
  void on_result(int sensor, const net::Classification& result,
                 const SlotContext& ctx) override;
  std::optional<int> fuse(const net::HostDevice& host, const SlotContext& ctx) override;
  void reset() override;

  const ConfidenceMatrix& confidence() const { return confidence_; }
  ConfidenceMatrix& confidence() { return confidence_; }

  /// Time constant of the recency decay (seconds).
  void set_recency_tau_s(double tau_s);
  double recency_tau_s() const { return recency_tau_s_; }

 private:
  ConfidenceMatrix confidence_;
  ConfidenceMatrix initial_confidence_;
  bool adaptive_;
  double recency_tau_s_ = 4.5;
};

/// One recalled vote with the sensor that produced it.
struct RecallBallot {
  int sensor = 0;
  Ballot ballot;
};

/// "In case of abundant energy supply, one can use a round robin policy
/// fit for the given EH source" (paper §IV-C): instead of a fixed ER-r
/// cycle, attempt whenever at least `min_gap_slots` have passed since the
/// last attempt AND some sensor holds a full charge — the schedule paces
/// itself to the harvest. Sensor choice and fusion are Origin's.
class EnergyPacedOriginPolicy : public OriginPolicy {
 public:
  EnergyPacedOriginPolicy(RankTable ranks, ConfidenceMatrix confidence,
                          int min_gap_slots = 2);
  std::string name() const override { return "EnergyPaced+Origin"; }
  std::vector<int> plan(const SlotContext& ctx) override;
  void reset() override;

  int min_gap_slots() const { return min_gap_slots_; }

 private:
  int min_gap_slots_;
  int last_attempt_slot_ = std::numeric_limits<int>::min() / 2;
};

/// Ballots from the host's recall buffer (fresh + recalled votes), with
/// votes older than `horizon_s` (relative to `now_s`) dropped. Ballot
/// tie_priority prefers the freshest vote.
std::vector<RecallBallot> recall_ballots(const net::HostDevice& host,
                                         double now_s, double horizon_s);

}  // namespace origin::core
