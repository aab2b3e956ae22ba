#include "core/policy.hpp"

#include <algorithm>
#include <cmath>

#include <stdexcept>

namespace origin::core {

void Policy::on_result(int /*sensor*/, const net::Classification& result,
                       const SlotContext& /*ctx*/) {
  last_result_class_ = result.predicted_class;
}

void Policy::reset() { last_result_class_ = -1; }

std::vector<RecallBallot> recall_ballots(const net::HostDevice& host,
                                         double now_s, double horizon_s) {
  std::vector<RecallBallot> ballots;
  for (int s = 0; s < data::kNumSensors; ++s) {
    const auto& vote = host.vote(static_cast<data::SensorLocation>(s));
    if (!vote) continue;
    if (now_s - vote->timestamp_s > horizon_s) continue;  // too stale
    RecallBallot rb;
    rb.sensor = s;
    rb.ballot.cls = vote->classification.predicted_class;
    rb.ballot.weight = 1.0;
    // Tie-break toward the most recent vote: when the recalled votes
    // disagree three ways, the freshest inference is the best guess.
    rb.ballot.tie_priority = -vote->timestamp_s;
    ballots.push_back(rb);
  }
  return ballots;
}

// ---------------------------------------------------------------- NaiveAll

NaiveAllPolicy::NaiveAllPolicy(int num_classes) : num_classes_(num_classes) {
  if (num_classes <= 0) throw std::invalid_argument("NaiveAllPolicy: num_classes <= 0");
}

std::vector<int> NaiveAllPolicy::plan(const SlotContext& /*ctx*/) {
  return {0, 1, 2};
}

std::optional<int> NaiveAllPolicy::fuse(const net::HostDevice& host,
                                        const SlotContext& /*ctx*/) {
  // Conventional ensemble: majority over whatever arrived this slot; when
  // nothing arrived the system can only repeat its previous answer.
  std::vector<Ballot> fresh;
  for (int s = 0; s < data::kNumSensors; ++s) {
    const auto& vote = host.vote(static_cast<data::SensorLocation>(s));
    if (vote && vote->fresh) {
      fresh.push_back({vote->classification.predicted_class, 1.0,
                       static_cast<double>(s)});
    }
  }
  if (!fresh.empty()) return majority_vote(fresh, num_classes_);
  if (last_result_class_ >= 0) return last_result_class_;
  return std::nullopt;
}

// ---------------------------------------------------------------- PlainRR

PlainRRPolicy::PlainRRPolicy(ExtendedRoundRobin schedule)
    : schedule_(schedule) {}

std::vector<int> PlainRRPolicy::plan(const SlotContext& ctx) {
  if (!schedule_.is_opportunity(ctx.slot)) return {};
  return {static_cast<int>(schedule_.default_sensor(ctx.slot))};
}

std::optional<int> PlainRRPolicy::fuse(const net::HostDevice& /*host*/,
                                       const SlotContext& /*ctx*/) {
  if (last_result_class_ >= 0) return last_result_class_;
  return std::nullopt;
}

// ---------------------------------------------------------------- AAS

AASPolicy::AASPolicy(ExtendedRoundRobin schedule, RankTable ranks)
    : PlainRRPolicy(schedule), ranks_(std::move(ranks)) {}

int AASPolicy::choose_sensor(const SlotContext& ctx) const {
  last_fallback_hops_ = 0;
  // Coverage pass (recall-based policies only): refresh the charged sensor
  // whose recalled vote has gone stalest past the deadline.
  int stalest = -1;
  double stalest_age = coverage_deadline_s_;
  for (int s = 0; s < data::kNumSensors; ++s) {
    const auto& node = ctx.nodes[static_cast<std::size_t>(s)];
    if (node.can_infer() && node.vote_age_s > stalest_age) {
      stalest_age = node.vote_age_s;
      stalest = s;
    }
  }
  if (stalest >= 0) return stalest;

  const int anticipated = anticipated_class();
  if (anticipated < 0) {
    // No anticipation yet: fall back to the plain rotation.
    return static_cast<int>(schedule_.default_sensor(ctx.slot));
  }
  // Anticipated activity = last classified activity (temporal continuity).
  const auto order = ranks_.order(anticipated);
  for (std::size_t hop = 0; hop < order.size(); ++hop) {
    if (ctx.nodes[static_cast<std::size_t>(order[hop])].can_infer()) {
      last_fallback_hops_ = static_cast<int>(hop);
      return static_cast<int>(order[hop]);
    }
  }
  // Nobody has energy; schedule the best-ranked sensor so the failed
  // attempt is accounted against it.
  last_fallback_hops_ = static_cast<int>(order.size());
  return static_cast<int>(order[0]);
}

std::vector<int> AASPolicy::plan(const SlotContext& ctx) {
  if (!schedule_.is_opportunity(ctx.slot)) return {};
  return {choose_sensor(ctx)};
}

// ---------------------------------------------------------------- AASR

AASRPolicy::AASRPolicy(ExtendedRoundRobin schedule, RankTable ranks)
    : AASPolicy(schedule, std::move(ranks)) {}

void AASRPolicy::set_recall_horizon_s(double horizon_s) {
  if (horizon_s <= 0.0) {
    throw std::invalid_argument("AASRPolicy: recall horizon must be positive");
  }
  recall_horizon_s_ = horizon_s;
  // Keep every member's recall comfortably inside the horizon.
  coverage_deadline_s_ = 0.6 * horizon_s;
}

void AASRPolicy::reset() {
  AASPolicy::reset();
  last_fused_ = -1;
}

std::optional<int> AASRPolicy::fuse(const net::HostDevice& host,
                                    const SlotContext& ctx) {
  const auto recalled = recall_ballots(host, ctx.time_s, recall_horizon_s_);
  std::optional<int> fused;
  if (recalled.empty()) {
    if (last_result_class_ >= 0) fused = last_result_class_;
  } else {
    std::vector<Ballot> ballots;
    ballots.reserve(recalled.size());
    for (const auto& rb : recalled) ballots.push_back(rb.ballot);
#if ORIGIN_TRACE_ENABLED
    if (trace_) {
      for (const auto& rb : recalled) {
        const auto& vote = host.vote(static_cast<data::SensorLocation>(rb.sensor));
        trace_->vote(ctx.slot, ctx.time_s, rb.sensor, rb.ballot.cls,
                     rb.ballot.weight, vote ? ctx.time_s - vote->timestamp_s : 0.0,
                     vote && vote->fresh);
      }
      VoteDiagnostics diag;
      fused = majority_vote(ballots, ranks_.num_classes(), &diag);
      trace_->fusion(ctx.slot, ctx.time_s, fused.value_or(-1), diag.top_total,
                     diag.second_total, static_cast<int>(ballots.size()),
                     diag.tie_break);
    } else {
      fused = majority_vote(ballots, ranks_.num_classes());
    }
#else
    fused = majority_vote(ballots, ranks_.num_classes());
#endif
  }
  if (fused) last_fused_ = *fused;
  return fused;
}

// ---------------------------------------------------------------- Origin

OriginPolicy::OriginPolicy(ExtendedRoundRobin schedule, RankTable ranks,
                           ConfidenceMatrix confidence, bool adaptive)
    : AASRPolicy(schedule, std::move(ranks)),
      confidence_(confidence),
      initial_confidence_(std::move(confidence)),
      adaptive_(adaptive) {}

void OriginPolicy::on_result(int sensor, const net::Classification& result,
                             const SlotContext& ctx) {
  AASRPolicy::on_result(sensor, result, ctx);
}

void OriginPolicy::set_recency_tau_s(double tau_s) {
  if (tau_s <= 0.0) throw std::invalid_argument("OriginPolicy: tau must be positive");
  recency_tau_s_ = tau_s;
}

std::optional<int> OriginPolicy::fuse(const net::HostDevice& host,
                                      const SlotContext& ctx) {
  // Recency is measured relative to the newest vote, not wall-clock age:
  // between inference arrivals the relative ages are constant, so the
  // fused output cannot flip-flop, and the newest opinion always carries
  // full weight no matter how sparse the schedule ran.
  double newest_ts = -std::numeric_limits<double>::infinity();
  for (int s = 0; s < data::kNumSensors; ++s) {
    const auto& vote = host.vote(static_cast<data::SensorLocation>(s));
    if (vote && ctx.time_s - vote->timestamp_s <= recall_horizon_s_) {
      newest_ts = std::max(newest_ts, vote->timestamp_s);
    }
  }
  std::vector<Ballot> ballots;
  for (int s = 0; s < data::kNumSensors; ++s) {
    const auto& vote = host.vote(static_cast<data::SensorLocation>(s));
    if (!vote) continue;
    if (ctx.time_s - vote->timestamp_s > recall_horizon_s_) continue;
    Ballot b;
    b.cls = vote->classification.predicted_class;
    // Transmitted instantaneous confidence x adaptive per-(sensor, class)
    // prior x relative-recency decay.
    const double rel_age_s = newest_ts - vote->timestamp_s;
    b.weight = vote->classification.confidence *
               confidence_.weight(static_cast<data::SensorLocation>(s), b.cls) *
               std::exp(-std::max(0.0, rel_age_s) / recency_tau_s_);
    b.tie_priority = -vote->timestamp_s;
    ORIGIN_TRACE(trace_, vote(ctx.slot, ctx.time_s, s, b.cls, b.weight,
                              ctx.time_s - vote->timestamp_s, vote->fresh));
    ballots.push_back(b);
  }
  std::optional<int> fused;
  if (ballots.empty()) {
    if (last_result_class_ >= 0) fused = last_result_class_;
  } else {
#if ORIGIN_TRACE_ENABLED
    if (trace_) {
      VoteDiagnostics diag;
      fused = weighted_majority_vote(ballots, ranks_.num_classes(), &diag);
      trace_->fusion(ctx.slot, ctx.time_s, fused.value_or(-1), diag.top_total,
                     diag.second_total, static_cast<int>(ballots.size()),
                     diag.tie_break);
    } else {
      fused = weighted_majority_vote(ballots, ranks_.num_classes());
    }
#else
    fused = weighted_majority_vote(ballots, ranks_.num_classes());
#endif
  }
  if (fused) {
    last_fused_ = *fused;
    // Online personalization, gated on consensus margin: without ground
    // truth, self-training on low-confidence decisions amplifies
    // systematic errors, so the matrix only adapts when the winning class
    // clearly dominated the vote.
    if (adaptive_ && !ballots.empty()) {
      std::vector<double> totals(static_cast<std::size_t>(ranks_.num_classes()), 0.0);
      int supporters = 0;
      for (const auto& b : ballots) {
        totals[static_cast<std::size_t>(b.cls)] += b.weight;
        if (b.cls == *fused) ++supporters;
      }
      const double top = totals[static_cast<std::size_t>(*fused)];
      double second = 0.0;
      for (int c = 0; c < ranks_.num_classes(); ++c) {
        if (c != *fused) second = std::max(second, totals[static_cast<std::size_t>(c)]);
      }
      // Trustworthy consensus = at least two sensors agree (a single heavy
      // vote must never discount the others) with a clear weight margin.
      if (supporters >= 2 && top >= 2.0 * second) {
        for (int s = 0; s < data::kNumSensors; ++s) {
          const auto& vote = host.vote(static_cast<data::SensorLocation>(s));
          if (!vote || !vote->fresh) continue;
          confidence_.update_with_consensus(
              static_cast<data::SensorLocation>(s),
              vote->classification.predicted_class,
              vote->classification.predicted_class == *fused);
        }
      }
    }
  }
  return fused;
}

void OriginPolicy::reset() {
  AASRPolicy::reset();
  confidence_ = initial_confidence_;
}

// ------------------------------------------------------------ EnergyPaced

EnergyPacedOriginPolicy::EnergyPacedOriginPolicy(RankTable ranks,
                                                 ConfidenceMatrix confidence,
                                                 int min_gap_slots)
    : OriginPolicy(ExtendedRoundRobin(3), std::move(ranks),
                   std::move(confidence)),
      min_gap_slots_(min_gap_slots) {
  if (min_gap_slots < 1) {
    throw std::invalid_argument("EnergyPacedOriginPolicy: gap must be >= 1");
  }
}

void EnergyPacedOriginPolicy::reset() {
  OriginPolicy::reset();
  last_attempt_slot_ = std::numeric_limits<int>::min() / 2;
}

std::vector<int> EnergyPacedOriginPolicy::plan(const SlotContext& ctx) {
  if (ctx.slot - last_attempt_slot_ < min_gap_slots_) return {};
  bool any_charged = false;
  for (const auto& node : ctx.nodes) {
    if (node.can_infer()) any_charged = true;
  }
  if (!any_charged) return {};  // self-paced: wait for the harvest
  last_attempt_slot_ = ctx.slot;
  return {choose_sensor(ctx)};
}

}  // namespace origin::core
