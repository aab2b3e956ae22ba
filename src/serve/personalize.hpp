// In-shard bounded per-user fine-tuning (ROADMAP item 4): a served
// session accumulates its recent correctly-classified windows and, on a
// fixed slot cadence, runs a batched Trainer::fit micro-fit of the
// deployed per-sensor nets on the shard's model scratch. Adaptation is
// bounded by an optimizer-step budget per user and confined to the
// trailing parameterized layers (the classifier head); everything
// earlier stays frozen at the shared base weights, so a user's whole
// personalized state is a small nn::ModelDelta against the base — the
// unit snapshot v3 persists and the delta store writes.
//
// Determinism: every fine-tune derives its dropout and shuffle seeds
// from (session seed_offset, fine-tune ordinal), never from shared RNG
// state, and after each fit the trainable tensors are *realized* on the
// quantized delta grid (base + dequant(encode(tuned - base))), so the
// in-memory weights always equal what a snapshot stores — sessions are
// bit-identical at any thread count and across a mid-flight
// snapshot/restore split.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <vector>

#include "data/stream_cursor.hpp"
#include "nn/delta.hpp"
#include "sim/experiment.hpp"
#include "sim/slot_stepper.hpp"

namespace origin::serve {

struct PersonalizeConfig {
  bool enabled = false;
  /// Max optimizer steps per sensor net over a session's lifetime (the
  /// three nets fine-tune in lockstep, so this bounds each of them).
  int step_budget = 24;
  /// Try a fine-tune after every `cadence_slots` served slots.
  int cadence_slots = 50;
  /// Skip the fit while fewer correctly-classified windows are buffered.
  int min_samples = 8;
  /// Sample-buffer capacity (oldest windows are dropped first).
  int max_samples = 32;
  int batch_size = 8;
  double learning_rate = 1e-3;
  int epochs = 1;
  /// Trailing parameterized layers that adapt; earlier layers stay
  /// frozen at the base weights.
  int tune_tail_layers = 1;
};

/// Per-session adaptation state, owned by the Session and persisted by
/// snapshot v3.
struct PersonalizeState {
  struct BufferedSample {
    std::array<nn::Tensor, data::kNumSensors> windows;
    int label = 0;
  };
  /// Recent correctly-classified slots, oldest first.
  std::deque<BufferedSample> buffer;
  /// Personalized weights as deltas against the shard's base models.
  std::array<nn::ModelDelta, data::kNumSensors> delta;
  std::uint64_t fine_tunes = 0;
  /// Optimizer steps consumed per sensor net (lockstep across the three).
  std::uint64_t steps_used = 0;
  /// Serialized size of the three deltas after the latest fine-tune.
  std::uint64_t delta_bytes = 0;
  /// Fine-tuning energy credited through nn::estimate_cost.
  double energy_j = 0.0;

  bool dirty() const {
    for (const auto& d : delta) {
      if (!d.empty()) return true;
    }
    return false;
  }
};

/// Shard-owned fine-tuning engine: keeps the pristine base copies of the
/// deployed nets, their fingerprints, the trainable-tail masks and the
/// per-fit energy price. One per shard; the shard's sessions share it,
/// one load() or fit at a time.
class Personalizer {
 public:
  Personalizer(const sim::Experiment& experiment,
               const std::array<nn::Sequential, data::kNumSensors>& deployed,
               PersonalizeConfig config);

  const PersonalizeConfig& config() const { return config_; }

  /// Loads session `id`'s personalized weights into the shard scratch
  /// (base + dequantized delta), skipping the copy when the scratch
  /// already holds them. Call before a panel or fit on those weights.
  void load(const PersonalizeState& state, std::uint64_t id,
            std::array<nn::Sequential, data::kNumSensors>& models);

  /// Restores the pristine base weights into the shard scratch (no-op
  /// when it is already clean). The shard serves every clean
  /// (empty-delta) session from one shared base panel, so it loads base
  /// once per tick instead of once per session.
  void load_base(std::array<nn::Sequential, data::kNumSensors>& models);

  /// Post-step hook: buffers the slot's windows when the fused output
  /// matched ground truth, and runs a budgeted micro-fit on the cadence.
  /// `models` must currently hold this session's weights (see load()).
  /// Returns the optimizer steps consumed (0 when no fit ran).
  /// Equivalent to buffer_step + (fit_due ? run_fit : 0) — the shard
  /// calls the pieces so it can defer the (possibly redundant) load()
  /// until a fit is actually due.
  std::uint64_t after_step(PersonalizeState& state, std::uint64_t seed_offset,
                           const sim::SlotStepper::StepOutcome& outcome,
                           data::SlotSource& source,
                           std::array<nn::Sequential, data::kNumSensors>& models);

  /// The buffering half of after_step (needs no model weights).
  void buffer_step(PersonalizeState& state,
                   const sim::SlotStepper::StepOutcome& outcome,
                   data::SlotSource& source);
  /// Whether a fit would run for this slot, after buffer_step: the
  /// cadence, min-samples and step-budget gates, evaluated without
  /// touching the scratch.
  bool fit_due(const PersonalizeState& state,
               const sim::SlotStepper::StepOutcome& outcome) const;
  /// The fit half of after_step. `models` must hold this session's
  /// weights (load() first). Returns the optimizer steps consumed.
  std::uint64_t run_fit(PersonalizeState& state, std::uint64_t seed_offset,
                        std::array<nn::Sequential, data::kNumSensors>& models);

  /// Serialized size of a session's three deltas (delta_bytes refresh).
  static std::uint64_t serialized_bytes(
      const std::array<nn::ModelDelta, data::kNumSensors>& delta);

 private:
  PersonalizeConfig config_;
  std::array<nn::Sequential, data::kNumSensors> base_;
  std::array<std::uint64_t, data::kNumSensors> base_fingerprint_{};
  /// params() mask per sensor: 1 = adapts, 0 = frozen at base.
  std::array<std::vector<std::uint8_t>, data::kNumSensors> trainable_;
  /// Energy price of one training sample-pass per sensor net (3x the
  /// inference cost: forward + backward over the same MACs).
  std::array<double, data::kNumSensors> sample_cost_j_{};
  /// Which session's weights the shard scratch currently holds; -1 =
  /// pristine base.
  std::int64_t loaded_ = -1;
  /// Whether the scratch may differ from base (avoids a full restore
  /// when consecutive sessions both have empty deltas).
  bool scratch_dirty_ = false;
};

/// params()-order mask selecting the trailing `tail_layers` parameterized
/// layers of `model` (exposed for tests).
std::vector<std::uint8_t> tail_trainable_mask(nn::Sequential& model,
                                              int tail_layers);

}  // namespace origin::serve
