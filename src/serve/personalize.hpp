// In-shard bounded per-user fine-tuning: a served session accumulates
// its recent correctly-classified slots and, on a fixed slot cadence,
// runs a budgeted micro-fit of the deployed per-sensor nets. A buffered
// slot is its label and its data::SlotRecipe, not its windows: windows
// are pure functions of the recipe and the session stream's
// data::SynthesisContext, so a fit synthesizes exactly the windows it
// trains on, and a slot evicted from the buffer or never fitted costs no
// synthesis. Only the trailing `tune_tail_layers` parameterized layers
// (the classifier head) adapt: the frozen prefix in front of them runs
// once per fit as one batched inference panel over the synthesized
// windows, and nn::Trainer fits just the tail on those features. The
// prefix never trains, so a user's whole personalized state is a small
// nn::ModelDelta against the base — the unit the snapshot persists and
// the delta store writes.
//
// A fit is three independent sensor fits (fit_sensor) and one booking
// (finish_fit). A sensor fit reads only its session's buffer, delta and
// seeds, writes only that session's delta for that sensor, and runs on
// per-thread scratch (panel, prefix copy, tail), never on a shard's
// model scratch, so the serving loop runs the sensor fits of every fit
// due in a tick as parallel pool tasks (DESIGN.md §14).
//
// Determinism: every fine-tune derives its dropout and shuffle seeds
// from (session seed_offset, fine-tune ordinal), never from shared RNG
// state, and the tuned tail is stored on the quantized delta grid
// (encode(tuned - base)); every model that serves or fits a session's
// weights applies base + dequant(delta), so the in-memory weights always
// equal what a snapshot stores — sessions are bit-identical at any
// thread count and across a mid-flight snapshot/restore split.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <memory>
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
/// the snapshot (the buffer as recipes since v8).
struct PersonalizeState {
  struct BufferedSample {
    int label = 0;
    /// What the fit re-synthesizes the slot's three windows from.
    data::SlotRecipe recipe;
  };
  /// Recent correctly-classified slots, oldest first.
  std::deque<BufferedSample> buffer;
  /// The session stream's synthesis context, which turns the buffered
  /// recipes back into windows. A serve::Session sets it from its own
  /// cursor when it is built or restored; a state built by hand adopts
  /// the context of the first slot it buffers. Never persisted.
  std::shared_ptr<const data::SynthesisContext> context;
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

/// Shard-owned fine-tuning engine: the pristine base copies of the
/// deployed nets, their fingerprints, the frozen prefixes and the per-fit
/// energy price (immutable, and shared by sibling engines), plus the
/// state of one shard's model scratch (which session's weights it holds).
/// One per shard; the shard's sessions share it, one load() at a time.
class Personalizer {
 public:
  Personalizer(const sim::Experiment& experiment,
               const std::array<nn::Sequential, data::kNumSensors>& deployed,
               PersonalizeConfig config);

  /// An engine for another shard's model scratch over this one's base:
  /// it shares the immutable base copies, prefixes and prices (so sensor
  /// fits of both shards reuse one per-thread fit scratch), and its own
  /// scratch state starts at pristine base.
  Personalizer sibling() const;

  const PersonalizeConfig& config() const { return core_->config; }

  /// Loads session `id`'s personalized weights into the shard scratch
  /// (base + dequantized delta), skipping the copy when the scratch
  /// already holds them. Call before a panel on those weights.
  /// Only the tail's tensors are written: the scratch prefix is always
  /// base, because only fits change weights and a fit changes only the
  /// tail (validate() holds restored deltas to the same rule).
  void load(const PersonalizeState& state, std::uint64_t id,
            std::array<nn::Sequential, data::kNumSensors>& models);

  /// Restores the pristine base weights into the shard scratch's tail
  /// (no-op when it is already clean). The shard serves every clean
  /// (empty-delta) session from one shared base panel, so it loads base
  /// once per tick instead of once per session.
  void load_base(std::array<nn::Sequential, data::kNumSensors>& models);

  /// Post-step hook: buffers the slot's recipe when the fused output
  /// matched ground truth, and runs a budgeted micro-fit on the cadence.
  /// `models` must currently hold this session's weights (see load()).
  /// Returns the optimizer steps consumed (0 when no fit ran).
  /// Equivalent to buffer_step + (fit_due ? run_fit : 0).
  std::uint64_t after_step(PersonalizeState& state, std::uint64_t seed_offset,
                           const sim::SlotStepper::StepOutcome& outcome,
                           data::SlotSource& source,
                           std::array<nn::Sequential, data::kNumSensors>& models);

  /// The buffering half of after_step (needs no model weights). Buffers
  /// nothing once the remaining step budget can no longer fund a fit of
  /// `min_samples` samples, since fit_due would refuse every later fit.
  /// Throws std::logic_error when the slot to buffer has no synthesis
  /// context (a materialized source such as data::StreamSlotSource cannot
  /// re-synthesize) or a different one than `state.context`.
  void buffer_step(PersonalizeState& state,
                   const sim::SlotStepper::StepOutcome& outcome,
                   data::SlotSource& source);
  /// Whether a fit would run for this slot, after buffer_step: the
  /// cadence, min-samples and step-budget gates, evaluated without
  /// touching the scratch.
  bool fit_due(const PersonalizeState& state,
               const sim::SlotStepper::StepOutcome& outcome) const;
  /// Samples the next fit of `state` trains on: the most recent buffered
  /// ones, as many as the remaining step budget funds (0 once spent).
  std::size_t fit_samples(const PersonalizeState& state) const;

  /// Sensor `s`'s share of a fit on the `n` most recent buffered samples
  /// (n = fit_samples(state), taken before any of the fit's calls): the
  /// n windows synthesized from their recipes, one inference
  /// forward_batch of the frozen prefix over them, an nn::Trainer fit of
  /// a tail built from the base tail plus `state.delta[s]`, and the tuned
  /// tail encoded into `state.delta[s]`. Reads only `state`'s buffer,
  /// context, fine-tune ordinal and delta[s], writes only delta[s], and
  /// runs on per-thread scratch: calls for distinct (state, s) pairs may
  /// run concurrently, on this engine or its siblings. The fit is booked
  /// by finish_fit once all three sensors have run.
  void fit_sensor(PersonalizeState& state, std::uint64_t seed_offset,
                  std::size_t n, std::size_t s) const;
  /// Books a fit whose three fit_sensor calls have run: its energy
  /// (summed in sensor order), optimizer steps, fine-tune count and delta
  /// size; clears the buffer and marks the shard scratch stale, so the
  /// next load() of any dirty session re-applies its delta. Returns the
  /// optimizer steps consumed.
  std::uint64_t finish_fit(PersonalizeState& state, std::size_t n);
  /// The fit half of after_step: fit_sensor for every sensor in order,
  /// then finish_fit. `models` must hold this session's weights (load()
  /// first) and holds its tuned weights afterwards. Returns the optimizer
  /// steps consumed (0 when there is nothing to fit).
  std::uint64_t run_fit(PersonalizeState& state, std::uint64_t seed_offset,
                        std::array<nn::Sequential, data::kNumSensors>& models);

  /// Throws std::runtime_error unless every delta of `state` applies to
  /// this shard's base over the tail (nn::delta_check: fingerprint,
  /// parameter-tensor count, entry lengths, no entry in the frozen
  /// prefix). Snapshot restore runs it before adopting a session.
  void validate(const PersonalizeState& state) const;

  /// Gradient elements held by the shared base and prefix copies and by
  /// the calling thread's fit scratch. Gradients are training state and
  /// each fit trains a tail it builds and drops, so this stays 0.
  std::size_t grad_size() const;

  /// Serialized size of a session's three deltas (delta_bytes refresh).
  static std::uint64_t serialized_bytes(
      const std::array<nn::ModelDelta, data::kNumSensors>& delta);

 private:
  /// What sibling engines share: everything but the scratch state.
  struct Core {
    PersonalizeConfig config;
    std::array<nn::Sequential, data::kNumSensors> base;
    std::array<std::uint64_t, data::kNumSensors> base_fingerprint{};
    /// Per sensor: layers [0, split) are the frozen prefix, [split, L)
    /// the tail that trains (see tail_split).
    std::array<std::size_t, data::kNumSensors> split{};
    /// Clones of base layers [0, split): deltas only ever cover the
    /// tail, so the prefix is the base for every session.
    std::array<nn::Sequential, data::kNumSensors> prefix;
    /// Per sensor: index in params() order of the tail's first parameter
    /// tensor — where every delta encode, apply and check starts.
    std::array<std::size_t, data::kNumSensors> tail_param{};
    /// Energy price per buffered sample: one prefix inference (0 when
    /// the prefix is empty), plus per epoch one tail training pass at 3x
    /// the tail's inference cost (forward + backward over the same MACs).
    std::array<double, data::kNumSensors> prefix_cost_j{};
    std::array<double, data::kNumSensors> tail_pass_cost_j{};
    /// Process-unique id: which core a thread's fit scratch was copied
    /// from (never reused, unlike an address).
    std::uint64_t serial = 0;
  };

  explicit Personalizer(std::shared_ptr<const Core> core);

  /// Most samples a fit may use within the remaining step budget
  /// (epochs * ceil(n / batch_size) steps per net); 0 once spent.
  std::uint64_t max_fit_samples(const PersonalizeState& state) const;

  std::shared_ptr<const Core> core_;
  /// Which session's weights the shard scratch currently holds; -1 =
  /// none known (pristine base when !scratch_dirty_).
  std::int64_t loaded_ = -1;
  /// Whether the scratch may differ from base (avoids a full restore
  /// when consecutive sessions both have empty deltas).
  bool scratch_dirty_ = false;
};

/// Layer index where the trainable tail of `model` begins: one past the
/// last parameterized layer outside the trailing `tail_layers`
/// parameterized layers, or 0 when those cover every parameterized layer.
/// Parameterless layers between the frozen layers and the first trainable
/// one (ReLU, Dropout) sit in the tail, so they run in train mode.
std::size_t tail_split(const nn::Sequential& model, int tail_layers);


}  // namespace origin::serve
