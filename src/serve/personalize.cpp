#include "serve/personalize.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "fleet/shard.hpp"
#include "nn/dropout.hpp"
#include "nn/energy_model.hpp"
#include "nn/trainer.hpp"

namespace origin::serve {

namespace {

/// Salts for the per-fit seed derivation: every fine-tune of every
/// session draws dropout and shuffle seeds from its own
/// (seed_offset, fine-tune ordinal, sensor) triple, so the fit is a pure
/// function of the session's history — the property that makes served
/// fine-tuning reproducible across thread counts and snapshot splits.
constexpr std::uint64_t kFitSeedSalt = 0x9E12A1F17EULL;
constexpr std::uint64_t kShuffleSalt = 0xD1CEULL;

}  // namespace

std::size_t tail_split(const nn::Sequential& model, int tail_layers) {
  if (tail_layers < 1) {
    throw std::invalid_argument("tail_split: tail_layers < 1");
  }
  int remaining = tail_layers;
  for (std::size_t i = model.layer_count(); i-- > 0;) {
    if (model.layer(i).param_count() == 0) continue;
    if (remaining == 0) return i + 1;  // last frozen parameterized layer
    --remaining;
  }
  return 0;
}

Personalizer::Personalizer(
    const sim::Experiment& experiment,
    const std::array<nn::Sequential, data::kNumSensors>& deployed,
    PersonalizeConfig config)
    : config_(std::move(config)), base_(deployed) {
  if (config_.step_budget < 1 || config_.cadence_slots < 1 ||
      config_.min_samples < 1 || config_.max_samples < config_.min_samples ||
      config_.batch_size < 1 || config_.epochs < 1 ||
      config_.learning_rate <= 0.0 || config_.tune_tail_layers < 1) {
    throw std::invalid_argument("Personalizer: invalid config");
  }
  const std::vector<int> input_shape{experiment.spec().channels,
                                     experiment.spec().window_len};
  const nn::ComputeProfile& profile =
      experiment.config().pipeline.profile;
  for (std::size_t s = 0; s < data::kNumSensors; ++s) {
    base_fingerprint_[s] = nn::params_fingerprint(base_[s]);
    split_[s] = tail_split(base_[s], config_.tune_tail_layers);
    nn::Sequential tail;
    for (std::size_t l = 0; l < base_[s].layer_count(); ++l) {
      (l < split_[s] ? prefix_[s] : tail).add(base_[s].layer(l).clone());
    }
    tail_param_[s] = prefix_[s].params().size();
    if (split_[s] > 0) {
      prefix_cost_j_[s] =
          nn::estimate_cost(prefix_[s], input_shape, profile).energy_j;
    }
    // One training sample-pass ~ forward + backward + weight update over
    // the same MACs as inference: the conventional 3x multiplier on the
    // tail's per-inference cost.
    const std::vector<int> tail_input =
        base_[s].shape_trace(input_shape)[split_[s]];
    tail_pass_cost_j_[s] =
        3.0 * nn::estimate_cost(tail, tail_input, profile).energy_j;
  }
}

void Personalizer::load(const PersonalizeState& state, std::uint64_t id,
                        std::array<nn::Sequential, data::kNumSensors>& models) {
  if (loaded_ == static_cast<std::int64_t>(id)) return;
  if (!state.dirty() && !scratch_dirty_) {
    // Scratch still holds pristine base and this session never adapted.
    loaded_ = static_cast<std::int64_t>(id);
    return;
  }
  for (std::size_t s = 0; s < data::kNumSensors; ++s) {
    nn::delta_apply_with_fingerprint(base_[s], base_fingerprint_[s],
                                     state.delta[s], models[s],
                                     tail_param_[s]);
  }
  scratch_dirty_ = state.dirty();
  loaded_ = static_cast<std::int64_t>(id);
}

void Personalizer::load_base(
    std::array<nn::Sequential, data::kNumSensors>& models) {
  if (scratch_dirty_) {
    for (std::size_t s = 0; s < data::kNumSensors; ++s) {
      nn::delta_apply_with_fingerprint(base_[s], base_fingerprint_[s],
                                       nn::ModelDelta{}, models[s],
                                       tail_param_[s]);
    }
    scratch_dirty_ = false;
  }
  loaded_ = -1;
}

void Personalizer::validate(const PersonalizeState& state) const {
  for (std::size_t s = 0; s < data::kNumSensors; ++s) {
    nn::delta_check(base_[s], base_fingerprint_[s], state.delta[s],
                    tail_param_[s]);
  }
}

std::uint64_t Personalizer::serialized_bytes(
    const std::array<nn::ModelDelta, data::kNumSensors>& delta) {
  std::uint64_t bytes = 0;
  for (const auto& d : delta) {
    bytes += static_cast<std::uint64_t>(nn::delta_to_string(d).size());
  }
  return bytes;
}

std::uint64_t Personalizer::after_step(
    PersonalizeState& state, std::uint64_t seed_offset,
    const sim::SlotStepper::StepOutcome& outcome, data::SlotSource& source,
    std::array<nn::Sequential, data::kNumSensors>& models) {
  buffer_step(state, outcome, source);
  if (!fit_due(state, outcome)) return 0;
  return run_fit(state, seed_offset, models);
}

void Personalizer::buffer_step(PersonalizeState& state,
                               const sim::SlotStepper::StepOutcome& outcome,
                               data::SlotSource& source) {
  // Once the remaining budget cannot fund a fit of min_samples samples,
  // fit_due refuses every later fit, so a buffered sample would never
  // be read.
  if (max_fit_samples(state) <
      static_cast<std::uint64_t>(config_.min_samples)) {
    return;
  }
  // Buffer the slot when the fused ensemble output matched ground truth:
  // pseudo-labels the session can safely adapt toward (AHAR-style
  // self-training on confident slots).
  if (outcome.predicted >= 0 && outcome.predicted == outcome.label) {
    const data::SlotSample& slot = source.slot(outcome.slot);
    std::shared_ptr<const data::SynthesisContext> context = slot.context();
    if (!context) {
      throw std::logic_error(
          "Personalizer::buffer_step: the slot source cannot re-synthesize "
          "its windows (materialized slots carry no synthesis context)");
    }
    if (!state.context) {
      state.context = std::move(context);
    } else if (state.context != context) {
      throw std::logic_error(
          "Personalizer::buffer_step: slot from another stream than the "
          "session's");
    }
    state.buffer.push_back({slot.label, slot.recipe()});
    while (state.buffer.size() >
           static_cast<std::size_t>(config_.max_samples)) {
      state.buffer.pop_front();
    }
  }
}

std::uint64_t Personalizer::max_fit_samples(
    const PersonalizeState& state) const {
  // Largest sample count whose fit stays inside the remaining budget:
  // one fit costs epochs * ceil(n / batch) optimizer steps per net.
  const std::uint64_t budget = static_cast<std::uint64_t>(config_.step_budget);
  if (state.steps_used >= budget) return 0;
  const std::uint64_t remaining = budget - state.steps_used;
  const std::uint64_t epochs = static_cast<std::uint64_t>(config_.epochs);
  return (remaining / epochs) * static_cast<std::uint64_t>(config_.batch_size);
}

bool Personalizer::fit_due(const PersonalizeState& state,
                           const sim::SlotStepper::StepOutcome& outcome) const {
  // Cadence gate on the session-local slot index — a pure function of
  // the session's own progress, independent of tick chunking.
  if ((outcome.slot + 1) % static_cast<std::size_t>(config_.cadence_slots) !=
      0) {
    return false;
  }
  const std::uint64_t n = std::min<std::uint64_t>(state.buffer.size(),
                                                  max_fit_samples(state));
  return n >= static_cast<std::uint64_t>(config_.min_samples);
}

std::uint64_t Personalizer::run_fit(
    PersonalizeState& state, std::uint64_t seed_offset,
    std::array<nn::Sequential, data::kNumSensors>& models) {
  const std::size_t n = static_cast<std::size_t>(std::min<std::uint64_t>(
      state.buffer.size(), max_fit_samples(state)));
  if (n == 0) return 0;

  if (!state.context) {
    throw std::logic_error(
        "Personalizer::run_fit: buffered samples without a synthesis context");
  }

  // Most recent n buffered slots, oldest first.
  const std::size_t first = state.buffer.size() - n;
  const std::uint64_t fit_seed =
      fleet::shard_seed(seed_offset ^ kFitSeedSalt, state.fine_tunes);
  if (panel_.size() < n) panel_.resize(n);
  std::vector<const nn::Tensor*> windows(n);
  for (std::size_t i = 0; i < n; ++i) windows[i] = &panel_[i];
  std::vector<nn::Tensor> features(n);
  for (std::size_t s = 0; s < data::kNumSensors; ++s) {
    // The fit's windows are synthesized here, from their recipes; the
    // frozen prefix runs once per sample, in inference mode, as one
    // batched panel; the tail then trains on its outputs.
    for (std::size_t i = 0; i < n; ++i) {
      state.context->synthesize(state.buffer[first + i].recipe, s, panel_[i]);
    }
    prefix_[s].forward_batch(windows.data(), n, features.data(),
                             /*train=*/false);
    nn::Samples samples;
    samples.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      samples.push_back(
          {std::move(features[i]), state.buffer[first + i].label});
    }

    // The session's loaded tail, with deterministic stochastic layers:
    // the fit's dropout draws depend only on (session, fine-tune
    // ordinal, sensor, full-model layer index), never on how many fits
    // other sessions ran on this shard scratch before.
    const std::uint64_t sensor_seed = fleet::shard_seed(fit_seed, s);
    const std::size_t split = split_[s];
    nn::Sequential tail;
    for (std::size_t l = split; l < models[s].layer_count(); ++l) {
      tail.add(models[s].layer(l).clone());
      if (auto* dropout = dynamic_cast<nn::Dropout*>(
              &tail.layer(tail.layer_count() - 1))) {
        dropout->reseed(sensor_seed + l);
      }
    }
    nn::TrainConfig train;
    train.epochs = config_.epochs;
    train.batch_size = config_.batch_size;
    train.learning_rate = config_.learning_rate;
    train.lr_decay = 1.0;
    train.weight_decay = 0.0;
    train.shuffle_seed = sensor_seed ^ kShuffleSalt;
    train.early_stop_accuracy = 0.0;
    nn::Trainer(train).fit(tail, samples);
    for (std::size_t l = split; l < models[s].layer_count(); ++l) {
      const std::vector<nn::Tensor*> tp = tail.layer(l - split).params();
      const std::vector<nn::Tensor*> mp = models[s].layer(l).params();
      for (std::size_t p = 0; p < tp.size(); ++p) {
        std::copy(tp[p]->data(), tp[p]->data() + tp[p]->size(),
                  mp[p]->data());
      }
    }

    // Realize the quantized state: encode the tail diff, then apply it
    // back so the live weights sit exactly on the delta grid — what the
    // snapshot stores is bit-for-bit what keeps serving.
    state.delta[s] = nn::delta_encode_with_fingerprint(
        base_[s], base_fingerprint_[s], models[s], tail_param_[s]);
    nn::delta_apply_with_fingerprint(base_[s], base_fingerprint_[s],
                                     state.delta[s], models[s],
                                     tail_param_[s]);
    state.energy_j +=
        (prefix_cost_j_[s] +
         tail_pass_cost_j_[s] * static_cast<double>(config_.epochs)) *
        static_cast<double>(n);
  }
  scratch_dirty_ = true;

  const std::uint64_t batches =
      (static_cast<std::uint64_t>(n) +
       static_cast<std::uint64_t>(config_.batch_size) - 1) /
      static_cast<std::uint64_t>(config_.batch_size);
  const std::uint64_t steps =
      static_cast<std::uint64_t>(config_.epochs) * batches;
  state.steps_used += steps;
  ++state.fine_tunes;
  state.delta_bytes = serialized_bytes(state.delta);
  state.buffer.clear();
  return steps;
}

}  // namespace origin::serve
