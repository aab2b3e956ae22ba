#include "serve/personalize.hpp"

#include <algorithm>
#include <atomic>
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

/// One thread's fit scratch: per sensor, copies of a Core's prefix and
/// of its full base net (whose tail each fit overwrites with base +
/// delta, then with the tuned tail it encodes), plus the window panel.
/// Layers keep per-call state even in inference, so concurrent fits
/// cannot share one model; sibling engines share a Core, so a thread
/// copies the nets once per serving loop, not once per shard.
struct FitScratch {
  std::array<std::uint64_t, data::kNumSensors> serial{};
  std::array<nn::Sequential, data::kNumSensors> prefix;
  std::array<nn::Sequential, data::kNumSensors> net;
  std::vector<nn::Tensor> panel;
  std::vector<const nn::Tensor*> windows;
};

thread_local FitScratch t_fit_scratch;

std::atomic<std::uint64_t> g_next_core_serial{1};

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
    PersonalizeConfig config) {
  auto core = std::make_shared<Core>();
  core->config = std::move(config);
  core->base = deployed;
  core->serial = g_next_core_serial.fetch_add(1, std::memory_order_relaxed);
  const PersonalizeConfig& c = core->config;
  if (c.step_budget < 1 || c.cadence_slots < 1 || c.min_samples < 1 ||
      c.max_samples < c.min_samples || c.batch_size < 1 || c.epochs < 1 ||
      c.learning_rate <= 0.0 || c.tune_tail_layers < 1) {
    throw std::invalid_argument("Personalizer: invalid config");
  }
  const std::vector<int> input_shape{experiment.spec().channels,
                                     experiment.spec().window_len};
  const nn::ComputeProfile& profile =
      experiment.config().pipeline.profile;
  for (std::size_t s = 0; s < data::kNumSensors; ++s) {
    const nn::Sequential& base = core->base[s];
    core->base_fingerprint[s] = nn::params_fingerprint(base);
    core->split[s] = tail_split(base, c.tune_tail_layers);
    nn::Sequential tail;
    for (std::size_t l = 0; l < base.layer_count(); ++l) {
      (l < core->split[s] ? core->prefix[s] : tail).add(base.layer(l).clone());
    }
    core->tail_param[s] = core->prefix[s].params().size();
    if (core->split[s] > 0) {
      core->prefix_cost_j[s] =
          nn::estimate_cost(core->prefix[s], input_shape, profile).energy_j;
    }
    // One training sample-pass ~ forward + backward + weight update over
    // the same MACs as inference: the conventional 3x multiplier on the
    // tail's per-inference cost.
    const std::vector<int> tail_input =
        base.shape_trace(input_shape)[core->split[s]];
    core->tail_pass_cost_j[s] =
        3.0 * nn::estimate_cost(tail, tail_input, profile).energy_j;
  }
  core_ = std::move(core);
}

Personalizer::Personalizer(std::shared_ptr<const Core> core)
    : core_(std::move(core)) {}

Personalizer Personalizer::sibling() const { return Personalizer(core_); }

void Personalizer::load(const PersonalizeState& state, std::uint64_t id,
                        std::array<nn::Sequential, data::kNumSensors>& models) {
  if (loaded_ == static_cast<std::int64_t>(id)) return;
  if (!state.dirty() && !scratch_dirty_) {
    // Scratch still holds pristine base and this session never adapted.
    loaded_ = static_cast<std::int64_t>(id);
    return;
  }
  for (std::size_t s = 0; s < data::kNumSensors; ++s) {
    nn::delta_apply_with_fingerprint(core_->base[s], core_->base_fingerprint[s],
                                     state.delta[s], models[s],
                                     core_->tail_param[s]);
  }
  scratch_dirty_ = state.dirty();
  loaded_ = static_cast<std::int64_t>(id);
}

void Personalizer::load_base(
    std::array<nn::Sequential, data::kNumSensors>& models) {
  if (scratch_dirty_) {
    for (std::size_t s = 0; s < data::kNumSensors; ++s) {
      nn::delta_apply_with_fingerprint(
          core_->base[s], core_->base_fingerprint[s], nn::ModelDelta{},
          models[s], core_->tail_param[s]);
    }
    scratch_dirty_ = false;
  }
  loaded_ = -1;
}

std::size_t Personalizer::grad_size() const {
  std::size_t n = 0;
  for (std::size_t s = 0; s < data::kNumSensors; ++s) {
    n += core_->base[s].grad_size() + core_->prefix[s].grad_size() +
         t_fit_scratch.prefix[s].grad_size() +
         t_fit_scratch.net[s].grad_size();
  }
  return n;
}

void Personalizer::validate(const PersonalizeState& state) const {
  for (std::size_t s = 0; s < data::kNumSensors; ++s) {
    nn::delta_check(core_->base[s], core_->base_fingerprint[s],
                    state.delta[s], core_->tail_param[s]);
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
  const PersonalizeConfig& config = core_->config;
  // Once the remaining budget cannot fund a fit of min_samples samples,
  // fit_due refuses every later fit, so a buffered sample would never
  // be read.
  if (max_fit_samples(state) <
      static_cast<std::uint64_t>(config.min_samples)) {
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
           static_cast<std::size_t>(config.max_samples)) {
      state.buffer.pop_front();
    }
  }
}

std::uint64_t Personalizer::max_fit_samples(
    const PersonalizeState& state) const {
  // Largest sample count whose fit stays inside the remaining budget:
  // one fit costs epochs * ceil(n / batch) optimizer steps per net.
  const PersonalizeConfig& config = core_->config;
  const std::uint64_t budget = static_cast<std::uint64_t>(config.step_budget);
  if (state.steps_used >= budget) return 0;
  const std::uint64_t remaining = budget - state.steps_used;
  const std::uint64_t epochs = static_cast<std::uint64_t>(config.epochs);
  return (remaining / epochs) * static_cast<std::uint64_t>(config.batch_size);
}

std::size_t Personalizer::fit_samples(const PersonalizeState& state) const {
  return static_cast<std::size_t>(std::min<std::uint64_t>(
      state.buffer.size(), max_fit_samples(state)));
}

bool Personalizer::fit_due(const PersonalizeState& state,
                           const sim::SlotStepper::StepOutcome& outcome) const {
  // Cadence gate on the session-local slot index — a pure function of
  // the session's own progress, independent of tick chunking.
  const PersonalizeConfig& config = core_->config;
  if ((outcome.slot + 1) % static_cast<std::size_t>(config.cadence_slots) !=
      0) {
    return false;
  }
  return fit_samples(state) >= static_cast<std::size_t>(config.min_samples);
}

void Personalizer::fit_sensor(PersonalizeState& state,
                              std::uint64_t seed_offset, std::size_t n,
                              std::size_t s) const {
  if (n == 0 || n > state.buffer.size() || s >= data::kNumSensors) {
    throw std::invalid_argument("Personalizer::fit_sensor: bad sample count "
                                "or sensor");
  }
  if (!state.context) {
    throw std::logic_error(
        "Personalizer::fit_sensor: buffered samples without a synthesis "
        "context");
  }
  const Core& core = *core_;
  const PersonalizeConfig& config = core.config;
  FitScratch& scratch = t_fit_scratch;
  if (scratch.serial[s] != core.serial) {
    scratch.prefix[s] = core.prefix[s];
    scratch.net[s] = core.base[s];
    scratch.serial[s] = core.serial;
  }

  // Most recent n buffered slots, oldest first. The fit's windows are
  // synthesized here, from their recipes; the frozen prefix runs once per
  // sample, in inference mode, as one batched panel; the tail then
  // trains on its outputs.
  const std::size_t first = state.buffer.size() - n;
  if (scratch.panel.size() < n) scratch.panel.resize(n);
  scratch.windows.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    state.context->synthesize(state.buffer[first + i].recipe, s,
                              scratch.panel[i]);
    scratch.windows[i] = &scratch.panel[i];
  }
  std::vector<nn::Tensor> features(n);
  scratch.prefix[s].forward_batch(scratch.windows.data(), n, features.data(),
                                  /*train=*/false);
  nn::Samples samples;
  samples.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    samples.push_back({std::move(features[i]), state.buffer[first + i].label});
  }

  // The session's tail (base + its delta), with deterministic stochastic
  // layers: the fit's dropout draws depend only on (session, fine-tune
  // ordinal, sensor, full-model layer index), never on how many fits
  // ran on this thread or shard before.
  nn::Sequential& net = scratch.net[s];
  nn::delta_apply_with_fingerprint(core.base[s], core.base_fingerprint[s],
                                   state.delta[s], net, core.tail_param[s]);
  const std::uint64_t fit_seed =
      fleet::shard_seed(seed_offset ^ kFitSeedSalt, state.fine_tunes);
  const std::uint64_t sensor_seed = fleet::shard_seed(fit_seed, s);
  const std::size_t split = core.split[s];
  nn::Sequential tail;
  for (std::size_t l = split; l < net.layer_count(); ++l) {
    tail.add(net.layer(l).clone());
    if (auto* dropout = dynamic_cast<nn::Dropout*>(
            &tail.layer(tail.layer_count() - 1))) {
      dropout->reseed(sensor_seed + l);
    }
  }
  nn::TrainConfig train;
  train.epochs = config.epochs;
  train.batch_size = config.batch_size;
  train.learning_rate = config.learning_rate;
  train.lr_decay = 1.0;
  train.weight_decay = 0.0;
  train.shuffle_seed = sensor_seed ^ kShuffleSalt;
  train.early_stop_accuracy = 0.0;
  nn::Trainer(train).fit(tail, samples);
  for (std::size_t l = split; l < net.layer_count(); ++l) {
    const std::vector<nn::Tensor*> tp = tail.layer(l - split).params();
    const std::vector<nn::Tensor*> np = net.layer(l).params();
    for (std::size_t p = 0; p < tp.size(); ++p) {
      std::copy(tp[p]->data(), tp[p]->data() + tp[p]->size(), np[p]->data());
    }
  }

  // The quantized state: what the snapshot stores and what every load()
  // applies (base + dequant(delta)) is what keeps serving.
  state.delta[s] = nn::delta_encode_with_fingerprint(
      core.base[s], core.base_fingerprint[s], net, core.tail_param[s]);
}

std::uint64_t Personalizer::finish_fit(PersonalizeState& state,
                                       std::size_t n) {
  const Core& core = *core_;
  const PersonalizeConfig& config = core.config;
  for (std::size_t s = 0; s < data::kNumSensors; ++s) {
    state.energy_j +=
        (core.prefix_cost_j[s] +
         core.tail_pass_cost_j[s] * static_cast<double>(config.epochs)) *
        static_cast<double>(n);
  }
  const std::uint64_t batches =
      (static_cast<std::uint64_t>(n) +
       static_cast<std::uint64_t>(config.batch_size) - 1) /
      static_cast<std::uint64_t>(config.batch_size);
  const std::uint64_t steps =
      static_cast<std::uint64_t>(config.epochs) * batches;
  state.steps_used += steps;
  ++state.fine_tunes;
  state.delta_bytes = serialized_bytes(state.delta);
  state.buffer.clear();
  // The scratch may hold this session's pre-fit weights.
  loaded_ = -1;
  return steps;
}

std::uint64_t Personalizer::run_fit(
    PersonalizeState& state, std::uint64_t seed_offset,
    std::array<nn::Sequential, data::kNumSensors>& models) {
  const std::size_t n = fit_samples(state);
  if (n == 0) return 0;
  for (std::size_t s = 0; s < data::kNumSensors; ++s) {
    fit_sensor(state, seed_offset, n, s);
  }
  const std::int64_t loaded = loaded_;
  const std::uint64_t steps = finish_fit(state, n);
  // `models` held this session's weights; realize its tuned ones there.
  for (std::size_t s = 0; s < data::kNumSensors; ++s) {
    nn::delta_apply_with_fingerprint(core_->base[s], core_->base_fingerprint[s],
                                     state.delta[s], models[s],
                                     core_->tail_param[s]);
  }
  scratch_dirty_ = true;
  loaded_ = loaded;
  return steps;
}

}  // namespace origin::serve
