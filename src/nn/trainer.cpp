#include "nn/trainer.hpp"

#include <algorithm>
#include <chrono>
#include <numeric>
#include <stdexcept>

#include "nn/loss.hpp"
#include "util/logging.hpp"

namespace origin::nn {

Trainer::Trainer(TrainConfig config) : config_(config) {
  if (config_.epochs <= 0 || config_.batch_size <= 0) {
    throw std::invalid_argument("Trainer: non-positive epochs/batch");
  }
}

std::vector<EpochStats> Trainer::fit(Sequential& model, const Samples& train) {
  if (train.empty()) throw std::invalid_argument("Trainer::fit: empty dataset");

  SgdMomentum opt(config_.learning_rate, config_.momentum, config_.weight_decay);
  opt.bind(model);
  model.zero_grads();

  util::Rng rng(config_.shuffle_seed);
  std::vector<std::size_t> order(train.size());
  std::iota(order.begin(), order.end(), std::size_t{0});

  std::vector<EpochStats> history;
  history.reserve(static_cast<std::size_t>(config_.epochs));
  double lr = config_.learning_rate;

  using Clock = std::chrono::steady_clock;
  const auto fit_start = Clock::now();
  auto seconds_since = [](Clock::time_point t) {
    return std::chrono::duration<double>(Clock::now() - t).count();
  };

  /// Per-sample target bookkeeping: the loss is evaluated after the whole
  /// batch has gone through the forward pass, so the mixup draw made during
  /// batch assembly has to be carried over to the loss stage.
  struct SoftTarget {
    int label = 0;
    int partner_label = 0;
    float lambda = 0.0f;
    bool mixed = false;
  };

  const std::size_t bsz = static_cast<std::size_t>(config_.batch_size);
  std::vector<Tensor> mixed_inputs(bsz);
  std::vector<const Tensor*> input_ptrs(bsz);
  std::vector<Tensor> logits(bsz);
  std::vector<Tensor> grad_store(bsz);
  std::vector<const Tensor*> grad_ptrs(bsz);
  std::vector<SoftTarget> targets(bsz);

  for (int epoch = 0; epoch < config_.epochs; ++epoch) {
    const auto epoch_start = Clock::now();
    [[maybe_unused]] const double epoch_wall_t0 = seconds_since(fit_start);
    rng.shuffle(order);
    double loss_sum = 0.0;
    std::size_t correct = 0;
    for (std::size_t pos = 0; pos < train.size(); pos += bsz) {
      const std::size_t count = std::min(bsz, train.size() - pos);
      // Assemble the minibatch in shuffled order. The mixup RNG draws
      // (bernoulli, partner index, lambda) happen per sample in exactly
      // the order a per-sample loop makes them.
      for (std::size_t b = 0; b < count; ++b) {
        const LabeledSample& s = train[order[pos + b]];
        SoftTarget& t = targets[b];
        t.label = s.label;
        if (config_.mixup_prob > 0.0 && rng.bernoulli(config_.mixup_prob)) {
          const LabeledSample& partner = train[rng.below(train.size())];
          const float lambda = static_cast<float>(rng.uniform(0.3, 1.0));
          mixed_inputs[b] = s.input;
          mixed_inputs[b].scale(lambda).axpy(1.0f - lambda, partner.input);
          t.partner_label = partner.label;
          t.lambda = lambda;
          t.mixed = true;
          input_ptrs[b] = &mixed_inputs[b];
        } else {
          t.mixed = false;
          input_ptrs[b] = &s.input;
        }
      }
      model.forward_batch(input_ptrs.data(), count, logits.data(),
                          /*train=*/true);
      // Loss/accuracy in sample order so loss_sum accumulates in the same
      // order (bit-identical double sum) as a per-sample loop.
      for (std::size_t b = 0; b < count; ++b) {
        const SoftTarget& t = targets[b];
        LossResult lr_res;
        if (t.mixed) {
          const int num_classes = static_cast<int>(logits[b].size());
          std::vector<float> target(static_cast<std::size_t>(num_classes),
                                    0.0f);
          target[static_cast<std::size_t>(t.label)] += t.lambda;
          target[static_cast<std::size_t>(t.partner_label)] += 1.0f - t.lambda;
          lr_res = softmax_cross_entropy_soft(logits[b], target);
        } else {
          lr_res = softmax_cross_entropy(logits[b], t.label);
        }
        loss_sum += lr_res.loss;
        if (static_cast<int>(logits[b].argmax()) == t.label) ++correct;
        grad_store[b] = std::move(lr_res.grad);
        grad_store[b].scale(1.0f / static_cast<float>(config_.batch_size));
        grad_ptrs[b] = &grad_store[b];
      }
      model.backward_batch(grad_ptrs.data(), count);
      // One step per batch, including the trailing partial batch.
      opt.step();
    }

    EpochStats stats;
    stats.loss = loss_sum / static_cast<double>(train.size());
    stats.accuracy = static_cast<double>(correct) / static_cast<double>(train.size());
    stats.seconds = seconds_since(epoch_start);
    history.push_back(stats);
    ORIGIN_TRACE(config_.trace, epoch(epoch, epoch_wall_t0, stats.seconds,
                                      stats.loss, stats.accuracy));
    util::log_kv(util::LogLevel::Debug, "trainer.epoch", "epoch", epoch,
                 "loss", stats.loss, "acc", stats.accuracy, "lr", lr,
                 "seconds", stats.seconds);

    lr *= config_.lr_decay;
    opt.set_learning_rate(lr);
    if (config_.early_stop_accuracy > 0.0 &&
        stats.accuracy >= config_.early_stop_accuracy) {
      break;
    }
  }
  return history;
}

EpochStats Trainer::evaluate(Sequential& model, const Samples& samples) {
  EpochStats stats;
  if (samples.empty()) return stats;
  double loss_sum = 0.0;
  std::size_t correct = 0;
  for (const LabeledSample& s : samples) {
    const Tensor logits = model.forward(s.input, /*train=*/false);
    loss_sum += softmax_cross_entropy(logits, s.label).loss;
    if (static_cast<int>(logits.argmax()) == s.label) ++correct;
  }
  stats.loss = loss_sum / static_cast<double>(samples.size());
  stats.accuracy = static_cast<double>(correct) / static_cast<double>(samples.size());
  return stats;
}

}  // namespace origin::nn
