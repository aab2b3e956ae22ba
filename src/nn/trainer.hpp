// Minibatch trainer for Sequential classifiers: each minibatch is one
// batched forward and one batched backward, then one optimizer step.
#pragma once

#include <cstdint>
#include <vector>

#include "nn/model.hpp"
#include "nn/optimizer.hpp"
#include "nn/tensor.hpp"
#include "obs/trace.hpp"
#include "util/rng.hpp"

namespace origin::nn {

/// One training/evaluation sample: an input window and its class label.
struct LabeledSample {
  Tensor input;
  int label = 0;
};

using Samples = std::vector<LabeledSample>;

struct EpochStats {
  double loss = 0.0;
  double accuracy = 0.0;
  /// Wall time of the epoch (0 for evaluate(), which is one pass).
  double seconds = 0.0;
};

struct TrainConfig {
  int epochs = 10;
  int batch_size = 16;
  double learning_rate = 1e-2;
  double momentum = 0.9;
  double weight_decay = 1e-4;
  /// Multiply the learning rate by this factor after each epoch.
  double lr_decay = 0.97;
  std::uint64_t shuffle_seed = 42;
  /// Stop early once training accuracy reaches this level (<=0 disables).
  double early_stop_accuracy = 0.0;
  /// Fraction of samples trained as mixup pairs (input and soft target
  /// both linearly blended with a random partner). Calibrates the softmax
  /// on ambiguous inputs — essential for confidence-weighted ensembles.
  double mixup_prob = 0.0;
  /// Borrowed trace recorder (null-object: nullptr disables tracing).
  /// Records one Epoch event per epoch — the loss/accuracy/wall-time
  /// series next to the simulator and fleet lanes.
  obs::TraceRecorder* trace = nullptr;
};

class Trainer {
 public:
  explicit Trainer(TrainConfig config = {});

  /// Trains `model` in place; returns per-epoch stats. Whole minibatches
  /// flow through Sequential::forward_batch(train=true)/backward_batch.
  /// Mixup and shuffle RNG draws happen in shuffled-sample order and the
  /// optimizer steps on batch boundaries, so the trained weights equal a
  /// per-sample backprop loop's bit for bit
  /// (tests/test_train_kernels.cpp keeps that loop as the oracle).
  std::vector<EpochStats> fit(Sequential& model, const Samples& train);

  /// Average loss and top-1 accuracy of `model` on `samples`.
  static EpochStats evaluate(Sequential& model, const Samples& samples);

  const TrainConfig& config() const { return config_; }

 private:
  TrainConfig config_;
};

}  // namespace origin::nn
