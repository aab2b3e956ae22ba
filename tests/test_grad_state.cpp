// Gradients are training state. Layers are built, loaded, copied and
// cloned without gradient storage; training (the optimizer's bind,
// zero_grads, a training backward) sizes each gradient on first use;
// pruning surgery releases the gradients it reshapes; and the models the
// serving tier runs inference on never hold any.
#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <string>
#include <vector>

#include "nn/activations.hpp"
#include "nn/conv1d.hpp"
#include "nn/dense.hpp"
#include "nn/layernorm.hpp"
#include "nn/pooling.hpp"
#include "nn/pruning.hpp"
#include "nn/trainer.hpp"
#include "serve/serve_loop.hpp"
#include "util/rng.hpp"

namespace origin {
namespace {

const std::vector<int> kInput = {2, 16};

/// conv -> pool -> conv -> flatten -> layernorm -> dense -> dense: every
/// parameterized layer kind, with surgery-ready conv/dense pairs.
nn::Sequential small_net(std::uint64_t seed) {
  util::Rng rng(seed);
  nn::Sequential m;
  m.emplace<nn::Conv1D>(2, 6, 3, 1, rng)
      .emplace<nn::ReLU>()
      .emplace<nn::MaxPool1D>(2)
      .emplace<nn::Conv1D>(6, 8, 3, 1, rng)
      .emplace<nn::ReLU>()
      .emplace<nn::Flatten>()
      .emplace<nn::Dense>(8 * 5, 16, rng)
      .emplace<nn::LayerNorm>(16)
      .emplace<nn::ReLU>()
      .emplace<nn::Dense>(16, 4, rng);
  return m;
}

nn::Samples random_samples(std::uint64_t seed, std::size_t n) {
  util::Rng rng(seed);
  nn::Samples samples;
  for (std::size_t i = 0; i < n; ++i) {
    samples.push_back({nn::Tensor::randn(kInput, rng, 1.0f),
                       static_cast<int>(i % 4)});
  }
  return samples;
}

nn::TrainConfig short_fit() {
  nn::TrainConfig cfg;
  cfg.epochs = 2;
  cfg.batch_size = 4;
  return cfg;
}

void expect_same_params(nn::Sequential& a, nn::Sequential& b) {
  const std::vector<nn::Tensor*> pa = a.params();
  const std::vector<nn::Tensor*> pb = b.params();
  ASSERT_EQ(pa.size(), pb.size());
  for (std::size_t i = 0; i < pa.size(); ++i) {
    ASSERT_EQ(pa[i]->shape(), pb[i]->shape()) << "tensor " << i;
    ASSERT_EQ(pa[i]->vec(), pb[i]->vec()) << "tensor " << i;
  }
}

TEST(GradState, LayersAreBuiltCopiedAndClonedWithoutGradients) {
  nn::Sequential m = small_net(1);
  EXPECT_EQ(m.grad_size(), 0u);
  nn::Trainer(short_fit()).fit(m, random_samples(2, 12));
  EXPECT_EQ(m.grad_size(), m.param_count());

  nn::Sequential copy = m;
  EXPECT_EQ(copy.grad_size(), 0u);
  expect_same_params(copy, m);
  for (std::size_t i = 0; i < m.layer_count(); ++i) {
    EXPECT_EQ(m.layer(i).clone()->grad_size(), 0u) << m.layer(i).kind();
  }
  // A copy trains exactly as its original would: its gradients are sized
  // (zeroed) on first use, which is what eagerly built ones held.
  nn::Sequential eager = m;
  eager.zero_grads();
  EXPECT_EQ(eager.grad_size(), eager.param_count());
  const nn::Samples more = random_samples(3, 8);
  nn::Trainer(short_fit()).fit(copy, more);
  nn::Trainer(short_fit()).fit(eager, more);
  expect_same_params(copy, eager);
}

TEST(GradState, BackwardSizesEachGradient) {
  util::Rng rng(4);
  nn::Dense dense(5, 3, rng);
  const nn::Tensor x = nn::Tensor::randn({5}, rng, 1.0f);
  dense.forward(x, /*train=*/true);
  EXPECT_EQ(dense.grad_size(), 0u);  // a training forward sizes nothing
  dense.backward(nn::Tensor::full({3}, 1.0f));
  EXPECT_EQ(dense.grad_size(), 5u * 3u + 3u);
  EXPECT_EQ(dense.grads()[1]->sum(), 3.0f);
}

TEST(GradState, ResizePathsReleaseTheGradientsTheyReshape) {
  util::Rng rng(5);
  nn::Dense dense(6, 4, rng);
  for (nn::Tensor* g : dense.grads()) g->fill(1.0f);
  dense.remove_input_block(1, 2);
  // The weight gradient changed shape and is gone; the bias gradient kept
  // its shape and what it accumulated.
  EXPECT_EQ(dense.grad_size(), 4u);
  std::vector<nn::Tensor*> g = dense.grads();
  EXPECT_EQ(g[0]->shape(), (std::vector<int>{4, 4}));
  EXPECT_EQ(g[0]->abs_sum(), 0.0f);
  EXPECT_EQ(g[1]->sum(), 4.0f);
  dense.remove_output_unit(0);
  EXPECT_EQ(dense.grad_size(), 0u);
  dense.forward(nn::Tensor::randn({4}, rng, 1.0f), /*train=*/true);
  dense.backward(nn::Tensor::full({3}, 1.0f));
  g = dense.grads();
  EXPECT_EQ(g[0]->shape(), (std::vector<int>{3, 4}));
  EXPECT_EQ(g[1]->shape(), (std::vector<int>{3}));

  nn::Conv1D conv(3, 5, 3, 1, rng);
  for (nn::Tensor* t : conv.grads()) t->fill(1.0f);
  conv.remove_input_channel(1);
  EXPECT_EQ(conv.grad_size(), 5u);
  std::vector<nn::Tensor*> cg = conv.grads();
  EXPECT_EQ(cg[0]->shape(), (std::vector<int>{5, 2, 3}));
  EXPECT_EQ(cg[0]->abs_sum(), 0.0f);
  EXPECT_EQ(cg[1]->sum(), 5.0f);
  conv.remove_output_filter(4);
  EXPECT_EQ(conv.grad_size(), 0u);
  conv.forward(nn::Tensor::randn({2, 8}, rng, 1.0f), /*train=*/true);
  conv.backward(nn::Tensor::full({4, 6}, 1.0f));
  cg = conv.grads();
  EXPECT_EQ(cg[0]->shape(), (std::vector<int>{4, 2, 3}));
  EXPECT_EQ(cg[1]->shape(), (std::vector<int>{4}));
}

TEST(GradState, PruningWithFineTunesMatchesEagerGradients) {
  // Surgery between fine-tunes, on a net that never trained and on a copy
  // whose gradients were sized up front: the same units go and the same
  // weights come out, bit for bit.
  nn::Sequential lazy = small_net(6);
  nn::Sequential eager = lazy;
  eager.zero_grads();
  const nn::ComputeProfile profile;
  nn::PruneConfig cfg;
  cfg.energy_budget_j = 0.7 * nn::estimate_cost(lazy, kInput, profile).energy_j;
  cfg.fine_tune_every = 2;
  cfg.fine_tune.batch_size = 4;
  const nn::Samples samples = random_samples(7, 12);
  const nn::PruneReport a =
      nn::prune_to_energy_budget(lazy, kInput, profile, samples, cfg);
  const nn::PruneReport b =
      nn::prune_to_energy_budget(eager, kInput, profile, samples, cfg);
  ASSERT_GT(a.steps.size(), 2u);
  ASSERT_EQ(a.steps.size(), b.steps.size());
  for (std::size_t i = 0; i < a.steps.size(); ++i) {
    EXPECT_EQ(a.steps[i].layer_index, b.steps[i].layer_index);
    EXPECT_EQ(a.steps[i].unit, b.steps[i].unit);
  }
  expect_same_params(lazy, eager);
}

TEST(GradState, ServingModelsHoldNoGradients) {
  // A model cache trained cold in a private directory, then loaded warm:
  // the loaded nets, their copies, and every model a fine-tuning serve
  // loop keeps (shard copies, the engine's base and prefixes, the fit
  // scratch of the thread that ran the fits) hold no gradients.
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("origin_grad_state_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  sim::ExperimentConfig cfg;
  cfg.pipeline.train_per_class = 12;
  cfg.pipeline.calib_per_class = 6;
  cfg.pipeline.test_per_class = 6;
  cfg.pipeline.train.epochs = 2;
  cfg.pipeline.seed = 4343;
  cfg.pipeline.cache_dir = dir.string();
  cfg.stream_slots = 60;
  { sim::Experiment cold(cfg); }
  const sim::Experiment warm(cfg);

  for (const core::SensorSystem& sensor : warm.system().sensors) {
    EXPECT_EQ(sensor.bl1.grad_size(), 0u);
    EXPECT_EQ(sensor.bl2.grad_size(), 0u);
    EXPECT_EQ(sensor.relaxed.grad_size(), 0u);
  }
  for (const auto& set : {warm.system().bl1_copy(), warm.system().bl2_copy(),
                          warm.system().relaxed_copy()}) {
    for (const nn::Sequential& model : set) EXPECT_EQ(model.grad_size(), 0u);
  }

  serve::ServeConfig serve_cfg;
  serve_cfg.users = 6;
  serve_cfg.arrival_rate_hz = 2.0;
  serve_cfg.shards = 3;
  serve_cfg.threads = 1;
  serve_cfg.personalize.enabled = true;
  serve_cfg.personalize.cadence_slots = 7;
  serve_cfg.personalize.min_samples = 4;
  serve::ServeLoop loop(warm, serve_cfg);
  loop.drain();
  ASSERT_GT(loop.metrics().counter_value("serve.fine_tunes"), 0u);
  EXPECT_EQ(loop.model_grad_size(), 0u);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace origin
