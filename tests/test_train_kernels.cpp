// Bit-identity contract of the fast training path: GEMM-backed backward
// kernels, batched forward/backward through Sequential, the batched
// trainer, and the parallel train_system stage must all reproduce the
// per-sample reference loops exactly — not approximately — because the
// pipeline's model cache keys and the fleet determinism guarantees rest
// on trained weights being a pure function of the config seed. Kernel vs
// scalar-oracle cases pin the reference backend; batched vs per-sample
// cases compare within whichever backend is active.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "core/pipeline.hpp"
#include "nn/activations.hpp"
#include "nn/conv1d.hpp"
#include "nn/dense.hpp"
#include "nn/dropout.hpp"
#include "nn/model.hpp"
#include "nn/pooling.hpp"
#include "nn/serialize.hpp"
#include "nn/softmax.hpp"
#include "nn/trainer.hpp"
#include "util/rng.hpp"

#include "backend_scope.hpp"

namespace origin::nn {
namespace {

using test_support::BackendScope;

void expect_bit_identical(const Tensor& a, const Tensor& b) {
  ASSERT_EQ(a.shape(), b.shape());
  for (std::size_t i = 0; i < a.size(); ++i) {
    // ASSERT_EQ on float is exact comparison — bit identity, not epsilon.
    ASSERT_EQ(a[i], b[i]) << "element " << i;
  }
}

void expect_same_grads(Layer& a, Layer& b) {
  const auto ga = a.grads();
  const auto gb = b.grads();
  ASSERT_EQ(ga.size(), gb.size());
  for (std::size_t i = 0; i < ga.size(); ++i) {
    SCOPED_TRACE("grad tensor " + std::to_string(i));
    expect_bit_identical(*ga[i], *gb[i]);
  }
}

Tensor random_input(const std::vector<int>& shape, std::uint64_t seed) {
  util::Rng rng(seed);
  return Tensor::randn(shape, rng, 1.0f);
}

// --- Conv1D backward kernels vs reference loops -----------------------

struct ConvCase {
  int cin, cout, kernel, stride, length;
};

const ConvCase kConvCases[] = {
    {1, 1, 1, 1, 1},    // degenerate: everything is 1
    {2, 3, 3, 1, 8},    // small odd
    {3, 7, 5, 2, 21},   // stride > 1, odd filter count (GEMM remainders)
    {2, 3, 9, 1, 9},    // kernel == length -> single output column
    {6, 20, 5, 1, 64},  // the deployed BL-1 first stage
    {5, 4, 2, 3, 17},   // stride > kernel
    {4, 13, 3, 2, 11},  // rows not a multiple of the 4-row tile
    {20, 32, 5, 1, 30},  // the deployed BL-1 second stage
};

TEST(TrainKernels, ConvBackwardMatchesReferenceAcrossShapes) {
  BackendScope scope("reference");  // the oracle is the scalar loop
  std::uint64_t seed = 5000;
  for (const auto& c : kConvCases) {
    util::Rng rng_a(seed);
    util::Rng rng_b(seed);
    Conv1D fast(c.cin, c.cout, c.kernel, c.stride, rng_a);
    Conv1D ref(c.cin, c.cout, c.kernel, c.stride, rng_b);
    SCOPED_TRACE(fast.describe());

    const Tensor x = random_input({c.cin, c.length}, seed + 1);
    const Tensor y = fast.forward(x, /*train=*/true);
    expect_bit_identical(y, ref.forward(x, /*train=*/true));
    const Tensor gy = random_input(y.shape(), seed + 2);

    // Two consecutive backwards: the second exercises gradient
    // accumulation on top of non-zero grads (the contract is that each
    // accumulator starts from its current value).
    for (int round = 0; round < 2; ++round) {
      SCOPED_TRACE("round " + std::to_string(round));
      const Tensor gx_fast = fast.backward(gy);
      const Tensor gx_ref = ref.backward_reference(gy);
      expect_bit_identical(gx_fast, gx_ref);
      expect_same_grads(fast, ref);
    }
    seed += 10;
  }
}

TEST(TrainKernels, ConvBackwardBatchMatchesSequentialSamples) {
  std::uint64_t seed = 6000;
  for (const auto& c : kConvCases) {
    const std::size_t counts[] = {1, 3, 7};
    for (const std::size_t count : counts) {
      util::Rng rng_a(seed);
      util::Rng rng_b(seed);
      Conv1D batched(c.cin, c.cout, c.kernel, c.stride, rng_a);
      Conv1D serial(c.cin, c.cout, c.kernel, c.stride, rng_b);
      SCOPED_TRACE(batched.describe() + " count=" + std::to_string(count));

      std::vector<Tensor> xs, gys;
      std::vector<const Tensor*> x_ptrs, gy_ptrs;
      for (std::size_t b = 0; b < count; ++b) {
        xs.push_back(random_input({c.cin, c.length}, seed + 10 + b));
      }
      std::vector<Tensor> ys(count), gxs(count);
      for (std::size_t b = 0; b < count; ++b) x_ptrs.push_back(&xs[b]);
      batched.forward_batch_train(x_ptrs.data(), count, ys.data());
      for (std::size_t b = 0; b < count; ++b) {
        gys.push_back(random_input(ys[b].shape(), seed + 20 + b));
      }
      for (std::size_t b = 0; b < count; ++b) gy_ptrs.push_back(&gys[b]);
      batched.backward_batch(gy_ptrs.data(), count, gxs.data());

      for (std::size_t b = 0; b < count; ++b) {
        const Tensor y = serial.forward(xs[b], /*train=*/true);
        expect_bit_identical(ys[b], y);
        expect_bit_identical(gxs[b], serial.backward(gys[b]));
      }
      expect_same_grads(batched, serial);
      seed += 10;
    }
  }
}

// --- Dense backward kernels vs reference loops ------------------------

TEST(TrainKernels, DenseBackwardMatchesReferenceAcrossShapes) {
  BackendScope scope("reference");  // the oracle is the scalar loop
  const std::pair<int, int> cases[] = {
      {1, 1}, {4, 8}, {13, 7}, {64, 5}, {320, 64}, {9, 33}};
  std::uint64_t seed = 7000;
  for (const auto& [in, out] : cases) {
    util::Rng rng_a(seed);
    util::Rng rng_b(seed);
    Dense fast(in, out, rng_a);
    Dense ref(in, out, rng_b);
    SCOPED_TRACE(fast.describe());

    const Tensor x = random_input({in}, seed + 1);
    expect_bit_identical(fast.forward(x, true), ref.forward(x, true));
    const Tensor gy = random_input({out}, seed + 2);
    for (int round = 0; round < 2; ++round) {
      SCOPED_TRACE("round " + std::to_string(round));
      expect_bit_identical(fast.backward(gy), ref.backward_reference(gy));
      expect_same_grads(fast, ref);
    }
    seed += 10;
  }
}

TEST(TrainKernels, DenseBackwardBatchMatchesSequentialSamples) {
  const std::pair<int, int> cases[] = {{4, 8}, {13, 7}, {320, 64}};
  std::uint64_t seed = 8000;
  for (const auto& [in, out] : cases) {
    const std::size_t count = 6;
    util::Rng rng_a(seed);
    util::Rng rng_b(seed);
    Dense batched(in, out, rng_a);
    Dense serial(in, out, rng_b);
    SCOPED_TRACE(batched.describe());

    std::vector<Tensor> xs, gys;
    std::vector<const Tensor*> x_ptrs, gy_ptrs;
    for (std::size_t b = 0; b < count; ++b) {
      xs.push_back(random_input({in}, seed + 10 + b));
      gys.push_back(random_input({out}, seed + 20 + b));
    }
    std::vector<Tensor> ys(count), gxs(count);
    for (std::size_t b = 0; b < count; ++b) {
      x_ptrs.push_back(&xs[b]);
      gy_ptrs.push_back(&gys[b]);
    }
    batched.forward_batch_train(x_ptrs.data(), count, ys.data());
    batched.backward_batch(gy_ptrs.data(), count, gxs.data());

    for (std::size_t b = 0; b < count; ++b) {
      expect_bit_identical(ys[b], serial.forward(xs[b], true));
      expect_bit_identical(gxs[b], serial.backward(gys[b]));
    }
    expect_same_grads(batched, serial);
    seed += 10;
  }
}

TEST(TrainKernels, BackwardBatchWithoutForwardThrows) {
  util::Rng rng(1);
  Conv1D conv(2, 3, 3, 1, rng);
  Tensor gy({3, 6});
  const Tensor* ptr = &gy;
  Tensor gx;
  EXPECT_THROW(conv.backward_batch(&ptr, 1, &gx), std::logic_error);
  Dense dense(4, 2, rng);
  Tensor gy2({2});
  const Tensor* ptr2 = &gy2;
  EXPECT_THROW(dense.backward_batch(&ptr2, 1, &gx), std::logic_error);
}

// --- Full-model batched training vs per-sample reference --------------

/// The BL-1 shape in miniature: conv/pool stack, dropout, dense head.
Sequential tiny_cnn(std::uint64_t seed) {
  util::Rng rng(seed);
  Sequential m;
  m.emplace<Conv1D>(3, 6, 5, 1, rng)
      .emplace<ReLU>()
      .emplace<MaxPool1D>(2)
      .emplace<Flatten>()
      .emplace<Dense>(6 * MaxPool1D::out_length(Conv1D::out_length(20, 5, 1), 2, 2),
                      16, rng)
      .emplace<ReLU>()
      .emplace<Dropout>(0.25f)
      .emplace<Dense>(16, 4, rng);
  return m;
}

Samples random_samples(int n, std::uint64_t seed) {
  util::Rng rng(seed);
  Samples out;
  for (int i = 0; i < n; ++i) {
    Tensor x = Tensor::randn({3, 20}, rng, 1.0f);
    out.push_back({std::move(x), static_cast<int>(rng.below(4))});
  }
  return out;
}

TEST(TrainKernels, FitKernelsMatchesReferenceWeights) {
  const Sequential base = tiny_cnn(99);
  ASSERT_TRUE(base.supports_batch_train());
  const Samples train = random_samples(37, 123);  // partial final batch

  TrainConfig cfg;
  cfg.epochs = 3;
  cfg.batch_size = 8;
  cfg.learning_rate = 5e-3;
  cfg.shuffle_seed = 777;

  // Copying the model clones every layer; Dropout::clone resets its RNG,
  // so both copies consume identical dropout streams.
  Sequential ref_model = base;
  Sequential fast_model = base;
  TrainConfig ref_cfg = cfg;
  ref_cfg.use_kernels = false;
  const auto ref_hist = Trainer(ref_cfg).fit(ref_model, train);
  const auto fast_hist = Trainer(cfg).fit(fast_model, train);

  ASSERT_EQ(ref_hist.size(), fast_hist.size());
  for (std::size_t e = 0; e < ref_hist.size(); ++e) {
    EXPECT_EQ(ref_hist[e].loss, fast_hist[e].loss) << "epoch " << e;
    EXPECT_EQ(ref_hist[e].accuracy, fast_hist[e].accuracy) << "epoch " << e;
  }
  EXPECT_EQ(model_to_string(ref_model), model_to_string(fast_model));
}

TEST(TrainKernels, FitKernelsMatchesReferenceWithMixupAndEarlyStop) {
  const Sequential base = tiny_cnn(42);
  const Samples train = random_samples(30, 321);

  TrainConfig cfg;
  cfg.epochs = 4;
  cfg.batch_size = 7;  // batch never divides the dataset evenly
  cfg.learning_rate = 5e-3;
  cfg.mixup_prob = 0.5;  // exercises the mixup RNG draw-order contract
  cfg.early_stop_accuracy = 0.4;
  cfg.shuffle_seed = 2024;

  Sequential ref_model = base;
  Sequential fast_model = base;
  TrainConfig ref_cfg = cfg;
  ref_cfg.use_kernels = false;
  const auto ref_hist = Trainer(ref_cfg).fit(ref_model, train);
  const auto fast_hist = Trainer(cfg).fit(fast_model, train);

  ASSERT_EQ(ref_hist.size(), fast_hist.size());  // same early-stop epoch
  for (std::size_t e = 0; e < ref_hist.size(); ++e) {
    EXPECT_EQ(ref_hist[e].loss, fast_hist[e].loss) << "epoch " << e;
    EXPECT_EQ(ref_hist[e].accuracy, fast_hist[e].accuracy) << "epoch " << e;
  }
  EXPECT_EQ(model_to_string(ref_model), model_to_string(fast_model));
}

TEST(TrainKernels, FitFallsBackForUnsupportedLayers) {
  util::Rng rng(7);
  Sequential with_softmax;
  with_softmax.emplace<Dense>(4, 8, rng)
      .emplace<ReLU>()
      .emplace<Softmax>();
  EXPECT_FALSE(with_softmax.supports_batch_train());

  Samples train;
  util::Rng data_rng(8);
  for (int i = 0; i < 12; ++i) {
    train.push_back(
        {Tensor::randn({4}, data_rng, 1.0f), static_cast<int>(data_rng.below(8))});
  }
  Sequential ref_model = with_softmax;
  Sequential fast_model = with_softmax;
  TrainConfig cfg;
  cfg.epochs = 2;
  TrainConfig ref_cfg = cfg;
  ref_cfg.use_kernels = false;
  Trainer(ref_cfg).fit(ref_model, train);
  Trainer(cfg).fit(fast_model, train);  // dispatches to the reference loop
  EXPECT_EQ(model_to_string(ref_model), model_to_string(fast_model));
}

}  // namespace
}  // namespace origin::nn

// --- Parallel train_system determinism --------------------------------

namespace origin::core {
namespace {

PipelineConfig micro_train(const std::string& cache_dir, int threads) {
  PipelineConfig cfg;
  cfg.train_per_class = 10;
  cfg.calib_per_class = 6;
  cfg.test_per_class = 6;
  cfg.train.epochs = 2;
  cfg.cache_dir = cache_dir;
  cfg.use_cache = true;
  cfg.seed = 555;
  cfg.train_threads = threads;
  return cfg;
}

std::string slurp(const std::filesystem::path& p) {
  std::ifstream in(p, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

TEST(TrainSystemParallel, ModelFilesByteIdenticalAcrossThreadCounts) {
  const auto base = std::filesystem::temp_directory_path();
  const auto dir_serial = (base / "origin_train_serial").string();
  const auto dir_parallel = (base / "origin_train_parallel").string();
  std::filesystem::remove_all(dir_serial);
  std::filesystem::remove_all(dir_parallel);

  TrainedSystem serial, parallel;
  train_system(serial, micro_train(dir_serial, 1));
  train_system(parallel, micro_train(dir_parallel, 4));

  // Same cache key, same filenames — compare every model file bytewise.
  std::size_t files = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir_serial)) {
    const auto name = entry.path().filename();
    const auto other = std::filesystem::path(dir_parallel) / name;
    ASSERT_TRUE(std::filesystem::exists(other)) << name;
    EXPECT_EQ(slurp(entry.path()), slurp(other)) << name;
    ++files;
  }
  EXPECT_EQ(files, 3u * data::kNumSensors);  // bl1 + bl2 + rlx per sensor
  // No temp files may survive the atomic rename.
  for (const auto& dir : {dir_serial, dir_parallel}) {
    for (const auto& entry : std::filesystem::directory_iterator(dir)) {
      EXPECT_EQ(entry.path().extension(), ".bin") << entry.path();
    }
  }
  std::filesystem::remove_all(dir_serial);
  std::filesystem::remove_all(dir_parallel);
}

TEST(CacheDirDefault, RespectsEnvironmentOverride) {
  const char* saved = std::getenv("ORIGIN_CACHE_DIR");
  const std::string saved_value = saved ? saved : "";
  ::setenv("ORIGIN_CACHE_DIR", "/tmp/origin_cache_env_test", 1);
  EXPECT_EQ(default_cache_dir(), "/tmp/origin_cache_env_test");
  ::unsetenv("ORIGIN_CACHE_DIR");
  EXPECT_EQ(default_cache_dir(), "origin_models");
  if (saved) ::setenv("ORIGIN_CACHE_DIR", saved_value.c_str(), 1);
}

}  // namespace
}  // namespace origin::core
