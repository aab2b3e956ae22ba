// Bit-identity contract of the fast inference kernels (nn/kernels.hpp):
// on the reference backend the im2row + blocked-GEMM forward paths must
// reproduce the naive loops (tests/nn_oracles.hpp) exactly — not
// approximately — and under whichever backend is active every batched
// forward must equal that backend's batch of one, since the fleet
// runtime's determinism guarantees (bit-identical metrics across thread
// counts and panel shapes) rest on it. Oracle cases pin the reference backend themselves,
// so the suite passes under any ORIGIN_BACKEND.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <vector>

#include "nn/activations.hpp"
#include "nn/conv1d.hpp"
#include "nn/dense.hpp"
#include "nn/dropout.hpp"
#include "nn/kernels.hpp"
#include "nn/kernels/backend.hpp"
#include "nn/model.hpp"
#include "nn/pooling.hpp"
#include "nn/softmax.hpp"
#include "util/det_math.hpp"
#include "util/rng.hpp"

#include "backend_scope.hpp"
#include "nn_oracles.hpp"

namespace origin::nn {
namespace {

using test_support::BackendScope;
using test_support::conv1d_forward_oracle;
using test_support::dense_forward_oracle;

void expect_bit_identical(const Tensor& a, const Tensor& b) {
  ASSERT_EQ(a.shape(), b.shape());
  for (std::size_t i = 0; i < a.size(); ++i) {
    // EXPECT_EQ on float is exact comparison — bit identity, not epsilon.
    ASSERT_EQ(a[i], b[i]) << "element " << i;
  }
}

Tensor random_input(const std::vector<int>& shape, std::uint64_t seed) {
  util::Rng rng(seed);
  return Tensor::randn(shape, rng, 1.0f);
}

// --- Conv1D kernel vs reference loops ---------------------------------

struct ConvCase {
  int cin, cout, kernel, stride, length;
};

TEST(Kernels, ConvForwardMatchesReferenceAcrossShapes) {
  BackendScope scope("reference");  // the oracle is the scalar loop
  const ConvCase cases[] = {
      {1, 1, 1, 1, 1},    // degenerate: everything is 1
      {2, 3, 3, 1, 8},    // small odd
      {3, 7, 5, 2, 21},   // stride > 1, odd filter count (GEMM remainders)
      {2, 3, 9, 1, 9},    // kernel == length -> single output column
      {6, 20, 5, 1, 64},  // the deployed BL-1 first stage
      {5, 4, 2, 3, 17},   // stride > kernel
      {4, 13, 3, 2, 11},  // rows not a multiple of the 4-row tile
  };
  std::uint64_t seed = 1000;
  for (const auto& c : cases) {
    util::Rng rng(seed);
    Conv1D conv(c.cin, c.cout, c.kernel, c.stride, rng);
    const Tensor x = random_input({c.cin, c.length}, seed + 1);
    const Tensor fast = conv.forward(x, false);
    const Tensor ref = conv1d_forward_oracle(conv, x);
    SCOPED_TRACE(conv.describe());
    expect_bit_identical(fast, ref);
    seed += 2;
  }
}

TEST(Kernels, ConvForwardMatchesReferenceAfterPruning) {
  BackendScope scope("reference");  // the oracle is the scalar loop
  // Structured pruning produces the odd channel counts the blocked GEMM's
  // remainder paths must handle (e.g. 20 -> 17 filters).
  util::Rng rng(7);
  Conv1D conv(6, 20, 5, 1, rng);
  conv.remove_output_filter(3);
  conv.remove_output_filter(11);
  conv.remove_output_filter(0);
  ASSERT_EQ(conv.out_channels(), 17);
  const Tensor x = random_input({6, 64}, 8);
  expect_bit_identical(conv.forward(x, false),
                       conv1d_forward_oracle(conv, x));

  Conv1D conv2(6, 8, 5, 1, rng);
  conv2.remove_input_channel(2);
  ASSERT_EQ(conv2.in_channels(), 5);
  const Tensor x2 = random_input({5, 33}, 9);
  expect_bit_identical(conv2.forward(x2, false),
                       conv1d_forward_oracle(conv2, x2));
}

TEST(Kernels, ConvTrainAndInferencePathsAgree) {
  util::Rng rng(17);
  Conv1D conv(3, 5, 4, 2, rng);
  const Tensor x = random_input({3, 19}, 18);
  expect_bit_identical(conv.forward(x, true), conv.forward(x, false));
}

TEST(Kernels, ConvForwardBatchMatchesPerSample) {
  util::Rng rng(21);
  Conv1D conv(4, 9, 5, 1, rng);
  std::vector<Tensor> inputs;
  std::vector<const Tensor*> ptrs;
  for (int b = 0; b < 7; ++b) {
    inputs.push_back(random_input({4, 25}, 100 + static_cast<std::uint64_t>(b)));
  }
  for (const auto& t : inputs) ptrs.push_back(&t);
  std::vector<Tensor> outputs(inputs.size());
  conv.forward_batch(ptrs.data(), ptrs.size(), outputs.data(), false);
  for (std::size_t b = 0; b < inputs.size(); ++b) {
    SCOPED_TRACE(b);
    expect_bit_identical(outputs[b], conv.forward(inputs[b], false));
  }
}

// --- Dense kernel vs reference loops ----------------------------------

TEST(Kernels, DenseForwardMatchesReferenceAcrossShapes) {
  BackendScope scope("reference");  // the oracle is the scalar loop
  const std::pair<int, int> cases[] = {{1, 1}, {3, 2}, {17, 13}, {64, 64},
                                       {960, 64}, {5, 31}};
  std::uint64_t seed = 2000;
  for (const auto& [in, out] : cases) {
    util::Rng rng(seed);
    Dense dense(in, out, rng);
    const Tensor x = random_input({in}, seed + 1);
    SCOPED_TRACE(dense.describe());
    expect_bit_identical(dense.forward(x, false),
                         dense_forward_oracle(dense, x));
    seed += 2;
  }
}

TEST(Kernels, DenseForwardBatchMatchesPerSample) {
  util::Rng rng(31);
  Dense dense(23, 11, rng);
  std::vector<Tensor> inputs;
  std::vector<const Tensor*> ptrs;
  for (int b = 0; b < 9; ++b) {
    inputs.push_back(random_input({23}, 300 + static_cast<std::uint64_t>(b)));
  }
  for (const auto& t : inputs) ptrs.push_back(&t);
  std::vector<Tensor> outputs(inputs.size());
  dense.forward_batch(ptrs.data(), ptrs.size(), outputs.data(), false);
  for (std::size_t b = 0; b < inputs.size(); ++b) {
    SCOPED_TRACE(b);
    expect_bit_identical(outputs[b], dense.forward(inputs[b], false));
  }
}

// --- Thread-local scratch reuse ---------------------------------------

TEST(Kernels, ScratchSurvivesAlternatingShapes) {
  BackendScope scope("reference");  // the oracle is the scalar loop
  // Alternate between two conv shapes on one thread: the shared scratch
  // buffers must grow/reuse without corrupting either computation.
  util::Rng rng(41);
  Conv1D small(2, 3, 3, 1, rng);
  Conv1D big(6, 20, 5, 1, rng);
  const Tensor xs = random_input({2, 10}, 42);
  const Tensor xb = random_input({6, 64}, 43);
  for (int round = 0; round < 3; ++round) {
    expect_bit_identical(small.forward(xs, false),
                         conv1d_forward_oracle(small, xs));
    expect_bit_identical(big.forward(xb, false),
                         conv1d_forward_oracle(big, xb));
  }
}

TEST(Kernels, ScratchGrowsAndShrinksAcrossBatchSizes) {
  BackendScope scope("reference");  // the oracle is the scalar loop
  util::Rng rng(51);
  Dense dense(12, 5, rng);
  for (std::size_t count : {1u, 16u, 2u, 33u, 1u}) {
    std::vector<Tensor> inputs;
    std::vector<const Tensor*> ptrs;
    for (std::size_t b = 0; b < count; ++b) {
      inputs.push_back(
          random_input({12}, 500 + static_cast<std::uint64_t>(b)));
    }
    for (const auto& t : inputs) ptrs.push_back(&t);
    std::vector<Tensor> outputs(count);
    dense.forward_batch(ptrs.data(), count, outputs.data(), false);
    for (std::size_t b = 0; b < count; ++b) {
      expect_bit_identical(outputs[b], dense_forward_oracle(dense, inputs[b]));
    }
  }
}

// --- Whole-model batched inference ------------------------------------

Sequential deployed_like_cnn(std::uint64_t seed) {
  // Mirrors the BL-1 per-sensor architecture, Dropout (identity at
  // inference) included.
  util::Rng rng(seed);
  Sequential m;
  m.emplace<Conv1D>(6, 20, 5, 1, rng)
      .emplace<ReLU>()
      .emplace<MaxPool1D>(2)
      .emplace<Conv1D>(20, 32, 5, 1, rng)
      .emplace<ReLU>()
      .emplace<MaxPool1D>(2)
      .emplace<Flatten>()
      .emplace<Dense>(32 * 13, 64, rng)
      .emplace<ReLU>()
      .emplace<Dropout>(0.5f)
      .emplace<Dense>(64, 6, rng);
  return m;
}

TEST(Kernels, PredictBatchMatchesSequentialPredict) {
  Sequential m = deployed_like_cnn(61);
  std::vector<Tensor> inputs;
  for (int b = 0; b < 12; ++b) {
    inputs.push_back(random_input({6, 64}, 600 + static_cast<std::uint64_t>(b)));
  }
  const auto batched = m.predict_batch(std::span<const Tensor>(inputs));
  ASSERT_EQ(batched.size(), inputs.size());
  for (std::size_t b = 0; b < inputs.size(); ++b) {
    EXPECT_EQ(batched[b], m.predict(inputs[b])) << "sample " << b;
  }
}

TEST(Kernels, PredictProbaBatchBitIdenticalToPerSample) {
  Sequential m = deployed_like_cnn(71);
  std::vector<Tensor> inputs;
  for (int b = 0; b < 5; ++b) {
    inputs.push_back(random_input({6, 64}, 700 + static_cast<std::uint64_t>(b)));
  }
  const auto batched = m.predict_proba_batch(std::span<const Tensor>(inputs));
  ASSERT_EQ(batched.size(), inputs.size());
  for (std::size_t b = 0; b < inputs.size(); ++b) {
    const auto single = m.predict_proba(inputs[b]);
    ASSERT_EQ(batched[b].size(), single.size());
    for (std::size_t i = 0; i < single.size(); ++i) {
      EXPECT_EQ(batched[b][i], single[i]) << "sample " << b << " class " << i;
    }
  }
}

TEST(Kernels, ForwardBatchInferenceHandlesEmptyAndSingle) {
  Sequential m = deployed_like_cnn(81);
  m.forward_batch(nullptr, 0, nullptr, false);  // no-op, no crash
  const Tensor x = random_input({6, 64}, 82);
  const Tensor* ptr = &x;
  Tensor out;
  m.forward_batch(&ptr, 1, &out, false);
  expect_bit_identical(out, m.forward(x, false));
}

// --- Inference retains nothing; backward is guarded -------------------

TEST(Kernels, InferenceForwardDoesNotEnableBackward) {
  util::Rng rng(91);
  Conv1D conv(2, 3, 3, 1, rng);
  const Tensor x = random_input({2, 8}, 92);
  conv.forward(x, false);
  EXPECT_THROW(conv.backward(Tensor({3, 6})), std::logic_error);

  Dense dense(4, 2, rng);
  dense.forward(random_input({4}, 93), false);
  EXPECT_THROW(dense.backward(Tensor({2})), std::logic_error);

  ReLU relu;
  relu.forward(random_input({5}, 94), false);
  EXPECT_THROW(relu.backward(Tensor({5})), std::logic_error);

  MaxPool1D pool(2);
  pool.forward(random_input({1, 8}, 95), false);
  EXPECT_THROW(pool.backward(Tensor({1, 4})), std::logic_error);

  Softmax sm;
  sm.forward(random_input({4}, 96), false);
  EXPECT_THROW(sm.backward(Tensor({4})), std::logic_error);
}

TEST(Kernels, TrainingForwardStillEnablesBackward) {
  util::Rng rng(101);
  Conv1D conv(2, 3, 3, 1, rng);
  const Tensor x = random_input({2, 8}, 102);
  conv.forward(x, true);
  EXPECT_NO_THROW(conv.backward(Tensor({3, 6})));

  // A training forward followed by an inference forward drops the cache
  // again — predict() between training steps must not leak state.
  conv.forward(x, true);
  conv.forward(x, false);
  EXPECT_THROW(conv.backward(Tensor({3, 6})), std::logic_error);
}

// --- gauss_fill: the keyed Box–Muller noise fill ----------------------

constexpr std::size_t kFillLengths[] = {1, 2, 3, 7, 384, 385};

TEST(Kernels, GaussFillReferenceIsBoxMuller) {
  // The reference is the documented formula, written out here once more.
  constexpr double kPi = 3.141592653589793;
  const std::uint64_t key = 0x0123456789abcdefULL;
  std::vector<double> got(64);
  kernels::find_backend("reference")->gauss_fill(key, got.data(), got.size());
  for (std::uint32_t j = 0; j < 32; ++j) {
    const double u1 =
        (static_cast<double>(util::keyed_word(key, 2 * j)) + 0.5) * 0x1.0p-32;
    const double theta =
        static_cast<double>(util::keyed_word(key, 2 * j + 1)) *
            (2.0 * kPi * 0x1.0p-32) -
        kPi;
    const double r = std::sqrt(-2.0 * util::det_log(u1));
    ASSERT_EQ(got[2 * j], r * util::det_sin(theta)) << "pair " << j;
    ASSERT_EQ(got[2 * j + 1], r * util::det_sin(theta + kPi / 2)) << "pair " << j;
    // And it is the Gaussian pair libm would give, to rounding.
    ASSERT_NEAR(got[2 * j], std::sqrt(-2.0 * std::log(u1)) * std::sin(theta),
                1e-9);
    ASSERT_NEAR(got[2 * j + 1],
                std::sqrt(-2.0 * std::log(u1)) * std::cos(theta), 1e-9);
  }
}

TEST(Kernels, GaussFillBitIdenticalAcrossBackends) {
  const kernels::Backend& ref = *kernels::find_backend("reference");
  for (const kernels::Backend* b : kernels::available_backends()) {
    util::Rng keys(301);
    for (int rep = 0; rep < 200; ++rep) {
      const std::uint64_t key = keys.next_u64();
      for (std::size_t n : kFillLengths) {
        std::vector<double> want(n), got(n);
        ref.gauss_fill(key, want.data(), n);
        b->gauss_fill(key, got.data(), n);
        ASSERT_EQ(0, std::memcmp(want.data(), got.data(), n * sizeof(double)))
            << b->name << " key " << key << " n " << n;
      }
    }
  }
}

TEST(Kernels, GaussFillEveryLengthIsAPrefix) {
  // Value i depends on (key, i) alone: every length, through every vector
  // tail, is a prefix of the longest fill, and nothing past n is written.
  constexpr std::size_t kMax = 70;
  constexpr double kCanary = 12345.0;
  for (const kernels::Backend* b : kernels::available_backends()) {
    std::vector<double> full(kMax);
    b->gauss_fill(77, full.data(), kMax);
    for (std::size_t n = 0; n < kMax; ++n) {
      std::vector<double> part(kMax, kCanary);
      b->gauss_fill(77, part.data(), n);
      for (std::size_t i = 0; i < kMax; ++i) {
        ASSERT_EQ(part[i], i < n ? full[i] : kCanary)
            << b->name << " n " << n << " i " << i;
      }
    }
  }
}

TEST(Kernels, GaussFillMomentsAndKeyDecorrelation) {
  // 2^20 values from 2,731 windows' keys (the stream cursor's derivation:
  // slot keys from one seed, window keys from slot keys), standardized
  // moments of N(0, 1); and the correlation between the same value index
  // of adjacent slots and of adjacent sensors stays at sampling noise.
  constexpr std::size_t kPerWindow = 384;
  constexpr std::uint64_t kSlots = 911;
  const kernels::Backend& ref = *kernels::find_backend("reference");
  std::vector<std::vector<double>> windows;  // [slot * 3 + sensor]
  for (std::uint64_t slot = 0; slot < kSlots; ++slot) {
    const std::uint64_t slot_key = util::derive_key(424242, slot);
    for (std::uint64_t s = 0; s < 3; ++s) {
      windows.emplace_back(kPerWindow);
      ref.gauss_fill(util::derive_key(slot_key, s), windows.back().data(),
                     kPerWindow);
    }
  }
  double m1 = 0, m2 = 0, m3 = 0, m4 = 0, n = 0;
  for (const auto& w : windows) {
    for (double g : w) {
      m1 += g;
      m2 += g * g;
      m3 += g * g * g;
      m4 += g * g * g * g;
      n += 1;
    }
  }
  ASSERT_GE(n, 1.0e6);
  m1 /= n, m2 /= n, m3 /= n, m4 /= n;
  EXPECT_NEAR(m1, 0.0, 0.005);
  EXPECT_NEAR(m2, 1.0, 0.005);
  EXPECT_NEAR(m3, 0.0, 0.02);
  EXPECT_NEAR(m4, 3.0, 0.03);

  const auto correlation = [&](std::size_t stride) {
    double sxy = 0, count = 0;
    for (std::size_t a = 0; a + stride < windows.size(); ++a) {
      for (std::size_t i = 0; i < kPerWindow; ++i) {
        sxy += windows[a][i] * windows[a + stride][i];
        count += 1;
      }
    }
    return sxy / count;  // both sides are N(0, 1)
  };
  // ~1e6 products: the sampling standard deviation is about 0.001.
  EXPECT_LT(std::fabs(correlation(3)), 0.005) << "slot vs slot + 1";
  EXPECT_LT(std::fabs(correlation(1)), 0.005) << "sensor s vs s + 1";
}

}  // namespace
}  // namespace origin::nn
