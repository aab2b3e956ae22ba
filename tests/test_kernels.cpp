// Bit-identity contract of the fast inference kernels (nn/kernels.hpp):
// on the reference backend the im2row + blocked-GEMM forward paths must
// reproduce the naive reference loops exactly — not approximately — and
// under whichever backend is active every batched forward must equal that
// backend's single-sample path, since the fleet runtime's determinism
// guarantees (bit-identical metrics across thread counts and panel
// shapes) rest on it. Oracle cases pin the reference backend themselves,
// so the suite passes under any ORIGIN_BACKEND.
#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "nn/activations.hpp"
#include "nn/conv1d.hpp"
#include "nn/dense.hpp"
#include "nn/dropout.hpp"
#include "nn/kernels.hpp"
#include "nn/model.hpp"
#include "nn/pooling.hpp"
#include "nn/softmax.hpp"
#include "util/rng.hpp"

#include "backend_scope.hpp"

namespace origin::nn {
namespace {

using test_support::BackendScope;

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
    const Tensor ref = conv.forward_reference(x);
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
  expect_bit_identical(conv.forward(x, false), conv.forward_reference(x));

  Conv1D conv2(6, 8, 5, 1, rng);
  conv2.remove_input_channel(2);
  ASSERT_EQ(conv2.in_channels(), 5);
  const Tensor x2 = random_input({5, 33}, 9);
  expect_bit_identical(conv2.forward(x2, false), conv2.forward_reference(x2));
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
  conv.forward_batch(ptrs.data(), ptrs.size(), outputs.data());
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
    expect_bit_identical(dense.forward(x, false), dense.forward_reference(x));
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
  dense.forward_batch(ptrs.data(), ptrs.size(), outputs.data());
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
    expect_bit_identical(small.forward(xs, false), small.forward_reference(xs));
    expect_bit_identical(big.forward(xb, false), big.forward_reference(xb));
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
    dense.forward_batch(ptrs.data(), count, outputs.data());
    for (std::size_t b = 0; b < count; ++b) {
      expect_bit_identical(outputs[b], dense.forward_reference(inputs[b]));
    }
  }
}

// --- Whole-model batched inference ------------------------------------

Sequential deployed_like_cnn(std::uint64_t seed) {
  // Mirrors the BL-1 per-sensor architecture, Dropout included, so the
  // batched path covers the default Layer::forward_batch fallback too.
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
  m.forward_batch_inference(nullptr, 0, nullptr);  // no-op, no crash
  const Tensor x = random_input({6, 64}, 82);
  const Tensor* ptr = &x;
  Tensor out;
  m.forward_batch_inference(&ptr, 1, &out);
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

}  // namespace
}  // namespace origin::nn
