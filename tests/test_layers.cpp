#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "nn/activations.hpp"
#include "nn/conv1d.hpp"
#include "nn/dense.hpp"
#include "nn/dropout.hpp"
#include "nn/layernorm.hpp"
#include "nn/pooling.hpp"
#include "nn/softmax.hpp"
#include "util/rng.hpp"

namespace origin::nn {
namespace {

TEST(Dense, ForwardComputesAffine) {
  Dense d(2, 2);
  d.weight().at(0, 0) = 1.0f;
  d.weight().at(0, 1) = 2.0f;
  d.weight().at(1, 0) = -1.0f;
  d.weight().at(1, 1) = 0.5f;
  d.bias()[0] = 0.1f;
  d.bias()[1] = -0.2f;
  const Tensor y = d.forward(Tensor({2}, {3.0f, 4.0f}), false);
  EXPECT_FLOAT_EQ(y[0], 3.0f + 8.0f + 0.1f);
  EXPECT_FLOAT_EQ(y[1], -3.0f + 2.0f - 0.2f);
}

TEST(Dense, ForwardAcceptsFlattenableInput) {
  util::Rng rng(1);
  Dense d(6, 2, rng);
  EXPECT_NO_THROW(d.forward(Tensor({2, 3}), false));
  EXPECT_THROW(d.forward(Tensor({7}), false), std::invalid_argument);
}

TEST(Dense, ShapesAndMacs) {
  Dense d(10, 4);
  EXPECT_EQ(d.output_shape({10}), std::vector<int>{4});
  EXPECT_EQ(d.macs({10}), 40u);
  EXPECT_EQ(d.param_count(), 44u);
  EXPECT_THROW(d.output_shape({11}), std::invalid_argument);
}

TEST(Dense, CloneIsDeep) {
  util::Rng rng(2);
  Dense d(3, 2, rng);
  auto c = d.clone();
  d.weight().at(0, 0) += 1.0f;
  auto* dc = dynamic_cast<Dense*>(c.get());
  ASSERT_NE(dc, nullptr);
  EXPECT_NE(d.weight().at(0, 0), dc->weight().at(0, 0));
}

TEST(Dense, InvalidConstruction) {
  EXPECT_THROW(Dense(0, 2), std::invalid_argument);
  EXPECT_THROW(Dense(2, -1), std::invalid_argument);
}

TEST(Dense, RemoveInputBlock) {
  Dense d(4, 2);
  for (int o = 0; o < 2; ++o)
    for (int i = 0; i < 4; ++i) d.weight().at(o, i) = static_cast<float>(10 * o + i);
  d.remove_input_block(1, 2);
  EXPECT_EQ(d.in_features(), 2);
  EXPECT_FLOAT_EQ(d.weight().at(0, 0), 0.0f);
  EXPECT_FLOAT_EQ(d.weight().at(0, 1), 3.0f);
  EXPECT_FLOAT_EQ(d.weight().at(1, 1), 13.0f);
  EXPECT_THROW(d.remove_input_block(1, 5), std::invalid_argument);
}

TEST(Dense, RemoveOutputUnit) {
  Dense d(2, 3);
  d.bias()[0] = 1.0f;
  d.bias()[1] = 2.0f;
  d.bias()[2] = 3.0f;
  d.remove_output_unit(1);
  EXPECT_EQ(d.out_features(), 2);
  EXPECT_FLOAT_EQ(d.bias()[1], 3.0f);
  Dense tiny(2, 1);
  EXPECT_THROW(tiny.remove_output_unit(0), std::invalid_argument);
}

TEST(Conv1D, OutLength) {
  EXPECT_EQ(Conv1D::out_length(64, 5, 1), 60);
  EXPECT_EQ(Conv1D::out_length(10, 3, 2), 4);
  EXPECT_EQ(Conv1D::out_length(2, 5, 1), 0);
}

TEST(Conv1D, ForwardIdentityKernel) {
  Conv1D c(1, 1, 1, 1);
  c.weight().at(0, 0, 0) = 2.0f;
  c.bias()[0] = 1.0f;
  const Tensor y = c.forward(Tensor({1, 3}, {1, 2, 3}), false);
  EXPECT_EQ(y.shape(), (std::vector<int>{1, 3}));
  EXPECT_FLOAT_EQ(y.at(0, 1), 5.0f);
}

TEST(Conv1D, ForwardKnownConvolution) {
  Conv1D c(1, 1, 2, 1);
  c.weight().at(0, 0, 0) = 1.0f;
  c.weight().at(0, 0, 1) = -1.0f;
  const Tensor y = c.forward(Tensor({1, 4}, {1, 4, 9, 16}), false);
  // Differences: 1-4, 4-9, 9-16
  EXPECT_FLOAT_EQ(y.at(0, 0), -3.0f);
  EXPECT_FLOAT_EQ(y.at(0, 1), -5.0f);
  EXPECT_FLOAT_EQ(y.at(0, 2), -7.0f);
}

TEST(Conv1D, StrideSkips) {
  Conv1D c(1, 1, 1, 2);
  c.weight().at(0, 0, 0) = 1.0f;
  const Tensor y = c.forward(Tensor({1, 5}, {0, 1, 2, 3, 4}), false);
  EXPECT_EQ(y.dim(1), 3);
  EXPECT_FLOAT_EQ(y.at(0, 1), 2.0f);
}

TEST(Conv1D, ShapeValidation) {
  Conv1D c(2, 3, 5, 1);
  EXPECT_THROW(c.forward(Tensor({3, 10}), false), std::invalid_argument);
  EXPECT_THROW(c.forward(Tensor({2, 3}), false), std::invalid_argument);
  EXPECT_EQ(c.output_shape({2, 10}), (std::vector<int>{3, 6}));
  EXPECT_EQ(c.macs({2, 10}), static_cast<std::uint64_t>(3 * 6 * 2 * 5));
}

TEST(Conv1D, FilterL2AndSurgery) {
  Conv1D c(1, 2, 2, 1);
  c.weight().at(0, 0, 0) = 3.0f;
  c.weight().at(0, 0, 1) = 4.0f;
  c.weight().at(1, 0, 0) = 1.0f;
  EXPECT_FLOAT_EQ(c.filter_l2(0), 5.0f);
  EXPECT_FLOAT_EQ(c.filter_l2(1), 1.0f);
  c.remove_output_filter(1);
  EXPECT_EQ(c.out_channels(), 1);
  EXPECT_FLOAT_EQ(c.filter_l2(0), 5.0f);
  EXPECT_THROW(c.remove_output_filter(0), std::invalid_argument);
}

TEST(Conv1D, RemoveInputChannel) {
  Conv1D c(3, 1, 1, 1);
  c.weight().at(0, 0, 0) = 1.0f;
  c.weight().at(0, 1, 0) = 2.0f;
  c.weight().at(0, 2, 0) = 3.0f;
  c.remove_input_channel(1);
  EXPECT_EQ(c.in_channels(), 2);
  EXPECT_FLOAT_EQ(c.weight().at(0, 1, 0), 3.0f);
}

TEST(ReLU, ClampsNegatives) {
  ReLU r;
  const Tensor y = r.forward(Tensor({4}, {-1, 0, 2, -3}), false);
  EXPECT_FLOAT_EQ(y[0], 0.0f);
  EXPECT_FLOAT_EQ(y[1], 0.0f);
  EXPECT_FLOAT_EQ(y[2], 2.0f);
  EXPECT_FLOAT_EQ(y[3], 0.0f);
}

TEST(ReLU, BackwardMasksGradient) {
  ReLU r;
  r.forward(Tensor({3}, {-1, 1, 0}), true);
  const Tensor g = r.backward(Tensor({3}, {5, 5, 5}));
  EXPECT_FLOAT_EQ(g[0], 0.0f);
  EXPECT_FLOAT_EQ(g[1], 5.0f);
  EXPECT_FLOAT_EQ(g[2], 0.0f);  // gradient at exactly 0 defined as 0
}

TEST(Flatten, RoundTripShape) {
  Flatten f;
  const Tensor y = f.forward(Tensor({2, 3}), true);
  EXPECT_EQ(y.rank(), 1);
  EXPECT_EQ(y.size(), 6u);
  const Tensor g = f.backward(Tensor({6}));
  EXPECT_EQ(g.shape(), (std::vector<int>{2, 3}));
}

TEST(MaxPool1D, SelectsMaxima) {
  MaxPool1D p(2);
  const Tensor y = p.forward(Tensor({1, 4}, {1, 7, 3, 2}), false);
  EXPECT_EQ(y.shape(), (std::vector<int>{1, 2}));
  EXPECT_FLOAT_EQ(y.at(0, 0), 7.0f);
  EXPECT_FLOAT_EQ(y.at(0, 1), 3.0f);
}

TEST(MaxPool1D, BackwardRoutesToArgmax) {
  MaxPool1D p(2);
  p.forward(Tensor({1, 4}, {1, 7, 3, 2}), true);
  const Tensor g = p.backward(Tensor({1, 2}, {10, 20}));
  EXPECT_FLOAT_EQ(g.at(0, 0), 0.0f);
  EXPECT_FLOAT_EQ(g.at(0, 1), 10.0f);
  EXPECT_FLOAT_EQ(g.at(0, 2), 20.0f);
  EXPECT_FLOAT_EQ(g.at(0, 3), 0.0f);
}

TEST(MaxPool1D, OddLengthDropsTail) {
  MaxPool1D p(2);
  const Tensor y = p.forward(Tensor({1, 5}, {1, 2, 3, 4, 9}), false);
  EXPECT_EQ(y.dim(1), 2);
}

TEST(MaxPool1D, BatchMatchesForwardOnNanSignedZeroAndTies) {
  // Inference selects branch-free; a training forward runs the argmax
  // loop. Both must pick the first maximum under strict `>`: a NaN neither
  // replaces the running best nor is replaced once it leads, and +0/-0 or
  // equal values keep whichever came first. Compared as raw bits so the
  // sign of a zero and a NaN's payload both count.
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  const std::vector<float> row = {
      nan,  1.0f,  1.0f,  nan,  0.0f, -0.0f, -0.0f, 0.0f,  2.0f,
      2.0f, -inf,  nan,   3.0f, -1.0f, -1.0f, 3.0f, nan,  nan,
      inf,  inf,   -5.0f, -inf, 0.0f,  0.0f,  -0.0f, nan,  7.0f};
  const int len = static_cast<int>(row.size());
  std::vector<float> data(row);
  for (float v : row) data.push_back(-v);  // second channel, signs flipped
  const Tensor x({2, len}, data);
  const auto bits = [](float v) {
    std::uint32_t b = 0;
    std::memcpy(&b, &v, sizeof b);
    return b;
  };
  const std::vector<std::pair<int, int>> shapes = {
      {2, 2}, {2, 1}, {3, 1}, {3, 2}, {4, 4}};
  for (const auto& [pool, stride] : shapes) {
    SCOPED_TRACE(::testing::Message() << "pool " << pool << ", stride "
                                      << stride);
    MaxPool1D p(pool, stride);
    const Tensor trained = p.forward(x, true);
    const Tensor inferred = p.forward(x, false);
    ASSERT_EQ(inferred.shape(), trained.shape());
    for (std::size_t i = 0; i < trained.size(); ++i) {
      EXPECT_EQ(bits(inferred[i]), bits(trained[i])) << "element " << i;
    }
  }
}

TEST(MaxPool1D, Validation) {
  EXPECT_THROW(MaxPool1D(0), std::invalid_argument);
  MaxPool1D p(4);
  EXPECT_THROW(p.forward(Tensor({1, 3}), false), std::invalid_argument);
  EXPECT_THROW(p.output_shape({3}), std::invalid_argument);
}

TEST(Dropout, InferenceIsIdentity) {
  Dropout d(0.5f);
  const Tensor x({8}, {1, 2, 3, 4, 5, 6, 7, 8});
  const Tensor y = d.forward(x, false);
  for (std::size_t i = 0; i < x.size(); ++i) EXPECT_FLOAT_EQ(y[i], x[i]);
}

TEST(Dropout, TrainDropsAndRescales) {
  Dropout d(0.5f, 123);
  Tensor x = Tensor::full({10000}, 1.0f);
  const Tensor y = d.forward(x, true);
  int zeros = 0;
  double sum = 0.0;
  for (std::size_t i = 0; i < y.size(); ++i) {
    if (y[i] == 0.0f) {
      ++zeros;
    } else {
      EXPECT_FLOAT_EQ(y[i], 2.0f);  // inverted dropout rescale
    }
    sum += y[i];
  }
  EXPECT_NEAR(zeros / 10000.0, 0.5, 0.03);
  EXPECT_NEAR(sum / 10000.0, 1.0, 0.06);
}

TEST(Dropout, BackwardUsesSameMask) {
  Dropout d(0.5f, 7);
  Tensor x = Tensor::full({100}, 1.0f);
  const Tensor y = d.forward(x, true);
  const Tensor g = d.backward(Tensor::full({100}, 1.0f));
  for (std::size_t i = 0; i < y.size(); ++i) {
    EXPECT_FLOAT_EQ(g[i], y[i]);
  }
}

TEST(Dropout, InvalidRate) {
  EXPECT_THROW(Dropout(-0.1f), std::invalid_argument);
  EXPECT_THROW(Dropout(1.0f), std::invalid_argument);
}

TEST(Softmax, SumsToOne) {
  Softmax s;
  const Tensor y = s.forward(Tensor({3}, {1.0f, 2.0f, 3.0f}), false);
  EXPECT_NEAR(y.sum(), 1.0f, 1e-6);
  EXPECT_GT(y[2], y[1]);
  EXPECT_GT(y[1], y[0]);
}

TEST(Softmax, StableForLargeLogits) {
  const auto p = softmax({1000.0f, 1000.0f, 999.0f});
  EXPECT_NEAR(p[0], p[1], 1e-6);
  EXPECT_FALSE(std::isnan(p[0]));
  EXPECT_NEAR(p[0] + p[1] + p[2], 1.0f, 1e-6);
}

TEST(Softmax, EmptyInput) {
  EXPECT_TRUE(softmax({}).empty());
}

// --- The layer contract ------------------------------------------------
// Every kind has one forward_batch and one backward_batch. A batch must be
// bit-identical to its batches of one — outputs under both `train` values,
// input gradients, the accumulated parameter gradients and Dropout's RNG
// stream — and backward_batch throws std::logic_error unless a training
// forward of the same count precedes it.

struct KindCase {
  const char* name;
  std::vector<int> in_shape;
  LayerPtr (*make)();  // two calls give two identical layers
};

const KindCase kKinds[] = {
    {"conv1d", {3, 11},
     [] {
       util::Rng rng(11);
       return LayerPtr(std::make_unique<Conv1D>(3, 4, 3, 2, rng));
     }},
    {"dense", {12},
     [] {
       util::Rng rng(12);
       return LayerPtr(std::make_unique<Dense>(12, 5, rng));
     }},
    {"maxpool1d", {3, 9},
     [] { return LayerPtr(std::make_unique<MaxPool1D>(3, 2)); }},
    {"relu", {2, 5}, [] { return LayerPtr(std::make_unique<ReLU>()); }},
    {"flatten", {3, 4}, [] { return LayerPtr(std::make_unique<Flatten>()); }},
    {"dropout", {10},
     [] { return LayerPtr(std::make_unique<Dropout>(0.4f, 99)); }},
    {"softmax", {6}, [] { return LayerPtr(std::make_unique<Softmax>()); }},
    {"layernorm", {2, 4},
     [] {
       util::Rng rng(13);
       auto ln = std::make_unique<LayerNorm>(8);
       ln->gamma() = Tensor::randn({8}, rng, 1.0f);
       ln->beta() = Tensor::randn({8}, rng, 0.5f);
       return LayerPtr(std::move(ln));
     }},
};

bool same_bits(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(), sizeof(float) * a.size()) == 0;
}

TEST(LayerContract, BatchEqualsBatchesOfOneForEveryKind) {
  for (const KindCase& k : kKinds) {
    for (const std::size_t count : {1u, 3u, 8u}) {
      for (const bool train : {false, true}) {
        SCOPED_TRACE(std::string(k.name) + " count " + std::to_string(count) +
                     (train ? " train" : " inference"));
        LayerPtr batched = k.make();
        LayerPtr single = k.make();
        util::Rng rng(1000 + count);
        std::vector<Tensor> xs, ys(count), gys, gxs(count);
        std::vector<const Tensor*> x_ptrs, gy_ptrs;
        for (std::size_t b = 0; b < count; ++b) {
          xs.push_back(Tensor::randn(k.in_shape, rng, 1.0f));
        }
        for (const Tensor& x : xs) x_ptrs.push_back(&x);
        batched->forward_batch(x_ptrs.data(), count, ys.data(), train);
        for (std::size_t b = 0; b < count; ++b) {
          gys.push_back(Tensor::randn(ys[b].shape(), rng, 1.0f));
        }
        for (const Tensor& g : gys) gy_ptrs.push_back(&g);
        if (train) batched->backward_batch(gy_ptrs.data(), count, gxs.data());

        for (std::size_t b = 0; b < count; ++b) {
          EXPECT_TRUE(same_bits(ys[b], single->forward(xs[b], train)))
              << "output " << b;
          if (train) {
            EXPECT_TRUE(same_bits(gxs[b], single->backward(gys[b])))
                << "input gradient " << b;
          }
        }
        const auto grads_a = batched->grads();
        const auto grads_b = single->grads();
        ASSERT_EQ(grads_a.size(), grads_b.size());
        for (std::size_t i = 0; i < grads_a.size(); ++i) {
          EXPECT_TRUE(same_bits(*grads_a[i], *grads_b[i]))
              << "parameter gradient " << i;
        }
        // The RNG stream: one more training forward draws the same masks.
        EXPECT_TRUE(same_bits(batched->forward(xs[0], true),
                              single->forward(xs[0], true)))
            << "next training forward";
      }
    }
  }
}

TEST(LayerContract, BackwardWithoutTrainingForwardThrows) {
  for (const KindCase& k : kKinds) {
    SCOPED_TRACE(k.name);
    LayerPtr layer = k.make();
    util::Rng rng(7);
    const Tensor x = Tensor::randn(k.in_shape, rng, 1.0f);
    const Tensor gy(layer->output_shape(k.in_shape));
    // No forward at all.
    EXPECT_THROW(layer->backward(gy), std::logic_error);
    // An inference forward retains nothing.
    layer->forward(x, false);
    EXPECT_THROW(layer->backward(gy), std::logic_error);
    // An inference forward drops an earlier training cache.
    layer->forward(x, true);
    layer->forward(x, false);
    EXPECT_THROW(layer->backward(gy), std::logic_error);
    // A backward of another count than the training forward's.
    const Tensor* xs[] = {&x, &x, &x};
    Tensor ys[3];
    layer->forward_batch(xs, 3, ys, true);
    const Tensor* gys[] = {&gy, &gy};
    Tensor gxs[2];
    EXPECT_THROW(layer->backward_batch(gys, 2, gxs), std::logic_error);
    // The matching count succeeds.
    layer->forward(x, true);
    EXPECT_NO_THROW(layer->backward(gy));
  }
}

}  // namespace
}  // namespace origin::nn
