#include "nn/layernorm.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "nn/activations.hpp"
#include "nn/dense.hpp"
#include "nn/loss.hpp"
#include "nn/model.hpp"
#include "nn/serialize.hpp"
#include "util/rng.hpp"

namespace origin::nn {
namespace {

TEST(LayerNorm, Validation) {
  EXPECT_THROW(LayerNorm(0), std::invalid_argument);
  EXPECT_THROW(LayerNorm(4, 0.0f), std::invalid_argument);
  LayerNorm ln(4);
  EXPECT_THROW(ln.forward(Tensor({5}), false), std::invalid_argument);
  EXPECT_THROW(ln.output_shape({5}), std::invalid_argument);
}

TEST(LayerNorm, NormalizesToZeroMeanUnitVar) {
  LayerNorm ln(4);
  const Tensor y = ln.forward(Tensor({4}, {2.0f, 4.0f, 6.0f, 8.0f}), false);
  float mean = 0.0f;
  for (std::size_t i = 0; i < 4; ++i) mean += y[i];
  EXPECT_NEAR(mean / 4.0f, 0.0f, 1e-5f);
  float var = 0.0f;
  for (std::size_t i = 0; i < 4; ++i) var += y[i] * y[i];
  EXPECT_NEAR(var / 4.0f, 1.0f, 1e-3f);
}

TEST(LayerNorm, GammaBetaApply) {
  LayerNorm ln(2);
  ln.gamma()[0] = 3.0f;
  ln.beta()[1] = -1.0f;
  const Tensor y = ln.forward(Tensor({2}, {0.0f, 2.0f}), false);
  // x_hat = [-1, 1]
  EXPECT_NEAR(y[0], -3.0f, 1e-3f);
  EXPECT_NEAR(y[1], 0.0f, 1e-3f);
}

TEST(LayerNorm, PreservesShape) {
  LayerNorm ln(6);
  const Tensor y = ln.forward(Tensor({2, 3}), false);
  EXPECT_EQ(y.shape(), (std::vector<int>{2, 3}));
  EXPECT_EQ(ln.output_shape({2, 3}), (std::vector<int>{2, 3}));
}

TEST(LayerNorm, ScaleInvariance) {
  // LayerNorm output (with unit gamma) is invariant to input scaling.
  LayerNorm ln(5);
  util::Rng rng(1);
  Tensor x = Tensor::randn({5}, rng, 1.0f);
  Tensor scaled = x;
  scaled.scale(7.0f);
  const Tensor y1 = ln.forward(x, false);
  const Tensor y2 = ln.forward(scaled, false);
  for (std::size_t i = 0; i < 5; ++i) EXPECT_NEAR(y1[i], y2[i], 1e-3f);
}

TEST(LayerNorm, GradCheckFullModel) {
  util::Rng rng(2);
  Sequential m;
  m.emplace<Dense>(6, 8, rng)
      .emplace<LayerNorm>(8)
      .emplace<ReLU>()
      .emplace<Dense>(8, 3, rng);
  const Tensor x = Tensor::randn({6}, rng, 1.0f);
  const int target = 1;

  m.zero_grads();
  // train=true so layers cache what backward() needs (no Dropout here, so
  // results match the inference path).
  const Tensor logits = m.forward(x, true);
  m.backward(softmax_cross_entropy(logits, target).grad);

  const auto params = m.params();
  const auto grads = m.grads();
  const double eps = 1e-3;
  for (std::size_t p = 0; p < params.size(); ++p) {
    for (std::size_t i = 0; i < params[p]->size(); ++i) {
      const float saved = (*params[p])[i];
      (*params[p])[i] = saved + static_cast<float>(eps);
      const double lp = softmax_cross_entropy(m.forward(x, false), target).loss;
      (*params[p])[i] = saved - static_cast<float>(eps);
      const double lm = softmax_cross_entropy(m.forward(x, false), target).loss;
      (*params[p])[i] = saved;
      const double numeric = (lp - lm) / (2.0 * eps);
      const double analytic = (*grads[p])[i];
      const double denom =
          std::max({1.0, std::fabs(numeric), std::fabs(analytic)});
      ASSERT_NEAR(analytic / denom, numeric / denom, 3e-2)
          << "param " << p << " elem " << i;
    }
  }
}

TEST(LayerNorm, InputGradCheck) {
  LayerNorm ln(5);
  util::Rng rng(3);
  ln.gamma() = Tensor::randn({5}, rng, 1.0f);
  const Tensor x = Tensor::randn({5}, rng, 1.0f);
  const Tensor upstream({5}, {0.2f, -0.4f, 0.6f, 0.1f, -0.5f});
  ln.forward(x, true);  // a training forward: backward reads its cache
  for (Tensor* g : ln.grads()) g->zero();
  const Tensor grad = ln.backward(upstream);

  const double eps = 1e-3;
  for (std::size_t i = 0; i < x.size(); ++i) {
    Tensor xp = x, xm = x;
    xp[i] += static_cast<float>(eps);
    xm[i] -= static_cast<float>(eps);
    const Tensor yp = ln.forward(xp, false);
    const Tensor ym = ln.forward(xm, false);
    double numeric = 0.0;
    for (std::size_t j = 0; j < x.size(); ++j) {
      numeric += upstream[j] * (yp[j] - ym[j]) / (2.0 * eps);
    }
    ASSERT_NEAR(grad[i], numeric, 5e-3) << "input " << i;
  }
}

TEST(LayerNorm, SerializationRoundtrip) {
  util::Rng rng(4);
  Sequential m;
  m.emplace<Dense>(4, 6, rng).emplace<LayerNorm>(6).emplace<Dense>(6, 2, rng);
  auto* ln = dynamic_cast<LayerNorm*>(&m.layer(1));
  ASSERT_NE(ln, nullptr);
  ln->gamma()[2] = 2.5f;
  ln->beta()[3] = -0.5f;
  Sequential loaded = model_from_string(model_to_string(m));
  const Tensor x = Tensor::randn({4}, rng, 1.0f);
  const Tensor ya = m.forward(x, false);
  const Tensor yb = loaded.forward(x, false);
  for (std::size_t i = 0; i < ya.size(); ++i) EXPECT_FLOAT_EQ(ya[i], yb[i]);
}

TEST(LayerNorm, CloneIsDeep) {
  LayerNorm ln(3);
  ln.gamma()[0] = 5.0f;
  auto copy = ln.clone();
  ln.gamma()[0] = 1.0f;
  auto* c = dynamic_cast<LayerNorm*>(copy.get());
  ASSERT_NE(c, nullptr);
  EXPECT_FLOAT_EQ(c->gamma()[0], 5.0f);
}

}  // namespace
}  // namespace origin::nn
