// The kernel-backend dispatch contract (DESIGN.md §13):
//
//   1. Registry: the reference backend always exists and is the default;
//      "auto" resolves to the best available backend; unknown names are
//      rejected without changing the active backend.
//   2. Within-backend bit-identity: each backend's outputs are exact —
//      golden FNV-1a checksums over conv/dense/backward/synthesis outputs
//      ("reference" has its own goldens; avx2 has the "fused" goldens
//      because it uses single-rounded FMA in a fixed k order),
//      and batch == single bit-for-bit under every backend.
//   3. Cross-backend equivalence: backends agree within a small tolerance
//      (fused vs unfused rounding), never bit-for-bit.
//   4. Int8 serving path: integer accumulation is exact, so int8 outputs
//      are bit-identical across ALL backends, and on a trained fixture's
//      held-out set every int8 probability stays near the float one, so
//      only near-even float calls can change class.
//   5. Serve tier: ServeLoop results are bit-identical across thread
//      counts under every backend (and under bits=8), and a snapshot
//      refuses to restore under a different backend or word width.
//
// Registered as one ctest entry with LABELS backends (the trained fixture
// is shared across cases; per-case discovery would retrain it).
#include "nn/kernels/backend.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "core/pipeline.hpp"
#include "data/signal_model.hpp"
#include "nn/conv1d.hpp"
#include "nn/dense.hpp"
#include "nn/energy_model.hpp"
#include "nn/kernels.hpp"
#include "nn/quantize.hpp"
#include "serve/serve_loop.hpp"
#include "serve/snapshot.hpp"
#include "sim/experiment.hpp"
#include "util/rng.hpp"

#include "backend_scope.hpp"

namespace origin {
namespace {

namespace k = nn::kernels;

using test_support::BackendScope;

std::uint64_t fnv1a_f32(const float* p, std::size_t n) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (std::size_t i = 0; i < n; ++i) {
    std::uint32_t bits;
    std::memcpy(&bits, &p[i], sizeof bits);
    for (int b = 0; b < 4; ++b) {
      h ^= (bits >> (8 * b)) & 0xFFu;
      h *= 0x100000001b3ULL;
    }
  }
  return h;
}

std::uint64_t fnv1a_tensor(const nn::Tensor& t) {
  return fnv1a_f32(t.data(), t.size());
}

// --- Deterministic kernel workloads (fixed seeds; shapes exercise the
// SIMD main loops AND the edges: the conv's 8 rows x 60 columns hits the
// AVX2 4-row x 24-column tiles plus a 12-column edge tile with a masked
// 4-lane tail, and the dense layer's 11 x 1 output hits the 8-row narrow
// tile plus a 3-row remainder).

nn::Tensor conv_output() {
  util::Rng rng(101);
  nn::Conv1D conv(6, 8, 5, 1, rng);
  const nn::Tensor x = nn::Tensor::randn({6, 64}, rng, 1.0f);
  return conv.forward(x, /*train=*/false);
}

nn::Tensor dense_output() {
  util::Rng rng(202);
  nn::Dense dense(50, 11, rng);
  const nn::Tensor x = nn::Tensor::randn({50}, rng, 1.0f);
  return dense.forward(x, /*train=*/false);
}

/// grad_weight ++ grad_bias ++ grad_input of one conv training step.
std::vector<float> conv_backward_output() {
  util::Rng rng(303);
  nn::Conv1D conv(4, 8, 3, 1, rng);
  const nn::Tensor x = nn::Tensor::randn({4, 40}, rng, 1.0f);
  const nn::Tensor y = conv.forward(x, /*train=*/true);
  const nn::Tensor g = nn::Tensor::randn(y.shape(), rng, 1.0f);
  const nn::Tensor gx = conv.backward(g);
  std::vector<float> all;
  for (nn::Tensor* t : conv.grads()) {
    all.insert(all.end(), t->data(), t->data() + t->size());
  }
  all.insert(all.end(), gx.data(), gx.data() + gx.size());
  return all;
}

nn::Tensor synth_output() {
  const auto spec = data::dataset_spec(data::DatasetKind::MHealthLike);
  const data::SignalModel model(spec, data::reference_user());
  util::Rng rng(404);
  const auto style =
      data::draw_shared_style(spec, data::Activity::Running, rng);
  return model.window(data::Activity::Running, data::SensorLocation::LeftAnkle,
                      0.0, rng.next_u64(), style);
}

/// Golden checksums per backend family. The reference backend never fuses
/// (compiled -ffp-contract=off), so it has its own set; avx2 computes
/// every element as single-rounded fused FMAs in a fixed k order, the
/// "fused" set — on any machine, either backend matches its family's
/// goldens exactly or it is broken.
struct Goldens {
  std::uint64_t conv, dense, backward, synth;
};

const Goldens& goldens_for(const std::string& backend) {
  // The synth checksum is the same in both families: synthesis
  // accumulates in double and stores float, so the fused-vs-unfused
  // double rounding difference (~1e-16 relative) is absorbed by the
  // float store on every sample of this window.
  static const Goldens kReference{0x06b13ed78bfbc62bULL, 0xaa55c3fbd126264dULL,
                                  0x4d7f987c48082df0ULL, 0xcd51690622d4137cULL};
  static const Goldens kFused{0xdd73ac3c610f08fdULL, 0x95038c22737234a9ULL,
                              0xf3b97205bfe5bd3dULL, 0xcd51690622d4137cULL};
  return backend == "reference" ? kReference : kFused;
}

// ---------------------------------------------------------------------------
// 1. Registry

TEST(BackendRegistry, ReferenceAlwaysAvailableAndDefault) {
  const auto& all = k::available_backends();
  ASSERT_FALSE(all.empty());
  EXPECT_STREQ(all.front()->name, "reference");
  ASSERT_NE(k::find_backend("reference"), nullptr);
  // Every registered kernel pointer is non-null on every backend.
  for (const k::Backend* b : all) {
    EXPECT_NE(b->im2row, nullptr) << b->name;
    EXPECT_NE(b->gemm_bias, nullptr) << b->name;
    EXPECT_NE(b->gemm_acc_nt, nullptr) << b->name;
    EXPECT_NE(b->gemm_tn, nullptr) << b->name;
    EXPECT_NE(b->row_sum_acc, nullptr) << b->name;
    EXPECT_NE(b->conv1d_grad_input, nullptr) << b->name;
    EXPECT_NE(b->gemm_bias_i8, nullptr) << b->name;
    EXPECT_NE(b->synth_channel, nullptr) << b->name;
    EXPECT_NE(b->gauss_fill, nullptr) << b->name;
  }
}

TEST(BackendRegistry, AutoResolvesToBestAvailable) {
  const auto& all = k::available_backends();
  EXPECT_EQ(k::find_backend("auto"), all.back());
  BackendScope scope("auto");
  EXPECT_STREQ(k::active_backend().name, all.back()->name);
}

TEST(BackendRegistry, UnknownNameRejectedWithoutSwitching) {
  const std::string before = k::active_backend().name;
  EXPECT_EQ(k::find_backend("bogus"), nullptr);
  EXPECT_FALSE(k::set_backend("bogus"));
  EXPECT_EQ(std::string(k::active_backend().name), before);
}

TEST(BackendRegistry, SimdFeaturesNonEmpty) {
  EXPECT_FALSE(k::simd_features().empty());
}

// ---------------------------------------------------------------------------
// 2. Within-backend bit-identity: golden checksums + batch == single

TEST(BackendGoldens, PerBackendChecksumsExact) {
  for (const k::Backend* b : k::available_backends()) {
    BackendScope scope(b->name);
    const Goldens& want = goldens_for(b->name);
    EXPECT_EQ(fnv1a_tensor(conv_output()), want.conv) << b->name;
    EXPECT_EQ(fnv1a_tensor(dense_output()), want.dense) << b->name;
    const auto back = conv_backward_output();
    EXPECT_EQ(fnv1a_f32(back.data(), back.size()), want.backward) << b->name;
    EXPECT_EQ(fnv1a_tensor(synth_output()), want.synth) << b->name;
  }
}

TEST(BackendGoldens, BatchMatchesSinglePerBackend) {
  // The serve tier classifies every window through a cross-session panel,
  // so batch == single must hold for the float and the int8 (--bits 8)
  // serving paths alike.
  const auto spec = data::dataset_spec(data::DatasetKind::MHealthLike);
  for (const k::Backend* b : k::available_backends()) {
    BackendScope scope(b->name);
    for (int bits : {32, 8}) {
      SCOPED_TRACE(bits);
      auto net = core::make_bl1_architecture(spec, 77);
      if (bits != 32) net.set_inference_bits(bits);
      util::Rng rng(7);
      std::vector<nn::Tensor> windows;
      std::vector<const nn::Tensor*> ptrs;
      for (int i = 0; i < 9; ++i) {
        windows.push_back(
            nn::Tensor::randn({spec.channels, spec.window_len}, rng, 1.0f));
      }
      for (const auto& w : windows) ptrs.push_back(&w);
      const auto batched = net.predict_proba_batch(ptrs.data(), ptrs.size());
      for (std::size_t i = 0; i < windows.size(); ++i) {
        const auto single = net.predict_proba(windows[i]);
        ASSERT_EQ(batched[i].size(), single.size()) << b->name;
        for (std::size_t c = 0; c < single.size(); ++c) {
          EXPECT_EQ(batched[i][c], single[c])
              << b->name << " window " << i << " class " << c;
        }
      }
    }
  }
}

TEST(BackendGoldens, SimdGemmMatchesFmaOracle) {
  // An oracle independent of every backend's tiling: each output element
  // is one std::fmaf chain from the bias in k order. The grid covers each
  // AVX2 tile shape (4x24 main, 3/2/1-row remainders, the 8-row narrow
  // path for n < 8), every masked tail width, and kd from a single FMA to
  // the BL-1 dense layer. Guard words around C catch stray stores.
  constexpr float kGuard = -12345.0f;
  const std::vector<int> ms = {1, 2, 3, 4, 5, 6, 7, 8, 9, 13, 15, 20, 32, 64};
  const std::vector<int> ns = {1,  2,  3,  4,  5,  6,  7,  8,  9,  15, 16,
                               23, 24, 25, 26, 47, 48, 60, 832};
  const std::vector<int> kds = {1, 5, 30, 100, 416};
  for (const k::Backend* b : k::available_backends()) {
    if (std::string(b->name) == "reference") continue;
    BackendScope scope(b->name);
    util::Rng rng(505);
    for (int kd : kds) {
      for (int m : ms) {
        std::vector<float> a(static_cast<std::size_t>(m) * kd);
        std::vector<float> bias(static_cast<std::size_t>(m));
        for (float& v : a) v = static_cast<float>(rng.gauss());
        for (float& v : bias) v = static_cast<float>(rng.gauss());
        for (int n : ns) {
          std::vector<float> p(static_cast<std::size_t>(kd) * n);
          for (float& v : p) v = static_cast<float>(rng.gauss());
          const std::size_t cn = static_cast<std::size_t>(m) * n;
          std::vector<float> c(cn + 16, kGuard);
          k::gemm_bias(a.data(), bias.data(), p.data(), c.data() + 8, m, kd,
                       n);
          int mismatches = 0;
          for (int i = 0; i < m; ++i) {
            for (int j = 0; j < n; ++j) {
              float want = bias[static_cast<std::size_t>(i)];
              for (int q = 0; q < kd; ++q) {
                want = std::fmaf(a[static_cast<std::size_t>(i) * kd + q],
                                 p[static_cast<std::size_t>(q) * n + j], want);
              }
              const float got = c[8 + static_cast<std::size_t>(i) * n + j];
              mismatches +=
                  std::memcmp(&got, &want, sizeof got) != 0 ? 1 : 0;
            }
          }
          for (std::size_t g = 0; g < 8; ++g) {
            EXPECT_EQ(c[g], kGuard);
            EXPECT_EQ(c[8 + cn + g], kGuard);
          }
          EXPECT_EQ(mismatches, 0) << b->name << " m=" << m << " kd=" << kd
                                   << " n=" << n;
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// 3. Cross-backend tolerance grid

TEST(BackendEquivalence, FloatKernelsAgreeWithinTolerance) {
  nn::Tensor conv_ref, dense_ref, synth_ref;
  {
    BackendScope scope("reference");
    conv_ref = conv_output();
    dense_ref = dense_output();
    synth_ref = synth_output();
  }
  for (const k::Backend* b : k::available_backends()) {
    if (std::string(b->name) == "reference") continue;
    BackendScope scope(b->name);
    const nn::Tensor conv_b = conv_output();
    ASSERT_EQ(conv_b.size(), conv_ref.size());
    for (std::size_t i = 0; i < conv_ref.size(); ++i) {
      EXPECT_NEAR(conv_b[i], conv_ref[i],
                  1e-4f * (1.0f + std::fabs(conv_ref[i])))
          << b->name << " conv[" << i << "]";
    }
    const nn::Tensor dense_b = dense_output();
    for (std::size_t i = 0; i < dense_ref.size(); ++i) {
      EXPECT_NEAR(dense_b[i], dense_ref[i],
                  1e-4f * (1.0f + std::fabs(dense_ref[i])))
          << b->name << " dense[" << i << "]";
    }
    // Synthesis runs in double; fused vs unfused det_sin differs only in
    // final-digit rounding before the float store.
    const nn::Tensor synth_b = synth_output();
    for (std::size_t i = 0; i < synth_ref.size(); ++i) {
      EXPECT_NEAR(synth_b[i], synth_ref[i],
                  1e-5f * (1.0f + std::fabs(synth_ref[i])))
          << b->name << " synth[" << i << "]";
    }
  }
}

// ---------------------------------------------------------------------------
// 4. Int8 serving path

TEST(Int8Path, BitIdenticalAcrossBackends) {
  const auto spec = data::dataset_spec(data::DatasetKind::MHealthLike);
  util::Rng rng(55);
  std::vector<nn::Tensor> windows;
  for (int i = 0; i < 5; ++i) {
    windows.push_back(
        nn::Tensor::randn({spec.channels, spec.window_len}, rng, 1.0f));
  }
  std::vector<std::vector<float>> ref_probs;
  {
    BackendScope scope("reference");
    auto net = core::make_bl1_architecture(spec, 88);
    net.set_inference_bits(8);
    for (const auto& w : windows) ref_probs.push_back(net.predict_proba(w));
  }
  for (const k::Backend* b : k::available_backends()) {
    BackendScope scope(b->name);
    auto net = core::make_bl1_architecture(spec, 88);
    net.set_inference_bits(8);
    for (std::size_t i = 0; i < windows.size(); ++i) {
      const auto probs = net.predict_proba(windows[i]);
      ASSERT_EQ(probs.size(), ref_probs[i].size());
      for (std::size_t c = 0; c < probs.size(); ++c) {
        EXPECT_EQ(probs[c], ref_probs[i][c])
            << b->name << " window " << i << " class " << c;
      }
    }
  }
}

TEST(Int8Path, RoundTripAndSurgeryReset) {
  const auto spec = data::dataset_spec(data::DatasetKind::MHealthLike);
  auto net = core::make_bl1_architecture(spec, 99);
  util::Rng rng(9);
  const nn::Tensor x =
      nn::Tensor::randn({spec.channels, spec.window_len}, rng, 1.0f);
  const nn::Tensor y_float = net.forward(x, false);
  EXPECT_EQ(net.inference_bits(), 32);

  net.set_inference_bits(8);
  EXPECT_EQ(net.inference_bits(), 8);
  const nn::Tensor y_int8 = net.forward(x, false);
  bool any_differs = false;
  for (std::size_t i = 0; i < y_float.size(); ++i) {
    any_differs = any_differs || y_float[i] != y_int8[i];
  }
  EXPECT_TRUE(any_differs) << "int8 path produced the float bits";

  // Clone carries the mode; switching back to 32 restores the float bits.
  nn::Sequential clone = net;
  EXPECT_EQ(clone.inference_bits(), 8);
  net.set_inference_bits(32);
  const nn::Tensor y_back = net.forward(x, false);
  for (std::size_t i = 0; i < y_float.size(); ++i) {
    EXPECT_EQ(y_back[i], y_float[i]);
  }

  EXPECT_THROW(net.set_inference_bits(1), std::invalid_argument);
  EXPECT_THROW(net.set_inference_bits(9), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// 5. Trained fixture: accuracy + serve tier (shared across cases)

core::PipelineConfig micro_pipeline() {
  core::PipelineConfig cfg;
  cfg.train_per_class = 12;
  cfg.calib_per_class = 6;
  cfg.test_per_class = 6;
  cfg.train.epochs = 2;
  cfg.use_cache = false;
  cfg.seed = 4242;
  return cfg;
}

class TrainedBackendTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    sim::ExperimentConfig cfg;
    cfg.pipeline = micro_pipeline();
    cfg.stream_slots = 60;
    experiment_ = new sim::Experiment(cfg);
  }
  static void TearDownTestSuite() {
    delete experiment_;
    experiment_ = nullptr;
  }

  static serve::ServeConfig small_config() {
    serve::ServeConfig cfg;
    cfg.users = 6;
    cfg.arrival_rate_hz = 2.0;
    cfg.shards = 3;
    cfg.policy = sim::PolicyKind::Origin;
    return cfg;
  }

  static std::vector<serve::CompletedSession> drain(serve::ServeConfig cfg) {
    serve::ServeLoop loop(*experiment_, cfg);
    loop.drain(32);
    return loop.completed_sessions();
  }

  static void expect_same(const std::vector<serve::CompletedSession>& a,
                          const std::vector<serve::CompletedSession>& b,
                          const std::string& what) {
    ASSERT_EQ(a.size(), b.size()) << what;
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].id, b[i].id) << what;
      EXPECT_EQ(a[i].completed_tick, b[i].completed_tick) << what;
      EXPECT_EQ(a[i].outputs_fnv1a, b[i].outputs_fnv1a) << what;
      EXPECT_EQ(a[i].outputs, b[i].outputs) << what;
      EXPECT_EQ(a[i].accuracy, b[i].accuracy) << what;
    }
  }

  static sim::Experiment* experiment_;
};

sim::Experiment* TrainedBackendTest::experiment_ = nullptr;

/// How far 8-bit serving may move any class probability from the float
/// path. Rounding every weight and activation to its tensor's 8-bit grid
/// moved none by more than 0.025 over ten fixture draws (seeds
/// 4242-4251), while a 5 % error in a dense layer's int8 output scale
/// moves some past 0.05.
constexpr float kMaxProbShift = 0.05f;

std::size_t argmax(const std::vector<float>& p) {
  return static_cast<std::size_t>(std::max_element(p.begin(), p.end()) -
                                  p.begin());
}

TEST_F(TrainedBackendTest, Int8AndFakeQuantMatchFloatOffNearTies) {
  const core::TrainedSystem& system = experiment_->system();
  auto float_models = system.bl1_copy();
  auto int8_models = system.bl1_copy();
  for (auto& m : int8_models) m.set_inference_bits(8);
  auto fake_models = system.bl1_copy();
  for (auto& m : fake_models) nn::quantize_weights(m, 8);

  // Per window, not per count: the int8 serving path and the fake-quant
  // simulation stay within kMaxProbShift of the float probabilities, so
  // they pick the float path's class wherever its lead over the runner-up
  // is more than twice that. Only a near-even float call may flip, which
  // is also all an accuracy difference between the paths can come from.
  int windows = 0;
  for (std::size_t s = 0; s < data::kNumSensors; ++s) {
    const nn::Samples test = core::make_test_set(
        experiment_->config().pipeline, system.spec,
        static_cast<data::SensorLocation>(s));
    for (const auto& sample : test) {
      const auto want = float_models[s].predict_proba(sample.input);
      std::vector<float> sorted = want;
      std::sort(sorted.begin(), sorted.end());
      const float lead = sorted.back() - sorted[sorted.size() - 2];
      for (auto* models : {&int8_models, &fake_models}) {
        const bool int8 = models == &int8_models;
        const auto got = (*models)[s].predict_proba(sample.input);
        ASSERT_EQ(got.size(), want.size());
        for (std::size_t c = 0; c < want.size(); ++c) {
          EXPECT_NEAR(got[c], want[c], kMaxProbShift)
              << (int8 ? "int8" : "fake-quant") << " sensor " << s
              << " window " << windows << " class " << c;
        }
        if (lead > 2.0f * kMaxProbShift) {
          EXPECT_EQ(argmax(got), argmax(want))
              << (int8 ? "int8" : "fake-quant") << " sensor " << s
              << " window " << windows << " lead " << lead;
        }
      }
      ++windows;
    }
  }
  ASSERT_GT(windows, 0);
}

TEST_F(TrainedBackendTest, EnergyModelCreditsInt8Mode) {
  const core::TrainedSystem& system = experiment_->system();
  const std::vector<int> shape = {system.spec.channels,
                                  system.spec.window_len};
  nn::Sequential float_net = system.sensors[0].bl1;
  nn::Sequential int8_net = system.sensors[0].bl1;
  int8_net.set_inference_bits(8);
  const auto float_cost = nn::estimate_cost(float_net, shape);
  const auto int8_cost = nn::estimate_cost(int8_net, shape);
  const auto what_if = nn::estimate_quantized_cost(float_net, shape, 8);
  EXPECT_LT(int8_cost.energy_j, float_cost.energy_j);
  EXPECT_DOUBLE_EQ(int8_cost.energy_j, what_if.energy_j);
  EXPECT_EQ(int8_cost.macs, float_cost.macs);
}

TEST_F(TrainedBackendTest, ServeBitIdenticalAcrossThreadsPerBackend) {
  for (const k::Backend* b : k::available_backends()) {
    BackendScope scope(b->name);
    serve::ServeConfig cfg = small_config();
    cfg.threads = 1;
    const auto reference = drain(cfg);
    ASSERT_EQ(reference.size(), cfg.users) << b->name;
    for (unsigned threads : {2u, 8u}) {
      cfg.threads = threads;
      expect_same(reference, drain(cfg),
                  std::string(b->name) + " threads=" +
                      std::to_string(threads));
    }
  }
}

TEST_F(TrainedBackendTest, ServeInt8BitIdenticalAcrossThreadsAndBackends) {
  std::vector<serve::CompletedSession> reference;
  {
    BackendScope scope("reference");
    serve::ServeConfig cfg = small_config();
    cfg.bits = 8;
    cfg.threads = 1;
    reference = drain(cfg);
    ASSERT_EQ(reference.size(), cfg.users);
    cfg.threads = 8;
    expect_same(reference, drain(cfg), "int8 reference threads=8");
  }
  // Integer accumulation is exact, so the int8 serve results are the same
  // bits under every backend — unlike the float path.
  for (const k::Backend* b : k::available_backends()) {
    BackendScope scope(b->name);
    serve::ServeConfig cfg = small_config();
    cfg.bits = 8;
    cfg.threads = 2;
    expect_same(reference, drain(cfg), std::string("int8 ") + b->name);
  }
}

TEST_F(TrainedBackendTest, SnapshotRefusesBitsMismatch) {
  const std::string path = "test_backends_bits.snap";
  serve::ServeConfig cfg = small_config();
  serve::ServeLoop first(*experiment_, cfg);
  first.tick(4);
  first.save(path);

  serve::ServeConfig other = cfg;
  other.bits = 8;
  serve::ServeLoop second(*experiment_, other);
  EXPECT_THROW(second.restore(path), std::runtime_error);

  serve::ServeLoop third(*experiment_, cfg);
  EXPECT_NO_THROW(third.restore(path));
  std::remove(path.c_str());
}

TEST_F(TrainedBackendTest, SnapshotRefusesBackendMismatch) {
  const auto& all = k::available_backends();
  if (all.size() < 2) {
    GTEST_SKIP() << "only the reference backend is available";
  }
  const std::string path = "test_backends_backend.snap";
  serve::ServeConfig cfg = small_config();
  {
    BackendScope scope("reference");
    serve::ServeLoop first(*experiment_, cfg);
    first.tick(4);
    first.save(path);
  }
  {
    BackendScope scope(all.back()->name);
    serve::ServeLoop second(*experiment_, cfg);
    EXPECT_THROW(second.restore(path), std::runtime_error);
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace origin
