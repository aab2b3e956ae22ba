#include "nn/serialize.hpp"

#include <gtest/gtest.h>

#include <csignal>
#include <filesystem>
#include <sys/resource.h>

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

Sequential representative_model(std::uint64_t seed) {
  util::Rng rng(seed);
  Sequential m;
  m.emplace<Conv1D>(3, 5, 4, 2, rng)
      .emplace<ReLU>()
      .emplace<MaxPool1D>(2, 1)
      .emplace<Conv1D>(5, 4, 3, 1, rng)
      .emplace<ReLU>()
      .emplace<Flatten>()
      .emplace<Dense>(4 * ((((20 - 4) / 2 + 1) - 2 + 1) - 3 + 1), 7, rng)
      .emplace<Dropout>(0.3f)
      .emplace<Dense>(7, 4, rng)
      .emplace<Softmax>();
  return m;
}

void expect_same_outputs(Sequential& a, Sequential& b,
                         const std::vector<int>& shape) {
  util::Rng rng(99);
  for (int trial = 0; trial < 5; ++trial) {
    const Tensor x = Tensor::randn(shape, rng, 1.0f);
    const Tensor ya = a.forward(x, false);
    const Tensor yb = b.forward(x, false);
    ASSERT_EQ(ya.shape(), yb.shape());
    for (std::size_t i = 0; i < ya.size(); ++i) {
      ASSERT_FLOAT_EQ(ya[i], yb[i]);
    }
  }
}

// One layer of every kind the serializer knows, with parameters set from
// an exact arithmetic pattern (no RNG, no libm), so its bytes are fixed.
Sequential every_kind_model() {
  Sequential m;
  m.emplace<Conv1D>(3, 5, 4, 2)
      .emplace<ReLU>()
      .emplace<MaxPool1D>(2, 1)
      .emplace<Flatten>()
      .emplace<Dense>(5 * 8, 6)
      .emplace<LayerNorm>(6, 1e-5f)
      .emplace<Dropout>(0.25f)
      .emplace<Dense>(6, 4)
      .emplace<Softmax>();
  const auto params = m.params();
  for (std::size_t t = 0; t < params.size(); ++t) {
    for (std::size_t i = 0; i < params[t]->size(); ++i) {
      params[t]->data()[i] =
          static_cast<float>((i * 37 + t * 11) % 101) / 64.0f - 0.75f;
    }
  }
  return m;
}

std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t h = 1469598103934665603ULL;
  for (unsigned char c : bytes) h = (h ^ c) * 1099511628211ULL;
  return h;
}

TEST(Serialize, ModelBytesPinned) {
  // Golden bytes of the model-cache format: a codec change that alters a
  // single byte would silently invalidate every cached model.
  const std::string blob = model_to_string(every_kind_model());
  EXPECT_EQ(blob.size(), 1627u);
  EXPECT_EQ(fnv1a(blob), 0xe6642c7474d00037ULL);
  EXPECT_EQ(model_to_string(model_from_string(blob)), blob);
}

TEST(Serialize, StringRoundtripPreservesBehaviour) {
  Sequential m = representative_model(1);
  Sequential loaded = model_from_string(model_to_string(m));
  EXPECT_EQ(loaded.layer_count(), m.layer_count());
  EXPECT_EQ(loaded.param_count(), m.param_count());
  expect_same_outputs(m, loaded, {3, 20});
}

TEST(Serialize, FileRoundtrip) {
  const auto path =
      (std::filesystem::temp_directory_path() / "origin_model_test.bin").string();
  Sequential m = representative_model(2);
  save_model(m, path);
  Sequential loaded = load_model(path);
  expect_same_outputs(m, loaded, {3, 20});
  std::filesystem::remove(path);
}

TEST(Serialize, LayerKindsPreserved) {
  Sequential m = representative_model(3);
  Sequential loaded = model_from_string(model_to_string(m));
  for (std::size_t i = 0; i < m.layer_count(); ++i) {
    EXPECT_EQ(loaded.layer(i).kind(), m.layer(i).kind());
  }
}

TEST(Serialize, EmptyModelRoundtrips) {
  Sequential empty;
  Sequential loaded = model_from_string(model_to_string(empty));
  EXPECT_EQ(loaded.layer_count(), 0u);
}

TEST(Serialize, BadMagicThrows) {
  std::string blob = model_to_string(representative_model(4));
  blob[0] = 'X';
  EXPECT_THROW(model_from_string(blob), std::runtime_error);
}

TEST(Serialize, BadVersionThrows) {
  std::string blob = model_to_string(representative_model(5));
  blob[4] = 99;  // version byte
  EXPECT_THROW(model_from_string(blob), std::runtime_error);
}

TEST(Serialize, TruncationThrows) {
  const std::string blob = model_to_string(representative_model(6));
  for (std::size_t cut : {blob.size() / 4, blob.size() / 2, blob.size() - 3}) {
    EXPECT_THROW(model_from_string(blob.substr(0, cut)), std::runtime_error);
  }
}

TEST(Serialize, CorruptDimensionsThrow) {
  // A Dense(4, 3) blob: magic, version and layer count (12 bytes), the
  // kind string (u32 length + "dense"), then in/out features at bytes 21
  // and 25. Dimensions whose parameters cannot fit in the input must fail
  // as a parse error before the layer allocates them.
  Sequential m;
  m.emplace<Dense>(4, 3);
  const std::string blob = model_to_string(m);
  ASSERT_EQ(blob.substr(16, 5), "dense");
  const auto with_dims = [&](std::int32_t in_f, std::int32_t out_f) {
    std::string bad = blob;
    const auto in_bits = static_cast<std::uint32_t>(in_f);
    const auto out_bits = static_cast<std::uint32_t>(out_f);
    for (int b = 0; b < 4; ++b) {
      bad[21 + b] = static_cast<char>(in_bits >> (8 * b));
      bad[25 + b] = static_cast<char>(out_bits >> (8 * b));
    }
    return bad;
  };
  EXPECT_NO_THROW(model_from_string(with_dims(4, 3)));
  for (const auto& [in_f, out_f] : std::vector<std::pair<int, int>>{
           {1 << 30, 1 << 30}, {0x7FFFFFFF, 0x7FFFFFFF}, {-1, 3}, {4, 0}}) {
    SCOPED_TRACE(std::to_string(in_f) + "x" + std::to_string(out_f));
    EXPECT_THROW(model_from_string(with_dims(in_f, out_f)), std::runtime_error);
  }
  // A kind-string length far beyond the input.
  std::string bad = blob;
  for (int b = 0; b < 4; ++b) bad[12 + b] = static_cast<char>(0xFF);
  EXPECT_THROW(model_from_string(bad), std::runtime_error);
}

TEST(Serialize, MissingFileThrows) {
  EXPECT_THROW(load_model("/no/such/model.bin"), std::runtime_error);
}

TEST(Serialize, DropoutRateSurvives) {
  Sequential m;
  m.emplace<Dropout>(0.42f);
  Sequential loaded = model_from_string(model_to_string(m));
  auto* d = dynamic_cast<Dropout*>(&loaded.layer(0));
  ASSERT_NE(d, nullptr);
  EXPECT_FLOAT_EQ(d->rate(), 0.42f);
}

TEST(Serialize, FailedAtomicSaveLeavesNoTempFile) {
  // Regression: a write failure mid-stream (simulated with a file-size
  // rlimit) must surface as an exception AND clean up the `.tmp.<pid>`
  // staging file — a crashed save used to leave it behind.
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() / "origin_atomic_save_test";
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::string path = (dir / "model.bin").string();

  struct rlimit old_limit {};
  ASSERT_EQ(getrlimit(RLIMIT_FSIZE, &old_limit), 0);
  // Exceeding the limit raises SIGXFSZ (default: kill); ignore it so the
  // write fails with EFBIG instead.
  struct sigaction old_action {};
  struct sigaction ignore {};
  ignore.sa_handler = SIG_IGN;
  ASSERT_EQ(sigaction(SIGXFSZ, &ignore, &old_action), 0);
  struct rlimit tiny = old_limit;
  tiny.rlim_cur = 64;  // far below any serialized model
  ASSERT_EQ(setrlimit(RLIMIT_FSIZE, &tiny), 0);

  Sequential m = representative_model(8);
  EXPECT_THROW(save_model(m, path), std::runtime_error);

  ASSERT_EQ(setrlimit(RLIMIT_FSIZE, &old_limit), 0);
  ASSERT_EQ(sigaction(SIGXFSZ, &old_action, nullptr), 0);

  EXPECT_FALSE(fs::exists(path));
  for (const auto& entry : fs::directory_iterator(dir)) {
    ADD_FAILURE() << "stale file left behind: " << entry.path();
  }

  // With the limit lifted the same call succeeds and stages nothing.
  save_model(m, path);
  Sequential loaded = load_model(path);
  expect_same_outputs(m, loaded, {3, 20});
  std::size_t files = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    (void)entry;
    ++files;
  }
  EXPECT_EQ(files, 1u);
  fs::remove_all(dir);
}

TEST(Serialize, ConvConfigSurvives) {
  util::Rng rng(7);
  Sequential m;
  m.emplace<Conv1D>(2, 6, 5, 3, rng);
  Sequential loaded = model_from_string(model_to_string(m));
  auto* c = dynamic_cast<Conv1D*>(&loaded.layer(0));
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->in_channels(), 2);
  EXPECT_EQ(c->out_channels(), 6);
  EXPECT_EQ(c->kernel(), 5);
  EXPECT_EQ(c->stride(), 3);
}

}  // namespace
}  // namespace origin::nn
