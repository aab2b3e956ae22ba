#include "nn/serialize.hpp"

#include <cstring>
#include <initializer_list>
#include <stdexcept>

#include "nn/activations.hpp"
#include "nn/conv1d.hpp"
#include "nn/dense.hpp"
#include "nn/dropout.hpp"
#include "nn/layernorm.hpp"
#include "nn/pooling.hpp"
#include "nn/softmax.hpp"
#include "util/bytes.hpp"
#include "util/fileio.hpp"

namespace origin::nn {

namespace {

constexpr char kMagic[4] = {'O', 'R', 'G', 'N'};
constexpr std::uint32_t kVersion = 1;

void write_tensor(util::ByteWriter& w, const Tensor& t) {
  w.u64(t.size());
  w.f32s(t.data(), t.size());
}

void read_tensor_into(util::ByteReader& r, Tensor& t) {
  if (r.u64() != t.size()) {
    throw std::runtime_error("load_model: tensor size mismatch");
  }
  r.f32s(t.data(), t.size());
}

/// Refuses layer dimensions whose largest parameter tensor (the product
/// of `dims` floats) could not fit in the bytes left — checked before the
/// layer allocates it, so a corrupt dimension cannot drive a huge
/// allocation.
void check_param_dims(const util::ByteReader& r,
                      std::initializer_list<int> dims) {
  std::uint64_t floats = 1;
  for (int d : dims) {
    if (d <= 0) throw std::runtime_error("load_model: non-positive dimension");
    if (floats > r.remaining() / static_cast<std::uint64_t>(d)) {
      throw std::runtime_error("load_model: layer larger than its input");
    }
    floats *= static_cast<std::uint64_t>(d);
  }
  r.length(floats, sizeof(float));
}

void write_layer(util::ByteWriter& w, const Layer& layer) {
  w.str(layer.kind());
  if (const auto* d = dynamic_cast<const Dense*>(&layer)) {
    w.i32(d->in_features());
    w.i32(d->out_features());
    write_tensor(w, d->weight());
    write_tensor(w, d->bias());
  } else if (const auto* c = dynamic_cast<const Conv1D*>(&layer)) {
    w.i32(c->in_channels());
    w.i32(c->out_channels());
    w.i32(c->kernel());
    w.i32(c->stride());
    write_tensor(w, c->weight());
    write_tensor(w, c->bias());
  } else if (const auto* p = dynamic_cast<const MaxPool1D*>(&layer)) {
    w.i32(p->pool());
    w.i32(p->stride());
  } else if (const auto* dr = dynamic_cast<const Dropout*>(&layer)) {
    w.f32(dr->rate());
  } else if (const auto* ln = dynamic_cast<const LayerNorm*>(&layer)) {
    w.i32(ln->size());
    w.f32(ln->epsilon());
    write_tensor(w, ln->gamma());
    write_tensor(w, ln->beta());
  } else if (layer.kind() == "relu" || layer.kind() == "flatten" ||
             layer.kind() == "softmax") {
    // no config
  } else {
    throw std::runtime_error("save_model: unknown layer kind " + layer.kind());
  }
}

LayerPtr read_layer(util::ByteReader& r) {
  const std::string kind = r.str();
  if (kind == "dense") {
    const int in_f = r.i32();
    const int out_f = r.i32();
    check_param_dims(r, {in_f, out_f});
    auto d = std::make_unique<Dense>(in_f, out_f);
    read_tensor_into(r, d->weight());
    read_tensor_into(r, d->bias());
    return d;
  }
  if (kind == "conv1d") {
    const int cin = r.i32();
    const int cout = r.i32();
    const int k = r.i32();
    const int stride = r.i32();
    check_param_dims(r, {cout, cin, k});
    auto c = std::make_unique<Conv1D>(cin, cout, k, stride);
    read_tensor_into(r, c->weight());
    read_tensor_into(r, c->bias());
    return c;
  }
  if (kind == "maxpool1d") {
    const int pool = r.i32();
    const int stride = r.i32();
    return std::make_unique<MaxPool1D>(pool, stride);
  }
  if (kind == "dropout") {
    return std::make_unique<Dropout>(r.f32());
  }
  if (kind == "layernorm") {
    const int size = r.i32();
    const float epsilon = r.f32();
    check_param_dims(r, {size});
    auto ln = std::make_unique<LayerNorm>(size, epsilon);
    read_tensor_into(r, ln->gamma());
    read_tensor_into(r, ln->beta());
    return ln;
  }
  if (kind == "relu") return std::make_unique<ReLU>();
  if (kind == "flatten") return std::make_unique<Flatten>();
  if (kind == "softmax") return std::make_unique<Softmax>();
  throw std::runtime_error("load_model: unknown layer kind " + kind);
}

}  // namespace

std::string model_to_string(const Sequential& model) {
  util::ByteWriter w;
  w.raw(kMagic, sizeof kMagic);
  w.u32(kVersion);
  w.u32(static_cast<std::uint32_t>(model.layer_count()));
  for (std::size_t i = 0; i < model.layer_count(); ++i) {
    write_layer(w, model.layer(i));
  }
  return w.bytes();
}

Sequential model_from_string(const std::string& blob) {
  util::ByteReader r(blob, "load_model");
  if (std::memcmp(r.take(sizeof kMagic), kMagic, sizeof kMagic) != 0) {
    throw std::runtime_error("load_model: bad magic");
  }
  const std::uint32_t version = r.u32();
  if (version != kVersion) {
    throw std::runtime_error("load_model: unsupported version " +
                             std::to_string(version));
  }
  const std::uint32_t count = r.u32();
  if (count > 10000) throw std::runtime_error("load_model: implausible layer count");
  Sequential model;
  for (std::uint32_t i = 0; i < count; ++i) {
    model.add(read_layer(r));
  }
  return model;
}

void save_model(const Sequential& model, const std::string& path) {
  util::write_file_atomic(path, model_to_string(model));
}

Sequential load_model(const std::string& path) {
  return model_from_string(util::read_file(path));
}

}  // namespace origin::nn
