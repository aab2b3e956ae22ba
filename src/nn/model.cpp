#include "nn/model.hpp"

#include <sstream>
#include <stdexcept>

#include "nn/softmax.hpp"
#include "util/stats.hpp"

namespace origin::nn {

Sequential::Sequential(const Sequential& other) {
  layers_.reserve(other.layers_.size());
  for (const auto& l : other.layers_) layers_.push_back(l->clone());
}

Sequential& Sequential::operator=(const Sequential& other) {
  if (this == &other) return *this;
  layers_.clear();
  layers_.reserve(other.layers_.size());
  for (const auto& l : other.layers_) layers_.push_back(l->clone());
  return *this;
}

Sequential& Sequential::add(LayerPtr layer) {
  if (!layer) throw std::invalid_argument("Sequential::add: null layer");
  layers_.push_back(std::move(layer));
  return *this;
}

namespace {

/// Ping/pong activation buffers for the batched passes, reused across calls
/// on the same thread so steady-state classification allocates nothing.
struct BatchArena {
  std::vector<Tensor> ping;
  std::vector<Tensor> pong;
  std::vector<const Tensor*> in_ptrs;
};

BatchArena& batch_arena(std::size_t count) {
  thread_local BatchArena arena;
  if (arena.ping.size() < count) arena.ping.resize(count);
  if (arena.pong.size() < count) arena.pong.resize(count);
  arena.in_ptrs.resize(count);
  return arena;
}

}  // namespace

void Sequential::forward_batch(const Tensor* const* inputs, std::size_t count,
                               Tensor* outputs, bool train) {
  if (count == 0) return;
  if (layers_.empty()) {
    for (std::size_t b = 0; b < count; ++b) outputs[b] = *inputs[b];
    return;
  }
  if (layers_.size() == 1) {
    layers_[0]->forward_batch(inputs, count, outputs, train);
    return;
  }
  BatchArena& arena = batch_arena(count);
  layers_[0]->forward_batch(inputs, count, arena.ping.data(), train);
  Tensor* cur = arena.ping.data();
  Tensor* nxt = arena.pong.data();
  for (std::size_t li = 1; li + 1 < layers_.size(); ++li) {
    for (std::size_t b = 0; b < count; ++b) arena.in_ptrs[b] = &cur[b];
    layers_[li]->forward_batch(arena.in_ptrs.data(), count, nxt, train);
    std::swap(cur, nxt);
  }
  for (std::size_t b = 0; b < count; ++b) arena.in_ptrs[b] = &cur[b];
  layers_.back()->forward_batch(arena.in_ptrs.data(), count, outputs, train);
}

void Sequential::backward_batch(const Tensor* const* grad_logits,
                                std::size_t count) {
  if (count == 0 || layers_.empty()) return;
  // Layers cache whatever their backward needs as members during the
  // training forward, so the arena can be reused for gradients here.
  BatchArena& arena = batch_arena(count);
  Tensor* cur = arena.ping.data();
  Tensor* nxt = arena.pong.data();
  layers_.back()->backward_batch(grad_logits, count, cur);
  for (std::size_t li = layers_.size() - 1; li > 0; --li) {
    for (std::size_t b = 0; b < count; ++b) arena.in_ptrs[b] = &cur[b];
    layers_[li - 1]->backward_batch(arena.in_ptrs.data(), count, nxt);
    std::swap(cur, nxt);
  }
  // The input gradient (now in cur) is discarded.
}

Tensor Sequential::forward(const Tensor& input, bool train) {
  const Tensor* in = &input;
  Tensor out;
  forward_batch(&in, 1, &out, train);
  return out;
}

void Sequential::backward(const Tensor& grad_logits) {
  const Tensor* g = &grad_logits;
  backward_batch(&g, 1);
}

std::vector<float> Sequential::predict_proba(const Tensor& input) {
  return softmax(forward(input, false).vec());
}

int Sequential::predict(const Tensor& input) {
  return static_cast<int>(forward(input, false).argmax());
}

std::vector<std::vector<float>> Sequential::predict_proba_batch(
    const Tensor* const* inputs, std::size_t count) {
  std::vector<Tensor> logits(count);
  forward_batch(inputs, count, logits.data(), /*train=*/false);
  std::vector<std::vector<float>> out(count);
  for (std::size_t b = 0; b < count; ++b) out[b] = softmax(logits[b].vec());
  return out;
}

std::vector<std::vector<float>> Sequential::predict_proba_batch(
    std::span<const Tensor> inputs) {
  std::vector<const Tensor*> ptrs(inputs.size());
  for (std::size_t i = 0; i < inputs.size(); ++i) ptrs[i] = &inputs[i];
  return predict_proba_batch(ptrs.data(), ptrs.size());
}

std::size_t Sequential::predict_proba_batch_into(const Tensor* const* inputs,
                                                 std::size_t count,
                                                 std::vector<float>& probs) {
  probs.clear();
  if (count == 0) return 0;
  static thread_local std::vector<Tensor> logits;
  if (logits.size() < count) logits.resize(count);
  forward_batch(inputs, count, logits.data(), /*train=*/false);
  const std::size_t num_classes = logits[0].size();
  probs.reserve(count * num_classes);
  for (std::size_t b = 0; b < count; ++b) {
    const std::vector<float> row = softmax(logits[b].vec());
    probs.insert(probs.end(), row.begin(), row.end());
  }
  return num_classes;
}

std::vector<int> Sequential::predict_batch(const Tensor* const* inputs,
                                           std::size_t count) {
  std::vector<Tensor> logits(count);
  forward_batch(inputs, count, logits.data(), /*train=*/false);
  std::vector<int> out(count);
  for (std::size_t b = 0; b < count; ++b) {
    out[b] = static_cast<int>(logits[b].argmax());
  }
  return out;
}

std::vector<int> Sequential::predict_batch(std::span<const Tensor> inputs) {
  std::vector<const Tensor*> ptrs(inputs.size());
  for (std::size_t i = 0; i < inputs.size(); ++i) ptrs[i] = &inputs[i];
  return predict_batch(ptrs.data(), ptrs.size());
}

std::vector<Tensor*> Sequential::params() {
  std::vector<Tensor*> out;
  for (auto& layer : layers_) {
    for (Tensor* p : layer->params()) out.push_back(p);
  }
  return out;
}

std::vector<Tensor*> Sequential::grads() {
  std::vector<Tensor*> out;
  for (auto& layer : layers_) {
    for (Tensor* g : layer->grads()) out.push_back(g);
  }
  return out;
}

std::size_t Sequential::param_count() const {
  std::size_t n = 0;
  for (const auto& layer : layers_) n += layer->param_count();
  return n;
}

std::size_t Sequential::grad_size() const {
  std::size_t n = 0;
  for (const auto& layer : layers_) n += layer->grad_size();
  return n;
}

void Sequential::zero_grads() {
  for (Tensor* g : grads()) g->zero();
}

void Sequential::set_inference_bits(int bits) {
  for (auto& layer : layers_) layer->set_inference_bits(bits);
}

int Sequential::inference_bits() const {
  for (const auto& layer : layers_) {
    const int bits = layer->inference_bits();
    if (bits != 32) return bits;
  }
  return 32;
}

std::vector<std::vector<int>> Sequential::shape_trace(
    const std::vector<int>& input) const {
  std::vector<std::vector<int>> trace;
  trace.reserve(layers_.size() + 1);
  std::vector<int> shape = input;
  trace.push_back(shape);
  for (const auto& layer : layers_) {
    shape = layer->output_shape(shape);
    trace.push_back(shape);
  }
  return trace;
}

std::vector<int> Sequential::output_shape(const std::vector<int>& input) const {
  return shape_trace(input).back();
}

std::uint64_t Sequential::total_macs(const std::vector<int>& input) const {
  std::uint64_t total = 0;
  std::vector<int> shape = input;
  for (const auto& layer : layers_) {
    total += layer->macs(shape);
    shape = layer->output_shape(shape);
  }
  return total;
}

std::string Sequential::summary(const std::vector<int>& input) const {
  std::ostringstream os;
  std::vector<int> shape = input;
  os << "Sequential(" << param_count() << " params, " << total_macs(input)
     << " MACs)\n";
  for (const auto& layer : layers_) {
    const auto out = layer->output_shape(shape);
    os << "  " << layer->describe() << "  ";
    os << Tensor(shape).shape_str() << " -> " << Tensor(out).shape_str() << '\n';
    shape = out;
  }
  return os.str();
}

}  // namespace origin::nn
