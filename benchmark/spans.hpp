// Wall-clock spans recorded from the benchmark's own code, around calls
// into the library's public layer entry points. Nothing here reaches into
// src/: a layer's time is the time of the calls the benchmark makes into
// it, and its self time is that span minus the spans of the calls nested
// inside it (a StreamCursor::slot reached from SlotStepper::step_begin is
// data time, not sim time).
#pragma once

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/policy.hpp"
#include "data/stream_cursor.hpp"

namespace origin::benchmark {

/// The layer a span is charged to. Names match the per-layer metric
/// prefixes the benchmark prints.
enum class Layer : std::size_t {
  Data,         // StreamCursor::slot (window synthesis)
  SimBegin,     // SlotStepper::step_begin
  SimFinish,    // SlotStepper::step_finish
  SimOther,     // SlotStepper::take_result, Experiment baseline runners
  CorePlan,     // core::Policy::plan
  CoreFuse,     // core::Policy::on_result + fuse
  NnClassify,   // Sequential::predict_proba_batch_into + make_classification
  NnFit,        // serve::Personalizer::run_fit
  ServeAdmit,   // session construction on admission
  ServePersonalize,  // Personalizer load/load_base/buffer_step/fit_due
  kCount
};

constexpr std::size_t kLayerCount = static_cast<std::size_t>(Layer::kCount);

/// Single-threaded span stack. Spans only accumulate while enabled(), so a
/// replica can run its warm-up ticks through the same code untraced.
class Tracer {
 public:
  using Clock = std::chrono::steady_clock;

  void set_enabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  void open(Layer layer) {
    stack_.push_back({layer, Clock::now(), 0.0});
  }
  void close() {
    const Frame frame = stack_.back();
    stack_.pop_back();
    const double dur =
        std::chrono::duration<double>(Clock::now() - frame.start).count();
    const auto i = static_cast<std::size_t>(frame.layer);
    self_s_[i] += dur - frame.children_s;
    if (!stack_.empty()) stack_.back().children_s += dur;
  }

  double self_s(Layer layer) const {
    return self_s_[static_cast<std::size_t>(layer)];
  }
  double total_self_s() const {
    double total = 0.0;
    for (double s : self_s_) total += s;
    return total;
  }

  /// Slots the traced cursors synthesized while enabled.
  void count_synthesized(std::uint64_t n) { synthesized_ += n; }
  std::uint64_t synthesized() const { return synthesized_; }

 private:
  struct Frame {
    Layer layer;
    Clock::time_point start;
    double children_s;
  };
  bool enabled_ = false;
  std::vector<Frame> stack_;
  std::array<double, kLayerCount> self_s_{};
  std::uint64_t synthesized_ = 0;
};

/// RAII span; a no-op when the tracer is null or disabled.
class Span {
 public:
  Span(Tracer* tracer, Layer layer)
      : tracer_(tracer && tracer->enabled() ? tracer : nullptr) {
    if (tracer_) tracer_->open(layer);
  }
  ~Span() {
    if (tracer_) tracer_->close();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* tracer_;
};

/// data::SlotSource over a StreamCursor that charges every slot() call to
/// the data layer and counts the slots the cursor synthesized meanwhile.
class TimedSource final : public data::SlotSource {
 public:
  TimedSource(data::StreamCursor cursor, Tracer* tracer)
      : cursor_(std::move(cursor)), tracer_(tracer) {}

  const data::DatasetSpec& spec() const override { return cursor_.spec(); }
  std::size_t size() const override { return cursor_.size(); }
  std::size_t lookback() const override { return cursor_.lookback(); }
  const data::SlotSample& slot(std::size_t i) override {
    Span span(tracer_, Layer::Data);
    const std::size_t before = cursor_.generated();
    const data::SlotSample& out = cursor_.slot(i);
    if (tracer_ && tracer_->enabled()) {
      tracer_->count_synthesized(cursor_.generated() - before);
    }
    return out;
  }

  data::StreamCursor& cursor() { return cursor_; }

 private:
  data::StreamCursor cursor_;
  Tracer* tracer_;
};

/// core::Policy decorator charging plan() to core.plan and on_result() +
/// fuse() to core.fuse. Every decision is forwarded unchanged, so the
/// stepper driving it computes the same bits as with the bare policy.
class TimedPolicy final : public core::Policy {
 public:
  TimedPolicy(std::unique_ptr<core::Policy> inner, Tracer* tracer)
      : inner_(std::move(inner)), tracer_(tracer) {}

  std::string name() const override { return inner_->name(); }
  std::vector<int> plan(const core::SlotContext& ctx) override {
    Span span(tracer_, Layer::CorePlan);
    return inner_->plan(ctx);
  }
  void on_result(int sensor, const net::Classification& result,
                 const core::SlotContext& ctx) override {
    Span span(tracer_, Layer::CoreFuse);
    inner_->on_result(sensor, result, ctx);
  }
  std::optional<int> fuse(const net::HostDevice& host,
                          const core::SlotContext& ctx) override {
    Span span(tracer_, Layer::CoreFuse);
    return inner_->fuse(host, ctx);
  }
  core::ExecutionModel execution() const override {
    return inner_->execution();
  }
  void reset() override { inner_->reset(); }
  int last_plan_fallback_hops() const override {
    return inner_->last_plan_fallback_hops();
  }

 private:
  std::unique_ptr<core::Policy> inner_;
  Tracer* tracer_;
};

}  // namespace origin::benchmark
