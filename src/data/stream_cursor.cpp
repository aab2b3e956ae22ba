#include "data/stream_cursor.hpp"

#include <algorithm>
#include <stdexcept>

#include "data/noise.hpp"
#include "util/rng.hpp"

namespace origin::data {

namespace {

/// Salt of a window's SNR-noise key (StreamConfig::snr_db): the same keyed
/// fill as the window's own noise, under a child key of the window key.
constexpr std::uint64_t kSnrNoiseStream = 0x534e52;  // "SNR"

}  // namespace

SynthesisContext::SynthesisContext(DatasetSpec spec, const UserProfile& user,
                                   std::optional<double> snr_db)
    : model_(std::move(spec), user), snr_db_(snr_db) {}

void SynthesisContext::synthesize(const SlotRecipe& recipe,
                                  std::size_t sensor, nn::Tensor& out) const {
  const std::uint64_t key = util::derive_key(recipe.key, sensor);
  model_.synthesize_window(out, recipe.activity,
                           static_cast<SensorLocation>(sensor), recipe.t0_s,
                           key, recipe.style);
  if (snr_db_) {
    add_gaussian_noise_snr(out, *snr_db_,
                           util::derive_key(key, kSnrNoiseStream));
  }
}

namespace detail {

/// What a cursor's lazy slots synthesize from. It lives on the heap so the
/// ring entries' pointers to it survive moves of the cursor.
class CursorState {
 public:
  explicit CursorState(std::size_t ring_capacity) : ring_(ring_capacity) {
    for (auto& slot : ring_) slot.cursor_ = this;
  }

  std::shared_ptr<const SynthesisContext> context;
  std::uint64_t windows_synthesized = 0;

  std::size_t capacity() const { return ring_.size(); }
  const SlotSample& at(std::size_t i) const { return ring_[i % ring_.size()]; }

  /// Retires every slot opened so far (reset, rebind): their pending
  /// windows can no longer be read.
  void retire_slots() { ++generation_; }

  /// Recycles slot i's ring entry, all three windows pending. The caller
  /// fills in the public fields.
  SlotSample& open_slot(std::size_t i, std::uint64_t key,
                        const SharedStyle& style) {
    SlotSample& slot = ring_[i % ring_.size()];
    slot.generation_ = generation_;
    slot.style_ = style;
    slot.key_ = key;
    slot.state_.fill(SlotSample::WindowState::Pending);
    return slot;
  }

  const std::shared_ptr<const SynthesisContext>& context_of(
      const SlotSample& slot) const {
    if (slot.generation_ != generation_) {
      throw std::logic_error("SlotSample::context: slot is no longer live");
    }
    return context;
  }

  const nn::Tensor& read(const SlotSample& lazy, std::size_t s) {
    SlotSample& slot = ring_[static_cast<std::size_t>(&lazy - ring_.data())];
    if (slot.generation_ != generation_) {
      throw std::logic_error("SlotSample::window: slot is no longer live");
    }
    nn::Tensor& w = slot.windows_[s];
    context->synthesize(slot.recipe(), s, w);
    slot.state_[s] = SlotSample::WindowState::Ready;
    ++windows_synthesized;
    return w;
  }

 private:
  std::vector<SlotSample> ring_;  // slot i lives at ring_[i % capacity]
  std::uint64_t generation_ = 0;
};

}  // namespace detail

const nn::Tensor& SlotSample::read_lazy(std::size_t s) const {
  return cursor_->read(*this, s);
}

std::shared_ptr<const SynthesisContext> SlotSample::context() const {
  if (!cursor_) return nullptr;
  return cursor_->context_of(*this);
}

StreamCursor::StreamCursor(DatasetSpec spec, int num_slots,
                           StreamConfig config, int ring_capacity)
    : spec_(std::move(spec)), config_(config), num_slots_(num_slots) {
  if (num_slots_ <= 0) {
    throw std::invalid_argument("StreamCursor: num_slots <= 0");
  }
  state_ = std::make_unique<detail::CursorState>(
      static_cast<std::size_t>(std::max(1, ring_capacity)));
}

StreamCursor::StreamCursor(DatasetSpec spec, int num_slots,
                           const UserProfile& user, std::uint64_t seed,
                           StreamConfig config, int ring_capacity)
    : StreamCursor(std::move(spec), num_slots, config, ring_capacity) {
  rebind(user, seed);
}

StreamCursor::StreamCursor(StreamCursor&&) noexcept = default;
StreamCursor& StreamCursor::operator=(StreamCursor&&) noexcept = default;
StreamCursor::~StreamCursor() = default;

std::size_t StreamCursor::lookback() const { return state_->capacity(); }

std::uint64_t StreamCursor::windows_synthesized() const {
  return state_->windows_synthesized;
}

const std::shared_ptr<const SynthesisContext>& StreamCursor::context() const {
  return state_->context;
}

void StreamCursor::rebind(const UserProfile& user, std::uint64_t seed) {
  user_ = user;
  seed_ = seed;
  state_->context =
      std::make_shared<const SynthesisContext>(spec_, user_, config_.snr_db);
  rng_ = util::Rng(seed_);

  // The Markov activity segments come out of the stream RNG first, then
  // the per-slot draws.
  const double total_s = static_cast<double>(num_slots_) * spec_.slot_seconds() +
                         spec_.window_seconds();
  const ActivityMarkov markov(spec_, config_.markov);
  segments_ = markov.generate(total_s, rng_);
  rng_checkpoint_ = rng_;
  reset();
}

void StreamCursor::reset() {
  detail::CursorState& st = *state_;
  if (!st.context) {
    throw std::logic_error("StreamCursor::reset: no stream bound");
  }
  st.retire_slots();
  rng_ = rng_checkpoint_;
  st.windows_synthesized = 0;
  next_ = 0;
  anchor_gap_ = std::max(1, config_.style_anchor_slots);
  u_prev_ = rng_.uniform(0.8, 2.4);
  u_next_ = rng_.uniform(0.8, 2.4);
  g_prev_ = rng_.gauss();
  g_next_ = rng_.gauss();
  amb_active_ = false;
  episode_ = SharedStyle{};
  episode_activity_ = Activity::Walking;
}

const SlotSample& StreamCursor::slot(std::size_t i) {
  if (i >= size()) {
    throw std::out_of_range("StreamCursor::slot: index past end of stream");
  }
  if (!state_->context) {
    throw std::logic_error("StreamCursor::slot: rebind() a stream first");
  }
  if (i + state_->capacity() < next_) {
    throw std::logic_error(
        "StreamCursor::slot: slot recycled (increase ring_capacity)");
  }
  while (next_ <= i) advance();
  return state_->at(i);
}

void StreamCursor::advance() {
  // The slot's per-slot draws, from the stream RNG in slot order: the
  // style anchors and the ambiguous-episode process. The windows draw
  // nothing here; they are keyed by (seed, slot, sensor).
  const int i = static_cast<int>(next_);
  const double slot_s = spec_.slot_seconds();
  const double t0_s = static_cast<double>(i) * slot_s;
  const Activity activity =
      activity_at(segments_, t0_s + 0.5 * spec_.window_seconds());

  if (i % anchor_gap_ == 0 && i > 0) {
    u_prev_ = u_next_;
    g_prev_ = g_next_;
    u_next_ = rng_.uniform(0.8, 2.4);
    g_next_ = rng_.gauss();
  }
  const double frac = static_cast<double>(i % anchor_gap_) / anchor_gap_;

  if (amb_active_ &&
      (episode_activity_ != activity ||
       rng_.bernoulli(std::min(1.0, slot_s / config_.ambiguous_len_s)))) {
    amb_active_ = false;
  }
  if (!amb_active_ &&
      rng_.bernoulli(std::min(1.0, slot_s / config_.ambiguous_gap_s))) {
    SharedStyle fresh = draw_shared_style(spec_, activity, rng_, 1.0);
    if (fresh.ambiguous_with) {
      amb_active_ = true;
      episode_ = fresh;
      episode_activity_ = activity;
    }
  }

  SharedStyle style;
  style.blend_u = u_prev_ + (u_next_ - u_prev_) * frac;
  style.cadence_g = g_prev_ + (g_next_ - g_prev_) * frac;
  if (amb_active_) {
    style.ambiguous_with = episode_.ambiguous_with;
    style.ambiguity_mix = episode_.ambiguity_mix;
  }

  SlotSample& slot =
      state_->open_slot(next_, util::derive_key(seed_, next_), style);
  slot.t0_s = t0_s;
  slot.activity = activity;
  slot.label = spec_.class_of(activity);
  slot.ambiguous = style.ambiguous_with.has_value();
  ++next_;
}

}  // namespace origin::data
