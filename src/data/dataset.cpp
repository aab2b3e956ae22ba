#include "data/dataset.hpp"

#include <algorithm>
#include <stdexcept>

#include "data/stream_cursor.hpp"

namespace origin::data {

SlotSample::SlotSample(const SlotSample& other) { *this = other; }

SlotSample& SlotSample::operator=(const SlotSample& other) {
  if (this == &other) return *this;
  // Materialize the source in sensor order (a lazy source synthesizes its
  // unread windows now), then copy plain values.
  for (std::size_t s = 0; s < windows_.size(); ++s) windows_[s] = other.window(s);
  label = other.label;
  activity = other.activity;
  t0_s = other.t0_s;
  ambiguous = other.ambiguous;
  style_ = other.style_;
  key_ = other.key_;
  state_.fill(WindowState::Ready);
  cursor_ = nullptr;
  return *this;
}

nn::Samples make_training_set(const DatasetSpec& spec, SensorLocation loc,
                              int per_class, const UserProfile& user,
                              std::uint64_t seed) {
  if (per_class <= 0) throw std::invalid_argument("make_training_set: per_class <= 0");
  util::Rng rng(seed);
  const SignalModel model(spec, user);
  nn::Samples samples;
  samples.reserve(static_cast<std::size_t>(per_class) *
                  static_cast<std::size_t>(spec.num_classes()));
  for (int c = 0; c < spec.num_classes(); ++c) {
    const Activity a = spec.activity_of(c);
    for (int i = 0; i < per_class; ++i) {
      // Each training window starts at an arbitrary instant of an ongoing
      // bout of the activity, in a style of its own.
      const double t0 = rng.uniform(0.0, 3600.0);
      const SharedStyle style = draw_shared_style(spec, a, rng);
      samples.push_back({model.window(a, loc, t0, rng.next_u64(), style), c});
    }
  }
  rng.shuffle(samples);
  return samples;
}

Stream make_stream(const DatasetSpec& spec, int num_slots,
                   const UserProfile& user, std::uint64_t seed,
                   const StreamConfig& config) {
  // One generator, two consumption modes: the slot state machine (smooth
  // style anchors, ambiguous episodes, per-sensor synthesis) lives in
  // StreamCursor; materializing is just draining it. A cursor consumed
  // on demand therefore yields this stream's slots bit for bit.
  StreamCursor cursor(spec, num_slots, user, seed, config,
                      /*ring_capacity=*/1);
  Stream stream;
  stream.spec = spec;
  stream.user = user;
  stream.segments = cursor.segments();
  stream.slots.reserve(static_cast<std::size_t>(num_slots));
  for (std::size_t i = 0; i < cursor.size(); ++i) {
    stream.slots.push_back(cursor.slot(i));
  }
  return stream;
}

std::vector<int> class_histogram(const nn::Samples& samples, int num_classes) {
  std::vector<int> hist(static_cast<std::size_t>(num_classes), 0);
  for (const auto& s : samples) {
    if (s.label < 0 || s.label >= num_classes) {
      throw std::out_of_range("class_histogram: label out of range");
    }
    ++hist[static_cast<std::size_t>(s.label)];
  }
  return hist;
}

}  // namespace origin::data
