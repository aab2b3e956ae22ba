#include "data/markov.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <span>
#include <stdexcept>

namespace origin::data {

ActivityMarkov::ActivityMarkov(DatasetSpec spec, MarkovConfig config)
    : spec_(std::move(spec)), config_(config) {
  if (spec_.num_classes() < 2) {
    throw std::invalid_argument("ActivityMarkov: need at least two activities");
  }
  if (spec_.num_classes() > kNumActivityKinds) {
    throw std::invalid_argument("ActivityMarkov: repeated activities");
  }
  if (config_.mean_dwell_s <= 0.0 || config_.min_dwell_s < 0.0) {
    throw std::invalid_argument("ActivityMarkov: bad dwell configuration");
  }
}

double ActivityMarkov::transition_weight(Activity from, Activity to) const {
  if (from == to) return 0.0;
  // Kinesiological adjacency: locomotion intensities are neighbours;
  // getting on a bike mid-run is unlikely.
  const double d =
      std::fabs(activity_intensity(from) - activity_intensity(to));
  return std::exp(-d);
}

std::vector<ActivitySegment> ActivityMarkov::generate(double total_s,
                                                      util::Rng& rng) const {
  if (total_s <= 0.0) throw std::invalid_argument("ActivityMarkov: total_s <= 0");
  std::vector<ActivitySegment> segments;
  // Lognormal parameterized so its mean equals mean_dwell_s.
  const double sigma = config_.dwell_sigma;
  const double mu = std::log(config_.mean_dwell_s) - 0.5 * sigma * sigma;

  Activity current = spec_.activity_of(
      static_cast<int>(rng.below(static_cast<std::uint64_t>(spec_.num_classes()))));
  double t = 0.0;
  while (t < total_s) {
    const double dwell =
        std::max(config_.min_dwell_s, rng.lognormal(mu, sigma));
    segments.push_back({current, t, std::min(dwell, total_s - t)});
    t += dwell;
    // Pick the next activity by transition weight.
    std::array<double, kNumActivityKinds> weights{};
    const auto classes = static_cast<std::size_t>(spec_.num_classes());
    for (std::size_t c = 0; c < classes; ++c) {
      weights[c] =
          transition_weight(current, spec_.activity_of(static_cast<int>(c)));
    }
    current = spec_.activity_of(static_cast<int>(
        rng.categorical(std::span<const double>(weights.data(), classes))));
  }
  return segments;
}

Activity activity_at(const std::vector<ActivitySegment>& segments, double t_s) {
  if (segments.empty()) throw std::invalid_argument("activity_at: no segments");
  auto it = std::upper_bound(
      segments.begin(), segments.end(), t_s,
      [](double t, const ActivitySegment& s) { return t < s.start_s; });
  if (it == segments.begin()) return segments.front().activity;
  return std::prev(it)->activity;
}

}  // namespace origin::data
