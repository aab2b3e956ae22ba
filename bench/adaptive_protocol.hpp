// The Fig. 6 protocol, shared by bench/fig06_adaptive and the claims gate
// (tests/test_claims.cpp): the adaptive ensemble learner personalizing to
// unseen users. Following the paper: previously-unseen users, Gaussian
// noise at 20 dB SNR over unseen test windows, 1000 iterations of 10
// classifications each. Each classification runs all three (frozen)
// sensor DNNs on the same noisy instant; the host fuses with
// confidence-weighted voting; after every clear-consensus classification
// each sensor's agreement with the fused decision updates its matrix cell
// by moving average (ConfidenceMatrix::update_with_consensus, the Origin
// policy's rule). Only the confidence matrix ever changes.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "core/confidence.hpp"
#include "core/ensemble.hpp"
#include "core/pipeline.hpp"
#include "data/noise.hpp"
#include "fleet/thread_pool.hpp"
#include "net/message.hpp"

namespace origin::bench {

inline constexpr int kAdaptiveIterations = 1000;
inline constexpr int kAdaptivePerIteration = 10;
inline const std::vector<int> kAdaptiveCheckpoints = {1, 10, 100, 1000};

/// Accuracy (in percent) near each checkpoint iteration for one user.
inline std::vector<double> run_adaptive_user(const core::TrainedSystem& sys,
                                             const data::UserProfile& user,
                                             bool adaptive,
                                             std::uint64_t seed) {
  util::Rng rng(seed);
  const data::SignalModel model(sys.spec, user);
  core::ConfidenceMatrix matrix = sys.confidence;  // factory calibration

  std::vector<char> correct;
  correct.reserve(kAdaptiveIterations * kAdaptivePerIteration);
  auto bl2 = sys.bl2_copy();

  for (int iter = 0; iter < kAdaptiveIterations; ++iter) {
    for (int k = 0; k < kAdaptivePerIteration; ++k) {
      const int label = static_cast<int>(
          rng.below(static_cast<std::uint64_t>(sys.spec.num_classes())));
      const auto activity = sys.spec.activity_of(label);
      const double t0 = rng.uniform(0.0, 3600.0);
      const auto style = data::draw_shared_style(sys.spec, activity, rng);

      std::vector<core::Ballot> ballots;
      std::array<net::Classification, data::kNumSensors> results;
      for (int s = 0; s < data::kNumSensors; ++s) {
        const auto si = static_cast<std::size_t>(s);
        nn::Tensor w = model.window(activity,
                                    static_cast<data::SensorLocation>(s), t0,
                                    rng.next_u64(), style);
        data::add_gaussian_noise_snr(w, 20.0, rng.next_u64());
        results[si] = net::make_classification(bl2[si].predict_proba(w));
        core::Ballot b;
        b.cls = results[si].predicted_class;
        b.weight = results[si].confidence *
                   matrix.weight(static_cast<data::SensorLocation>(s), b.cls);
        b.tie_priority = static_cast<double>(s);
        ballots.push_back(b);
      }
      const int fused =
          core::weighted_majority_vote(ballots, sys.spec.num_classes()).value();
      correct.push_back(fused == label ? 1 : 0);
      if (adaptive) {
        // Consensus-gated moving average (§III-C + the online
        // personalization rule): adapt only on clear-margin decisions —
        // self-training on shaky consensus amplifies errors.
        std::vector<double> totals(
            static_cast<std::size_t>(sys.spec.num_classes()), 0.0);
        int supporters = 0;
        for (const auto& b : ballots) {
          totals[static_cast<std::size_t>(b.cls)] += b.weight;
          if (b.cls == fused) ++supporters;
        }
        double second = 0.0;
        for (int c = 0; c < sys.spec.num_classes(); ++c) {
          if (c != fused) {
            second = std::max(second, totals[static_cast<std::size_t>(c)]);
          }
        }
        if (supporters >= 2 &&
            totals[static_cast<std::size_t>(fused)] >= 2.0 * second) {
          for (int s = 0; s < data::kNumSensors; ++s) {
            const auto si = static_cast<std::size_t>(s);
            matrix.update_with_consensus(static_cast<data::SensorLocation>(s),
                                         results[si].predicted_class,
                                         results[si].predicted_class == fused);
          }
        }
      }
    }
  }

  std::vector<double> at;
  for (int checkpoint : kAdaptiveCheckpoints) {
    // Accuracy over a window of iterations around the checkpoint.
    const int lo = std::max(0, checkpoint - std::max(1, checkpoint / 2));
    const int hi =
        std::min(kAdaptiveIterations, checkpoint + std::max(1, checkpoint / 2));
    std::uint64_t ok = 0, n = 0;
    for (int i = lo * kAdaptivePerIteration; i < hi * kAdaptivePerIteration;
         ++i) {
      ++n;
      ok += static_cast<std::uint64_t>(correct[static_cast<std::size_t>(i)]);
    }
    at.push_back(100.0 * static_cast<double>(ok) / static_cast<double>(n));
  }
  return at;
}

/// Base-model reference: the reference user, no added noise, factory
/// matrix — the level the adaptation should recover toward (percent).
inline double adaptive_base_pct(const core::TrainedSystem& sys) {
  util::Rng rng(0xBA5EULL);
  const data::SignalModel model(sys.spec, data::reference_user());
  auto bl2 = sys.bl2_copy();
  std::uint64_t ok = 0;
  const int n = 2000;
  for (int i = 0; i < n; ++i) {
    const int label = static_cast<int>(
        rng.below(static_cast<std::uint64_t>(sys.spec.num_classes())));
    const auto activity = sys.spec.activity_of(label);
    const double t0 = rng.uniform(0.0, 3600.0);
    const auto style = data::draw_shared_style(sys.spec, activity, rng);
    std::vector<core::Ballot> ballots;
    for (int s = 0; s < data::kNumSensors; ++s) {
      const auto si = static_cast<std::size_t>(s);
      const auto w = model.window(activity,
                                  static_cast<data::SensorLocation>(s), t0,
                                  rng.next_u64(), style);
      const auto c = net::make_classification(bl2[si].predict_proba(w));
      ballots.push_back({c.predicted_class,
                         c.confidence * sys.confidence.weight(
                                            static_cast<data::SensorLocation>(s),
                                            c.predicted_class),
                         static_cast<double>(s)});
    }
    if (core::weighted_majority_vote(ballots, sys.spec.num_classes()).value() ==
        label) {
      ++ok;
    }
  }
  return 100.0 * static_cast<double>(ok) / n;
}

/// One row of the Fig. 6 table: a user profile run adaptively or with the
/// frozen factory matrix.
struct AdaptiveRun {
  std::string label;
  data::UserProfile user;
  bool adaptive = true;
  std::uint64_t seed = 0;
};

/// The Fig. 6 rows: users 1–3 adaptive, then users 1 and 2 again with a
/// frozen factory matrix as the controls. Mild deviations, matching the
/// paper's premise that the noise (not the gait shift) drives the initial
/// drop to just below the base level. Profiles come from one sequential
/// stream, so user u is the same profile in its adaptive and frozen rows.
inline std::vector<AdaptiveRun> adaptive_runs() {
  constexpr double kSeverity = 0.5;
  std::vector<AdaptiveRun> runs;
  util::Rng rng(0xF165ULL);
  std::vector<data::UserProfile> users;
  for (int u = 1; u <= 3; ++u) {
    users.push_back(data::random_user(u, rng, kSeverity));
    runs.push_back({"user " + std::to_string(u), users.back(), true,
                    static_cast<std::uint64_t>(5000 + u)});
  }
  for (int u = 1; u <= 2; ++u) {
    runs.push_back({"user " + std::to_string(u) + " (frozen matrix)",
                    users[static_cast<std::size_t>(u - 1)], false,
                    static_cast<std::uint64_t>(5000 + u)});
  }
  return runs;
}

/// Runs every row of `runs` over the fleet pool; rows come back in run
/// order, so the table is thread-count-invariant.
inline std::vector<std::vector<double>> run_adaptive(
    const core::TrainedSystem& sys, const std::vector<AdaptiveRun>& runs) {
  std::vector<std::vector<double>> rows(runs.size());
  fleet::ThreadPool pool(fleet::ThreadPool::hardware_threads());
  pool.run_batch(runs.size(), [&](std::size_t i) {
    rows[i] = run_adaptive_user(sys, runs[i].user, runs[i].adaptive,
                                runs[i].seed);
  });
  return rows;
}

}  // namespace origin::bench
