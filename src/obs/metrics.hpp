// MetricsRegistry: named counters, gauges and fixed-bucket histograms with
// sharded recording and deterministic merge — the same contract as
// fleet::FleetAccumulator. The registry is the schema (created once, before
// any recording); each unit of parallel work records into its own
// MetricsShard with no sharing and no locks; the caller folds the shards in
// shard-index order, so every metric flagged `deterministic` is a pure
// function of the job list and bit-identical at any thread count.
// Wall-clock metrics (latency histograms, steal counters) are registered
// with deterministic = false and excluded from bit-identity checks.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace origin::obs {

enum class MetricKind { Counter, Gauge, Histogram };

const char* to_string(MetricKind kind);

using MetricId = std::size_t;

struct MetricDef {
  std::string name;
  MetricKind kind = MetricKind::Counter;
  /// True when the recorded value stream is a pure function of the job
  /// list (participates in bit-identity checks across thread counts).
  bool deterministic = true;
  /// Histograms only: ascending finite upper bounds; an implicit +inf
  /// bucket is appended. A value lands in the first bucket with v <= bound.
  std::vector<double> upper_bounds;
  /// Slot of this metric within its kind's storage (assigned by registry).
  std::size_t slot = 0;
};

struct GaugeCell {
  double value = 0.0;
  bool is_set = false;
};

struct HistogramCell {
  std::vector<std::uint64_t> buckets;  // upper_bounds.size() + 1 (+inf last)
  std::uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;
};

class MetricsShard;

class MetricsRegistry {
 public:
  MetricId add_counter(std::string name, bool deterministic = true);
  MetricId add_gauge(std::string name, bool deterministic = false);
  MetricId add_histogram(std::string name, std::vector<double> upper_bounds,
                         bool deterministic = true);

  const std::vector<MetricDef>& defs() const { return defs_; }
  /// Id of a registered metric by name; throws std::out_of_range if absent.
  MetricId find(const std::string& name) const;

  /// A zeroed shard shaped for this registry. The registry must not change
  /// after shards exist.
  MetricsShard make_shard() const;

  /// Exponential bucket upper bounds: `first, first*factor, ...` (count
  /// finite buckets) — the usual shape for latency histograms.
  static std::vector<double> exponential_bounds(double first, double factor,
                                                std::size_t count);
  /// Linear bucket upper bounds: `first, first+step, ...`.
  static std::vector<double> linear_bounds(double first, double step,
                                           std::size_t count);

 private:
  MetricId add(MetricDef def);

  std::vector<MetricDef> defs_;
  std::size_t counters_ = 0, gauges_ = 0, histograms_ = 0;
};

/// One unit of parallel work's private recording surface. Cheap to create,
/// no interior locking — exclusivity is the caller's (e.g. one shard per
/// fleet shard). Merge order must be deterministic for deterministic
/// metrics to stay bit-identical (fold in shard-index order).
class MetricsShard {
 public:
  MetricsShard() = default;

  void inc(MetricId id, std::uint64_t n = 1);
  void set(MetricId id, double v);
  /// Gauge that only moves up — for high-water marks observed by several
  /// shards (max is exact and commutative, unlike last-write).
  void set_max(MetricId id, double v);
  void observe(MetricId id, double v);
  /// Adds a previously captured cell into this shard's histogram:
  /// bucket-wise sums plus min/max merge. For snapshot restore, where a
  /// deterministic histogram's accumulated state is replayed wholesale
  /// instead of observation by observation. The cell's bucket layout must
  /// match the metric's (same upper_bounds it was captured under).
  void restore_histogram(MetricId id, const HistogramCell& cell);

  void merge(const MetricsShard& other);

  std::uint64_t counter(MetricId id) const;
  const GaugeCell& gauge(MetricId id) const;
  const HistogramCell& histogram(MetricId id) const;

 private:
  friend class MetricsRegistry;

  const MetricDef& checked(MetricId id, MetricKind kind) const;

  const MetricsRegistry* registry_ = nullptr;
  std::vector<std::uint64_t> counters_;
  std::vector<GaugeCell> gauges_;
  std::vector<HistogramCell> histograms_;
};

/// Folds shards by ascending index (shard 0's gauge values lose to later
/// set gauges; counters/histograms are exact sums).
MetricsShard merge_in_order(const std::vector<MetricsShard>& shards);

/// Self-contained (definitions + merged values) result of a run, suitable
/// for storing, diffing and JSON dumping after the registry is gone.
struct MetricsSnapshot {
  std::vector<MetricDef> defs;
  std::vector<std::uint64_t> counters;
  std::vector<GaugeCell> gauges;
  std::vector<HistogramCell> histograms;

  std::string to_json() const;

  /// Definition of a metric by name, or nullptr if absent. The value
  /// lives at def->slot of the store matching def->kind.
  const MetricDef* find(const std::string& name) const;
  /// Convenience lookups by name; throw std::out_of_range when the metric
  /// is absent or of another kind.
  std::uint64_t counter_value(const std::string& name) const;
  const GaugeCell& gauge_value(const std::string& name) const;
  const HistogramCell& histogram_value(const std::string& name) const;

  /// Bitwise equality over the deterministic metrics only — the assertion
  /// fleet_scale runs across thread counts.
  static bool deterministic_equal(const MetricsSnapshot& a,
                                  const MetricsSnapshot& b);
};

/// Quantile estimate from a fixed-bucket histogram (q in [0, 1]), with
/// linear interpolation inside the containing bucket — the usual
/// Prometheus-style estimate for p50/p99 latency reporting. The +inf
/// bucket clamps to the observed max; an empty histogram returns 0.
double histogram_quantile(const HistogramCell& cell,
                          const std::vector<double>& upper_bounds, double q);

/// The SLO trio every latency summary reports: p50, p95, p99.
inline constexpr std::array<double, 3> kSloQuantiles = {0.5, 0.95, 0.99};

/// Batch form: one estimate per entry of `qs`, in order — a single call
/// for the p50/p95/p99 trio instead of three scans.
std::vector<double> histogram_quantiles(const HistogramCell& cell,
                                        const std::vector<double>& upper_bounds,
                                        const std::vector<double>& qs);

MetricsSnapshot snapshot(const MetricsRegistry& registry,
                         const MetricsShard& merged);

}  // namespace origin::obs
