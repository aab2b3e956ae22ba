#include "obs/prometheus.hpp"

#include <sstream>

#include "obs/json.hpp"

namespace origin::obs {
namespace {

std::string sanitize(const std::string& name) {
  std::string out;
  out.reserve(name.size() + 1);
  if (!name.empty() && name[0] >= '0' && name[0] <= '9') out += '_';
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    out += ok ? c : '_';
  }
  return out;
}

// json_number never emits "nan"/"inf" (clamps to null), which Prometheus
// would reject anyway; metric values here are always finite.
std::string num(double v) { return json_number(v); }

}  // namespace

std::string prometheus_text(const MetricsSnapshot& snap) {
  std::ostringstream os;
  for (const MetricDef& def : snap.defs) {
    const std::string base = sanitize(def.name);
    switch (def.kind) {
      case MetricKind::Counter: {
        const std::string name = base + "_total";
        os << "# TYPE " << name << " counter\n";
        os << name << " " << snap.counters[def.slot] << "\n";
        break;
      }
      case MetricKind::Gauge: {
        const GaugeCell& g = snap.gauges[def.slot];
        if (!g.is_set) break;
        os << "# TYPE " << base << " gauge\n";
        os << base << " " << num(g.value) << "\n";
        break;
      }
      case MetricKind::Histogram: {
        const HistogramCell& h = snap.histograms[def.slot];
        os << "# TYPE " << base << " histogram\n";
        std::uint64_t cumulative = 0;
        for (std::size_t b = 0; b < def.upper_bounds.size(); ++b) {
          cumulative += h.buckets[b];
          os << base << "_bucket{le=\"" << num(def.upper_bounds[b]) << "\"} "
             << cumulative << "\n";
        }
        os << base << "_bucket{le=\"+Inf\"} " << h.count << "\n";
        os << base << "_sum " << num(h.sum) << "\n";
        os << base << "_count " << h.count << "\n";
        break;
      }
    }
  }
  return os.str();
}

}  // namespace origin::obs
