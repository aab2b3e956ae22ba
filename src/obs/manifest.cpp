#include "obs/manifest.hpp"

#include <cinttypes>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <stdexcept>

#include "obs/json.hpp"
#include "obs/trace.hpp"

// Build facts from src/CMakeLists.txt: the git stamp is a generated header
// only this file includes (rewritten at build time when HEAD or the tree's
// dirty state changes), the rest compile definitions on this file only.
#include "build_stamp.hpp"
#ifndef ORIGIN_BUILD_TYPE
#define ORIGIN_BUILD_TYPE "unknown"
#endif
#ifndef ORIGIN_COMPILER
#define ORIGIN_COMPILER "unknown"
#endif

namespace origin::obs {

const BuildInfo& build_info() {
  static const BuildInfo info = [] {
    BuildInfo b;
    b.git_describe = ORIGIN_GIT_DESCRIBE;
    b.build_type = ORIGIN_BUILD_TYPE;
    b.compiler = ORIGIN_COMPILER;
    b.trace_enabled = kTraceEnabled;
    return b;
  }();
  return info;
}

namespace {

std::string utc_now_iso8601() {
  const std::time_t now = std::time(nullptr);
  std::tm tm{};
  gmtime_r(&now, &tm);
  char buf[32];
  std::strftime(buf, sizeof(buf), "%Y-%m-%dT%H:%M:%SZ", &tm);
  return buf;
}

}  // namespace

RunManifest::RunManifest(std::string tool)
    : tool_(std::move(tool)), started_at_utc_(utc_now_iso8601()) {}

void RunManifest::set(const std::string& key, const std::string& value) {
  for (auto& [k, v] : params_) {
    if (k == key) {
      v = value;
      return;
    }
  }
  params_.emplace_back(key, value);
}

void RunManifest::set(const std::string& key, const char* value) {
  set(key, std::string(value));
}

void RunManifest::set(const std::string& key, double value) {
  set(key, json_number(value));
}

void RunManifest::set(const std::string& key, std::uint64_t value) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%" PRIu64, value);
  set(key, std::string(buf));
}

void RunManifest::set(const std::string& key, std::int64_t value) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%" PRId64, value);
  set(key, std::string(buf));
}

void RunManifest::set(const std::string& key, int value) {
  set(key, static_cast<std::int64_t>(value));
}

void RunManifest::set(const std::string& key, bool value) {
  set(key, std::string(value ? "true" : "false"));
}

std::string RunManifest::to_json(const MetricsSnapshot* metrics) const {
  const BuildInfo& build = build_info();
  JsonWriter w;
  w.begin_object();
  w.kv("tool", tool_);
  w.kv("started_at", started_at_utc_);
  w.kv("wall_seconds", wall_seconds_);
  w.key("build").begin_object();
  w.kv("git_describe", build.git_describe);
  w.kv("build_type", build.build_type);
  w.kv("compiler", build.compiler);
  w.kv("trace_enabled", build.trace_enabled);
  w.end_object();
  w.key("params").begin_object();
  for (const auto& [k, v] : params_) w.kv(k, v);
  w.end_object();
  w.end_object();
  std::string out = w.str();
  if (metrics) {
    // Splice the (already-rendered) metrics object before the final brace
    // so the two writers stay independent.
    out.pop_back();
    out += ",\"metrics\":";
    out += metrics->to_json();
    out += '}';
  }
  return out;
}

void RunManifest::write(const std::string& path,
                        const MetricsSnapshot* metrics) const {
  std::ofstream os(path);
  if (!os) throw std::runtime_error("RunManifest::write: cannot open " + path);
  os << to_json(metrics) << '\n';
  if (!os) {
    throw std::runtime_error("RunManifest::write: write failed for " + path);
  }
}

}  // namespace origin::obs
