// Backend registry: probe-once discovery, lazy env-driven activation.
//
// The SIMD factories are referenced explicitly (not via self-registering
// statics) because origin is a static library — a backend TU with no
// incoming reference would be dropped by the linker and silently never
// probed.
#include <atomic>
#include <cstdio>
#include <cstdlib>

#include "nn/kernels/backend_detail.hpp"

namespace origin::nn::kernels {

namespace {

std::atomic<const Backend*>& active_slot() {
  static std::atomic<const Backend*> slot{nullptr};
  return slot;
}

const Backend* resolve_default() {
  if (const char* env = std::getenv("ORIGIN_BACKEND"); env && *env) {
    if (const Backend* b = find_backend(env)) return b;
    std::fprintf(stderr,
                 "origin: ORIGIN_BACKEND='%s' is unknown or unavailable on "
                 "this machine; using the reference backend\n",
                 env);
  }
  return &reference_backend();
}

}  // namespace

const std::vector<const Backend*>& available_backends() {
  static const std::vector<const Backend*> backends = [] {
    std::vector<const Backend*> v{&reference_backend()};
    // Worst-to-best: "auto" picks the back of this list.
    if (const Backend* b = avx2_backend()) v.push_back(b);
    return v;
  }();
  return backends;
}

const Backend* find_backend(const std::string& name) {
  const std::vector<const Backend*>& all = available_backends();
  if (name == "auto") return all.back();
  for (const Backend* b : all) {
    if (name == b->name) return b;
  }
  return nullptr;
}

const Backend& active_backend() {
  const Backend* b = active_slot().load(std::memory_order_acquire);
  if (b == nullptr) {
    // First use on any thread resolves the default; racing resolvers
    // agree (resolve_default is deterministic per-process), so a lost
    // CAS still leaves the right backend installed.
    const Backend* resolved = resolve_default();
    const Backend* expected = nullptr;
    active_slot().compare_exchange_strong(expected, resolved,
                                          std::memory_order_acq_rel);
    b = active_slot().load(std::memory_order_acquire);
  }
  return *b;
}

bool set_backend(const std::string& name) {
  const Backend* b = find_backend(name);
  if (b == nullptr) return false;
  active_slot().store(b, std::memory_order_release);
  return true;
}

std::string simd_features() {
  std::string features;
#if defined(__x86_64__) || defined(_M_X64)
  const auto append = [&](bool has, const char* tag) {
    if (!has) return;
    if (!features.empty()) features += ' ';
    features += tag;
  };
  append(__builtin_cpu_supports("sse4.2"), "sse4.2");
  append(__builtin_cpu_supports("avx2"), "avx2");
  append(__builtin_cpu_supports("fma"), "fma");
  append(__builtin_cpu_supports("avx512f"), "avx512f");
#endif
  if (features.empty()) features = "scalar-only";
  return features;
}

}  // namespace origin::nn::kernels
