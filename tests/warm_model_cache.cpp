// Trains the default MHEALTH-like system into the model cache
// ($ORIGIN_CACHE_DIR, else ./origin_models) and writes its calibration:
// under the active kernel backend and, when that is not the reference
// backend, under the reference backend too (the claims gate pins it).
// ctest runs it once as the setup of every case that shares the build
// tree's cache, so those cases load instead of each training the same
// models concurrently in a cold tree.
#include <cstdio>
#include <exception>
#include <string>
#include <vector>

#include "core/pipeline.hpp"
#include "nn/kernels/backend.hpp"

int main() {
  using namespace origin;
  std::vector<std::string> backends{nn::kernels::active_backend().name};
  if (backends.front() != "reference") backends.emplace_back("reference");
  try {
    for (const std::string& backend : backends) {
      if (!nn::kernels::set_backend(backend)) {
        std::fprintf(stderr, "warm_model_cache: no backend %s\n",
                     backend.c_str());
        return 1;
      }
      const core::PipelineConfig config;
      core::build_system(config);
      std::printf("warm_model_cache: %s models and calibration in %s (%s)\n",
                  to_string(config.kind), config.cache_dir.c_str(),
                  backend.c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "warm_model_cache: %s\n", e.what());
    return 1;
  }
  return 0;
}
