#include "core/pipeline.hpp"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "fleet/thread_pool.hpp"
#include "nn/activations.hpp"
#include "nn/conv1d.hpp"
#include "nn/dense.hpp"
#include "nn/dropout.hpp"
#include "nn/kernels/backend.hpp"
#include "nn/pooling.hpp"
#include "nn/serialize.hpp"
#include "util/bytes.hpp"
#include "util/fileio.hpp"
#include "util/logging.hpp"
#include "util/strings.hpp"

namespace origin::core {

namespace {

// Bump when the architecture or the synthetic data generator changes in a
// way that invalidates cached weights. v6: the data-path kernel rewrite
// swapped libm sin for util::det_sin in window synthesis (<2e-11 absolute
// error, deliberately bit-portable but not bit-identical to libm), which
// changes the synthetic training streams — v5 caches hold libm-era weights
// that no committed code can reproduce. v7: windows draw their phase,
// wobble and noise from a per-window key (keyed Box–Muller noise) instead
// of the sequential stream RNG, which moves every training window.
constexpr int kArchVersion = 7;

// The calibration cache file: magic, version, key text, class count, the
// four f64 tables (accuracy, relaxed accuracy, confidence rows, relaxed
// confidence rows; sensor-major), then an FNV-1a checksum of all of it.
// Bump kCalibVersion when the calibration procedure or this layout
// changes.
constexpr char kCalibMagic[4] = {'O', 'R', 'C', 'L'};
constexpr std::uint32_t kCalibVersion = 1;

nn::Samples training_set_for(const PipelineConfig& config,
                             const data::DatasetSpec& spec,
                             data::SensorLocation loc, int per_class,
                             std::uint64_t salt) {
  return data::make_training_set(spec, loc, per_class, data::reference_user(),
                                 config.seed ^ salt);
}

/// The calibration cache's key before hashing; the file stores it too, so
/// a file renamed or colliding into another key's path is refused.
std::string calibration_key_text(const PipelineConfig& config) {
  std::ostringstream os;
  os << pipeline_cache_key(config) << "|calib|" << config.calib_per_class
     << '|' << nn::kernels::active_backend().name << '|' << kCalibVersion;
  return os.str();
}

/// Writes `system`'s calibration (per-class accuracies and confidence
/// rows, strict and relaxed, as f64) to calibration_cache_path(config)
/// atomically. Runs right after calibrate_system: the confidence rows are
/// read back from the matrices' current weights.
void save_calibration(const TrainedSystem& system,
                      const PipelineConfig& config) {
  const int num_classes = system.spec.num_classes();
  util::ByteWriter w;
  w.raw(kCalibMagic, sizeof kCalibMagic);
  w.u32(kCalibVersion);
  w.str(calibration_key_text(config));
  w.u32(static_cast<std::uint32_t>(num_classes));
  for (const auto* accuracy :
       {&system.calib_accuracy, &system.calib_accuracy_relaxed}) {
    for (const auto& row : *accuracy) {
      for (double v : row) w.f64(v);
    }
  }
  for (const auto* matrix : {&system.confidence, &system.confidence_relaxed}) {
    for (int s = 0; s < data::kNumSensors; ++s) {
      for (int c = 0; c < num_classes; ++c) {
        w.f64(matrix->weight(static_cast<data::SensorLocation>(s), c));
      }
    }
  }
  std::string bytes = w.bytes();
  util::ByteWriter sum;
  sum.u64(util::fnv1a(bytes));
  bytes += sum.bytes();
  util::write_file_atomic(calibration_cache_path(config), bytes);
}

}  // namespace

std::string default_cache_dir() {
  if (const char* env = std::getenv("ORIGIN_CACHE_DIR"); env && *env != '\0') {
    return env;
  }
  return "origin_models";
}

std::array<nn::Sequential*, data::kNumSensors> TrainedSystem::bl1_models() {
  return {&sensors[0].bl1, &sensors[1].bl1, &sensors[2].bl1};
}
std::array<nn::Sequential*, data::kNumSensors> TrainedSystem::bl2_models() {
  return {&sensors[0].bl2, &sensors[1].bl2, &sensors[2].bl2};
}
std::array<nn::Sequential*, data::kNumSensors> TrainedSystem::relaxed_models() {
  return {&sensors[0].relaxed, &sensors[1].relaxed, &sensors[2].relaxed};
}
std::array<nn::Sequential, data::kNumSensors> TrainedSystem::bl1_copy() const {
  return {sensors[0].bl1, sensors[1].bl1, sensors[2].bl1};
}
std::array<nn::Sequential, data::kNumSensors> TrainedSystem::bl2_copy() const {
  return {sensors[0].bl2, sensors[1].bl2, sensors[2].bl2};
}
std::array<nn::Sequential, data::kNumSensors> TrainedSystem::relaxed_copy() const {
  return {sensors[0].relaxed, sensors[1].relaxed, sensors[2].relaxed};
}

nn::Sequential make_bl1_architecture(const data::DatasetSpec& spec,
                                     std::uint64_t seed) {
  util::Rng rng(seed);
  nn::Sequential model;
  model.emplace<nn::Conv1D>(spec.channels, 20, 5, 1, rng)
      .emplace<nn::ReLU>()
      .emplace<nn::MaxPool1D>(2)
      .emplace<nn::Conv1D>(20, 32, 5, 1, rng)
      .emplace<nn::ReLU>()
      .emplace<nn::MaxPool1D>(2)
      .emplace<nn::Flatten>()
      .emplace<nn::Dense>(
          32 * nn::MaxPool1D::out_length(
                   nn::Conv1D::out_length(
                       nn::MaxPool1D::out_length(
                           nn::Conv1D::out_length(spec.window_len, 5, 1), 2, 2),
                       5, 1),
                   2, 2),
          64, rng)
      .emplace<nn::ReLU>()
      .emplace<nn::Dropout>(0.25f, seed ^ 0xD120u)
      .emplace<nn::Dense>(64, spec.num_classes(), rng);
  return model;
}

std::string pipeline_cache_key(const PipelineConfig& config) {
  std::ostringstream os;
  os << to_string(config.kind) << '|' << kArchVersion << '|'
     << config.train_per_class << '|' << config.train.epochs << '|'
     << config.train.batch_size << '|' << config.train.learning_rate << '|'
     << config.train.mixup_prob << '|'
     << config.bl2_budget_fraction << '|' << config.relaxed_budget_fraction
     << '|' << config.seed << '|'
     << config.profile.energy_per_mac_j << '|'
     << config.profile.energy_per_param_access_j << '|'
     << config.profile.inference_overhead_j;
  // Trained weights depend on the kernel backend's rounding (fused SIMD
  // vs unfused scalar), so a non-reference backend gets its own cache
  // namespace — a model trained under avx2 must never be served to a
  // reference-backend run expecting the golden bits, or vice versa.
  const std::string backend = nn::kernels::active_backend().name;
  if (backend != std::string("reference")) os << '|' << backend;
  return util::hex64(util::fnv1a(os.str()));
}

std::vector<double> per_class_accuracy(nn::Sequential& model,
                                       const nn::Samples& samples,
                                       int num_classes) {
  std::vector<double> accuracy;
  ConfidenceMatrix::calibrate_sensor(model, samples, num_classes, &accuracy);
  return accuracy;
}

void train_system(TrainedSystem& system, const PipelineConfig& config) {
  system.spec = data::dataset_spec(config.kind);
  const std::vector<int> input_shape = {system.spec.channels,
                                        system.spec.window_len};
  const std::string key = pipeline_cache_key(config);
  const std::filesystem::path cache_dir(config.cache_dir);

  struct SensorPaths {
    std::filesystem::path bl1, bl2, rlx;
  };
  std::array<SensorPaths, data::kNumSensors> paths;
  std::vector<int> pending;  // sensors that missed the cache

  // Stage 0 (serial): cache lookup per sensor location.
  for (int s = 0; s < data::kNumSensors; ++s) {
    const auto si = static_cast<std::size_t>(s);
    const auto loc = static_cast<data::SensorLocation>(s);
    SensorSystem& bundle = system.sensors[si];
    paths[si] = {cache_dir / (key + "_" + to_string(loc) + "_bl1.bin"),
                 cache_dir / (key + "_" + to_string(loc) + "_bl2.bin"),
                 cache_dir / (key + "_" + to_string(loc) + "_rlx.bin")};

    bool loaded = false;
    if (config.use_cache && std::filesystem::exists(paths[si].bl1) &&
        std::filesystem::exists(paths[si].bl2) &&
        std::filesystem::exists(paths[si].rlx)) {
      try {
        bundle.bl1 = nn::load_model(paths[si].bl1.string());
        bundle.bl2 = nn::load_model(paths[si].bl2.string());
        bundle.relaxed = nn::load_model(paths[si].rlx.string());
        loaded = true;
        util::log_info("pipeline: loaded cached models for ", to_string(loc));
      } catch (const std::exception& e) {
        util::log_warn("pipeline: cache load failed (", e.what(), "); retraining");
      }
    }
    if (!loaded) pending.push_back(s);
  }

  if (!pending.empty()) {
    // Per-pending-sensor state shared between the two training stages.
    struct SensorWork {
      nn::Samples train;
      nn::Samples tune_subset;
      double bl1_energy = 0.0;
    };
    std::vector<SensorWork> work(pending.size());

    // Stage A: BL-1 fit per pending location. Each task draws from its own
    // RNGs (data salt 0x7123+s, arch seed seed+31s, trainer shuffle_seed,
    // dropout seed arch^0xD120), so tasks share no mutable state and the
    // trained weights are independent of scheduling.
    auto fit_bl1 = [&](std::size_t k) {
      const int s = pending[k];
      const auto si = static_cast<std::size_t>(s);
      const auto loc = static_cast<data::SensorLocation>(s);
      SensorSystem& bundle = system.sensors[si];
      SensorWork& w = work[k];
      w.train = training_set_for(config, system.spec, loc,
                                 config.train_per_class, 0x7123ULL + si);
      bundle.bl1 = make_bl1_architecture(
          system.spec, config.seed + 31ULL * static_cast<std::uint64_t>(s));
      nn::Trainer trainer(config.train);
      trainer.fit(bundle.bl1, w.train);
      // Low-rate polish pass, mirroring the recovery fit the pruned nets
      // receive, so the BL-1/BL-2 comparison isolates the pruning.
      nn::TrainConfig polish = config.train;
      polish.epochs = 3;
      polish.learning_rate = 2e-3;
      polish.early_stop_accuracy = 0.995;
      nn::Trainer(polish).fit(bundle.bl1, w.train);

      w.bl1_energy =
          nn::estimate_cost(bundle.bl1, input_shape, config.profile).energy_j;
      // Interleaved fine-tuning runs on a subset for speed; a full
      // recovery fit follows once the budget is met.
      w.tune_subset.assign(
          w.train.begin(),
          w.train.begin() + static_cast<std::ptrdiff_t>(
                                std::min<std::size_t>(w.train.size(), 600)));
    };

    // Stage B: six prune variants (two per pending location). Copying BL-1
    // resets the Dropout RNG via Layer::clone, so each variant's fine-tune
    // stream is fixed regardless of which worker ran what before it.
    auto fit_variant = [&](std::size_t v) {
      const std::size_t k = v / 2;
      const int s = pending[k];
      const auto si = static_cast<std::size_t>(s);
      const auto loc = static_cast<data::SensorLocation>(s);
      SensorSystem& bundle = system.sensors[si];
      const SensorWork& w = work[k];
      const bool is_relaxed = (v % 2) != 0;
      const double fraction = is_relaxed ? config.relaxed_budget_fraction
                                         : config.bl2_budget_fraction;

      nn::Sequential net = bundle.bl1;
      nn::PruneConfig prune;
      prune.energy_budget_j = fraction * w.bl1_energy;
      prune.fine_tune_every = 10;
      prune.fine_tune.epochs = 1;
      prune.fine_tune.learning_rate = 2e-3;
      prune.fine_tune.shuffle_seed = config.seed ^ 0xF17EULL;
      const auto report = nn::prune_to_energy_budget(
          net, input_shape, config.profile, w.tune_subset, prune);
      nn::TrainConfig recover = config.train;
      recover.epochs = 3;
      recover.learning_rate = 2e-3;
      recover.early_stop_accuracy = 0.995;
      nn::Trainer(recover).fit(net, w.train);
      util::log_info("pipeline: pruned ", to_string(loc), " [",
                     is_relaxed ? "relaxed" : "bl2", "] ",
                     report.params_before, " -> ", report.params_after,
                     " params, energy ", report.energy_before_j, " -> ",
                     report.energy_after_j);
      (is_relaxed ? bundle.relaxed : bundle.bl2) = std::move(net);
    };

    const unsigned threads =
        config.train_threads > 0 ? static_cast<unsigned>(config.train_threads)
                                 : fleet::ThreadPool::hardware_threads();
    {
      // Two flat run_batch calls — the pool is not reentrant, so the
      // variant fan-out cannot be nested inside the BL-1 tasks.
      fleet::ThreadPool pool(std::min<unsigned>(
          threads, static_cast<unsigned>(pending.size()) * 2u));
      pool.run_batch(pending.size(), fit_bl1);
      pool.run_batch(pending.size() * 2, fit_variant);
    }

    // Serial atomic saves once all training is done.
    if (config.use_cache) {
      std::error_code ec;
      std::filesystem::create_directories(cache_dir, ec);
      if (!ec) {
        for (std::size_t k = 0; k < pending.size(); ++k) {
          const auto si = static_cast<std::size_t>(pending[k]);
          nn::save_model(system.sensors[si].bl1, paths[si].bl1.string());
          nn::save_model(system.sensors[si].bl2, paths[si].bl2.string());
          nn::save_model(system.sensors[si].relaxed, paths[si].rlx.string());
        }
      }
    }
  }

  for (int s = 0; s < data::kNumSensors; ++s) {
    const auto si = static_cast<std::size_t>(s);
    SensorSystem& bundle = system.sensors[si];
    bundle.bl1_cost = nn::estimate_cost(bundle.bl1, input_shape, config.profile);
    bundle.bl2_cost = nn::estimate_cost(bundle.bl2, input_shape, config.profile);
    bundle.relaxed_cost =
        nn::estimate_cost(bundle.relaxed, input_shape, config.profile);
  }
}

void calibrate_system(TrainedSystem& system, const PipelineConfig& config) {
  const int num_classes = system.spec.num_classes();
  std::array<nn::Samples, data::kNumSensors> calib;
  std::array<std::vector<double>, data::kNumSensors> rows;
  std::array<std::vector<double>, data::kNumSensors> rows_relaxed;

  // Stage 1: held-out window synthesis, one task per sensor. Each task
  // writes only its own slot.
  auto synthesize = [&](std::size_t si) {
    calib[si] = training_set_for(config, system.spec,
                                 static_cast<data::SensorLocation>(si),
                                 config.calib_per_class, 0xCA11Bu + si);
  };

  // Stage 2: measurement, one task per (sensor, model variant) — task k
  // is sensor k%3, variant k/3, so each task owns one model exclusively
  // (batched inference keeps per-thread arenas, but the int8 and panel
  // caches live in the model). One batched forward per model yields both
  // the accuracy and the confidence row, pinned bit-identical to the
  // per-sample oracles.
  auto measure = [&](std::size_t k) {
    const std::size_t si = k % data::kNumSensors;
    const bool relaxed = k >= data::kNumSensors;
    nn::Sequential& model =
        relaxed ? system.sensors[si].relaxed : system.sensors[si].bl2;
    auto& accuracy =
        relaxed ? system.calib_accuracy_relaxed[si] : system.calib_accuracy[si];
    auto& row = relaxed ? rows_relaxed[si] : rows[si];
    row = ConfidenceMatrix::calibrate_sensor(model, calib[si], num_classes,
                                             &accuracy);
  };

  const unsigned threads =
      config.train_threads > 0 ? static_cast<unsigned>(config.train_threads)
                               : fleet::ThreadPool::hardware_threads();
  {
    // Two flat run_batch calls, like train_system — the pool is not
    // reentrant, and stage 2 reads every sensor's calibration set.
    fleet::ThreadPool pool(std::min<unsigned>(
        threads, static_cast<unsigned>(data::kNumSensors) * 2u));
    pool.run_batch(data::kNumSensors, synthesize);
    pool.run_batch(static_cast<std::size_t>(data::kNumSensors) * 2, measure);
  }

  // Serial merge in sensor order: rank tables + confidence matrices for
  // the strict (BL-2) and relaxed model sets.
  system.ranks = RankTable::from_accuracy(system.calib_accuracy);
  system.confidence = ConfidenceMatrix::from_rows(rows, num_classes);
  system.ranks_relaxed = RankTable::from_accuracy(system.calib_accuracy_relaxed);
  system.confidence_relaxed =
      ConfidenceMatrix::from_rows(rows_relaxed, num_classes);
}

std::string calibration_cache_path(const PipelineConfig& config) {
  return (std::filesystem::path(config.cache_dir) /
          (util::hex64(util::fnv1a(calibration_key_text(config))) +
           "_calib.bin"))
      .string();
}

void load_calibration(TrainedSystem& system, const PipelineConfig& config) {
  const std::string bytes = util::read_file(calibration_cache_path(config));
  // The trailing checksum covers every byte before it, so any truncation
  // or flipped byte fails here before a field is trusted.
  if (bytes.size() < sizeof(std::uint64_t)) {
    throw std::runtime_error("load_calibration: truncated");
  }
  const std::string_view body(bytes.data(),
                              bytes.size() - sizeof(std::uint64_t));
  util::ByteReader tail(
      std::string_view(bytes).substr(body.size()), "load_calibration");
  if (tail.u64() != util::fnv1a(std::string(body))) {
    throw std::runtime_error("load_calibration: checksum mismatch");
  }
  util::ByteReader r(body, "load_calibration");
  if (std::memcmp(r.take(sizeof kCalibMagic), kCalibMagic,
                  sizeof kCalibMagic) != 0) {
    throw std::runtime_error("load_calibration: bad magic");
  }
  if (r.u32() != kCalibVersion) {
    throw std::runtime_error("load_calibration: unsupported version");
  }
  if (r.str() != calibration_key_text(config)) {
    throw std::runtime_error("load_calibration: key mismatch");
  }
  const int num_classes = system.spec.num_classes();
  if (r.u32() != static_cast<std::uint32_t>(num_classes)) {
    throw std::runtime_error("load_calibration: class count mismatch");
  }
  using Table = std::array<std::vector<double>, data::kNumSensors>;
  // Accuracy, relaxed accuracy, confidence rows, relaxed confidence rows.
  std::array<Table, 4> tables;
  for (Table& table : tables) {
    for (auto& row : table) {
      row.resize(static_cast<std::size_t>(num_classes));
      for (double& v : row) {
        v = r.f64();
        if (!(v >= 0.0 && v <= 1.0)) {
          throw std::runtime_error("load_calibration: value out of range");
        }
      }
    }
  }
  if (!r.exhausted()) {
    throw std::runtime_error("load_calibration: trailing bytes");
  }

  // Build every table before adopting any, so a throw leaves `system`
  // untouched.
  RankTable ranks = RankTable::from_accuracy(tables[0]);
  RankTable ranks_relaxed = RankTable::from_accuracy(tables[1]);
  ConfidenceMatrix confidence =
      ConfidenceMatrix::from_rows(tables[2], num_classes);
  ConfidenceMatrix confidence_relaxed =
      ConfidenceMatrix::from_rows(tables[3], num_classes);
  system.calib_accuracy = std::move(tables[0]);
  system.calib_accuracy_relaxed = std::move(tables[1]);
  system.ranks = std::move(ranks);
  system.ranks_relaxed = std::move(ranks_relaxed);
  system.confidence = std::move(confidence);
  system.confidence_relaxed = std::move(confidence_relaxed);
}

TrainedSystem build_system(const PipelineConfig& config) {
  TrainedSystem system;
  train_system(system, config);
  if (config.use_cache &&
      std::filesystem::exists(calibration_cache_path(config))) {
    try {
      load_calibration(system, config);
      util::log_info("pipeline: loaded cached calibration");
      return system;
    } catch (const std::exception& e) {
      util::log_warn("pipeline: calibration cache load failed (", e.what(),
                     "); recalibrating");
    }
  }
  calibrate_system(system, config);
  if (config.use_cache) {
    std::error_code ec;
    std::filesystem::create_directories(config.cache_dir, ec);
    try {
      save_calibration(system, config);
    } catch (const std::exception& e) {
      // The tables are in memory either way; only the next warm start
      // pays for a missing file.
      util::log_warn("pipeline: calibration cache save failed (", e.what(),
                     ")");
    }
  }
  return system;
}

nn::Samples make_test_set(const PipelineConfig& config,
                          const data::DatasetSpec& spec,
                          data::SensorLocation loc) {
  return training_set_for(config, spec, loc, config.test_per_class,
                          0x7E57u + static_cast<std::size_t>(loc));
}

}  // namespace origin::core
