// End-to-end offline pipeline (paper §IV-B): per-sensor training sets from
// the synthetic dataset, Baseline-1 CNNs trained per sensor location,
// Baseline-2 derived by energy-aware pruning, rank table and confidence
// matrix calibrated on held-out data. Trained models and their calibration
// are cached on disk so every bench/example binary shares one training and
// one calibration run.
#pragma once

#include <array>
#include <string>

#include "core/confidence.hpp"
#include "core/rank_table.hpp"
#include "data/dataset.hpp"
#include "nn/energy_model.hpp"
#include "nn/model.hpp"
#include "nn/pruning.hpp"
#include "nn/trainer.hpp"

namespace origin::core {

/// Model-cache directory shared by the pipeline and the bench harness:
/// $ORIGIN_CACHE_DIR when set and non-empty, "origin_models" otherwise.
std::string default_cache_dir();

struct PipelineConfig {
  data::DatasetKind kind = data::DatasetKind::MHealthLike;
  int train_per_class = 260;
  int calib_per_class = 90;
  int test_per_class = 110;
  nn::TrainConfig train;
  nn::ComputeProfile profile;
  /// BL-2 per-inference energy budget as a fraction of BL-1's. Mirrors
  /// "prune to the average harvested power budget": the harvest scale is
  /// calibrated afterwards so this budget equals the trace's average
  /// power over the pruning period (see sim/experiment.hpp).
  double bl2_budget_fraction = 0.45;
  /// Relaxed budget (paper §III-D): under extended round-robin a node only
  /// infers once per cycle, so the pruning constraint relaxes to the
  /// cycle-average power — a larger, more accurate network.
  double relaxed_budget_fraction = 0.80;
  std::uint64_t seed = 20210201;  // DATE'21
  std::string cache_dir = default_cache_dir();
  bool use_cache = true;
  /// Worker threads for training the nine (location × variant) nets
  /// (0 = hardware concurrency). Excluded from the cache key: every net
  /// trains from its own derived seed on its own data, so the model files
  /// are byte-identical at any thread count.
  int train_threads = 0;

  PipelineConfig() {
    train.epochs = 12;
    train.batch_size = 16;
    train.learning_rate = 8e-3;
    train.early_stop_accuracy = 0.995;
    // Mixup calibration is available (see TrainConfig::mixup_prob and the
    // abl_components bench) but off by default: on this generator it
    // lowers per-sensor accuracy without sharpening the confidence signal.
    train.mixup_prob = 0.0;
  }
};

struct SensorSystem {
  nn::Sequential bl1;      // unpruned
  nn::Sequential bl2;      // pruned to the continuous-operation budget
  nn::Sequential relaxed;  // pruned to the ER-r cycle budget (§III-D)
  nn::InferenceCost bl1_cost;
  nn::InferenceCost bl2_cost;
  nn::InferenceCost relaxed_cost;
};

struct TrainedSystem {
  data::DatasetSpec spec;
  std::array<SensorSystem, data::kNumSensors> sensors;
  /// Held-out (calibration) per-class accuracy: calib_accuracy[sensor][class].
  std::array<std::vector<double>, data::kNumSensors> calib_accuracy;
  std::array<std::vector<double>, data::kNumSensors> calib_accuracy_relaxed;
  RankTable ranks{1};
  ConfidenceMatrix confidence{1};
  RankTable ranks_relaxed{1};
  ConfidenceMatrix confidence_relaxed{1};

  std::array<nn::Sequential*, data::kNumSensors> bl1_models();
  std::array<nn::Sequential*, data::kNumSensors> bl2_models();
  std::array<nn::Sequential*, data::kNumSensors> relaxed_models();
  std::array<nn::Sequential, data::kNumSensors> bl1_copy() const;
  std::array<nn::Sequential, data::kNumSensors> bl2_copy() const;
  std::array<nn::Sequential, data::kNumSensors> relaxed_copy() const;
};

/// The per-sensor CNN architecture (Ha & Choi-style) before pruning.
nn::Sequential make_bl1_architecture(const data::DatasetSpec& spec,
                                     std::uint64_t seed);

/// Trains (or loads from cache) the nine per-sensor nets and their cost
/// estimates into `system` — the training stage of build_system, exposed
/// so benches can time it in isolation. Cache lookups and saves are
/// serial; the training work fans out over config.train_threads workers
/// (two flat stages: three BL-1 fits, then six prune variants). Saves are
/// atomic (temp file + rename), so a crashed or concurrent run never
/// leaves a torn model file.
void train_system(TrainedSystem& system, const PipelineConfig& config);

/// Calibration stage of build_system, exposed so benches and tests can
/// time and re-run it standalone: synthesizes the held-out calibration
/// set, measures per-class accuracy and the confidence rows in one
/// inference pass per model, and builds the rank tables and confidence
/// matrices for the strict and relaxed model sets. The work fans out over
/// config.train_threads workers in two flat stages (three per-sensor
/// data syntheses, then six per-model measurement passes), each task
/// owning one model exclusively; the rank/confidence assembly is a serial
/// merge in sensor order, so the tables are bit-identical at any thread
/// count.
void calibrate_system(TrainedSystem& system, const PipelineConfig& config);

/// Where build_system caches the calibration of `config`'s models: a file
/// in config.cache_dir beside the model files, named by a key over
/// pipeline_cache_key(config), calib_per_class, the active kernel
/// backend's name (always: calibration bits differ between backends) and
/// the calibration format version.
std::string calibration_cache_path(const PipelineConfig& config);

/// Reads calibration_cache_path(config) and rebuilds the rank tables
/// (RankTable::from_accuracy) and confidence matrices
/// (ConfidenceMatrix::from_rows) bit for bit. Throws std::runtime_error
/// when the file is unreadable or fails to parse or validate (magic,
/// version, key, class count, finite values in [0, 1], checksum);
/// `system` is untouched then.
void load_calibration(TrainedSystem& system, const PipelineConfig& config);

/// Trains (or loads from cache) the models, then loads their cached
/// calibration or runs calibrate_system and caches it. A cache file that
/// fails to load is logged, recomputed and rewritten, as the model files
/// are. config.use_cache = false skips every lookup and save.
TrainedSystem build_system(const PipelineConfig& config);

/// The held-out i.i.d. test windows of one sensor (Fig. 2 style
/// evaluation): config.test_per_class per class, synthesized on demand
/// from a salt of their own (0x7E57 + sensor), apart from the training
/// and calibration draws.
nn::Samples make_test_set(const PipelineConfig& config,
                          const data::DatasetSpec& spec,
                          data::SensorLocation loc);

/// Per-class accuracy of `model` on `samples` (classes sized by
/// `num_classes`; classes with no samples report 0): the accuracy half
/// of ConfidenceMatrix::calibrate_sensor's pass. Its counts equal the
/// per-sample loop's (tests/calibration_oracles.hpp).
std::vector<double> per_class_accuracy(nn::Sequential& model,
                                       const nn::Samples& samples,
                                       int num_classes);

/// Stable cache key for the given configuration (exposed for tests).
std::string pipeline_cache_key(const PipelineConfig& config);

}  // namespace origin::core
