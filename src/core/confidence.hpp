// The adaptive confidence matrix (paper §III-C/D): one weight per
// (sensor, class), initialized offline as the mean variance of the softmax
// output over held-out samples grouped by predicted class, used to weight
// the ensemble vote, and updated online by an exponential moving average
// of each sensor's agreement with clear ensemble decisions — this is the
// mechanism that personalizes Origin to an unseen user (Fig. 6).
#pragma once

#include <array>
#include <vector>

#include "data/activity.hpp"
#include "nn/model.hpp"
#include "nn/trainer.hpp"

namespace origin::core {

class ConfidenceMatrix {
 public:
  /// Uniform initial confidence for every (sensor, class).
  explicit ConfidenceMatrix(int num_classes, double initial = 0.05);

  /// Offline calibration of one sensor's row: one batched forward over
  /// its calibration samples (in fixed-size chunks), averaging
  /// Var(softmax) per *predicted* class in sample order. Classes the
  /// sensor never predicts fall back to its global mean. Throws
  /// std::invalid_argument for num_classes <= 0 or a sample label
  /// outside [0, num_classes), std::logic_error when the model predicts
  /// a class outside that range. When `accuracy`
  /// is given, the same logits also fill it with per-class accuracy
  /// (argmax of the logits against each sample's label; classes with no
  /// samples report 0) — the rank table's input, so one pass per model
  /// serves both tables. The unit of work the parallel pipeline
  /// calibration fans out per (sensor, model variant);
  /// tests/calibration_oracles.hpp keeps the per-sample loops it must
  /// match bit for bit.
  static std::vector<double> calibrate_sensor(
      nn::Sequential& model, const nn::Samples& samples, int num_classes,
      std::vector<double>* accuracy = nullptr);

  /// Assembles a matrix from per-sensor rows (as produced by
  /// calibrate_sensor) and freezes the adaptation baseline — the serial
  /// merge step after the parallel fan-out.
  static ConfidenceMatrix from_rows(
      const std::array<std::vector<double>, data::kNumSensors>& rows,
      int num_classes);

  int num_classes() const { return num_classes_; }

  double weight(data::SensorLocation sensor, int cls) const;

  /// EMA update: w <- (1 - alpha) * w + alpha * confidence.
  void update(data::SensorLocation sensor, int cls, double confidence);

  /// Consensus-aware update (the online personalization rule): when the
  /// sensor's classification agreed with the fused ensemble decision the
  /// weight moves toward its baseline (calibrated) value; when it deviated
  /// it decays toward zero. The cell settles at baseline x the sensor's
  /// agreement rate for that class, so systematically wrong (sensor,
  /// class) pairs lose influence. The sensor's instantaneous confidence
  /// is not the target: it already scales the sensor's ballot, and under
  /// input noise it would drag every agreeing cell off the calibrated
  /// scale by how noise-sensitive that sensor is, not by how reliable.
  void update_with_consensus(data::SensorLocation sensor, int cls,
                             bool agreed_with_consensus);

  double alpha() const { return alpha_; }
  void set_alpha(double alpha);

  /// Snapshots the current weights as the adaptation baseline (until
  /// then it is the constructor's uniform value): subsequent updates never
  /// push a cell below `floor_fraction` of its baseline value, so a
  /// discounted sensor keeps enough influence to re-enter the consensus
  /// when its behaviour recovers. from_rows() freezes automatically.
  void freeze_baseline(double floor_fraction = 0.25);

  /// Direct cell write (deserialization / tests).
  void set_weight(data::SensorLocation sensor, int cls, double value);

  /// Mean absolute difference to another matrix (convergence tracking).
  double distance(const ConfidenceMatrix& other) const;

 private:
  int num_classes_;
  double alpha_ = 0.05;
  std::array<std::vector<double>, data::kNumSensors> weights_;
  /// The consensus update's target and the floors' reference.
  std::array<std::vector<double>, data::kNumSensors> baseline_;
  /// Cells stay >= floor_fraction_ x baseline (0 until freeze_baseline()).
  double floor_fraction_ = 0.0;
};

}  // namespace origin::core
