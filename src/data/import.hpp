// CSV import/export of labeled window sets. The synthetic generator is the
// default substrate, but a downstream user with real recordings (MHEALTH,
// PAMAP2, their own IMU logs) can window them offline, dump them to this
// CSV layout and train/evaluate the exact same pipeline.
//
// Layout: header `label,c<ch>_t<sample>,...`, then one row per window —
// the integer class label followed by channels x window_len floats in
// row-major (channel-major) order.
#pragma once

#include <string>

#include "data/activity.hpp"
#include "nn/trainer.hpp"

namespace origin::data {

/// Writes `samples` (all windows must share `spec`'s shape) to CSV.
/// Throws std::invalid_argument on shape mismatch, std::runtime_error on
/// I/O failure.
void save_samples_csv(const std::string& path, const nn::Samples& samples,
                      const DatasetSpec& spec);

/// Reads a CSV produced by save_samples_csv (or an external tool using the
/// same layout). Validates the column count against `spec` and label
/// bounds against spec.num_classes(). Every cell must parse whole: the
/// label as an integer, each value as a finite float. Any other cell
/// throws std::runtime_error naming its row and column.
nn::Samples load_samples_csv(const std::string& path, const DatasetSpec& spec);

}  // namespace origin::data
