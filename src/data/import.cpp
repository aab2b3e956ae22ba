#include "data/import.hpp"

#include <cerrno>
#include <climits>
#include <cmath>
#include <cstdlib>
#include <stdexcept>

#include "util/csv.hpp"

namespace origin::data {

namespace {

/// Data rows count from 1 (row 0 is the header), columns from 1 (the
/// label), so an error points at the cell a spreadsheet would show.
[[noreturn]] void bad_cell(const std::vector<std::vector<std::string>>& rows,
                           std::size_t r, std::size_t col, const char* what) {
  throw std::runtime_error(
      "load_samples_csv: " + std::string(what) + " '" + rows[r][col] +
      "' in row " + std::to_string(r) + ", column " + std::to_string(col + 1) +
      " (" + rows[0][col] + ")");
}

/// The whole cell as a base-10 int; false when any of it is not one.
bool parse_int_cell(const std::string& text, int& out) {
  char* end = nullptr;
  errno = 0;
  const long value = std::strtol(text.c_str(), &end, 10);
  if (text.empty() || *end != '\0' || errno != 0 || value < INT_MIN ||
      value > INT_MAX) {
    return false;
  }
  out = static_cast<int>(value);
  return true;
}

/// The whole cell as a finite float. Underflow toward zero is kept (the
/// value is still the nearest float); overflow, nan and inf are not.
bool parse_float_cell(const std::string& text, float& out) {
  char* end = nullptr;
  const float value = std::strtof(text.c_str(), &end);
  if (text.empty() || *end != '\0' || !std::isfinite(value)) return false;
  out = value;
  return true;
}

}  // namespace

void save_samples_csv(const std::string& path, const nn::Samples& samples,
                      const DatasetSpec& spec) {
  const std::size_t expected =
      static_cast<std::size_t>(spec.channels) *
      static_cast<std::size_t>(spec.window_len);
  util::CsvWriter writer(path);
  std::vector<std::string> header{"label"};
  for (int c = 0; c < spec.channels; ++c) {
    for (int t = 0; t < spec.window_len; ++t) {
      std::string name = "c";
      name += std::to_string(c);
      name += "_t";
      name += std::to_string(t);
      header.push_back(std::move(name));
    }
  }
  writer.write_row(header);
  for (const auto& s : samples) {
    if (s.input.size() != expected) {
      throw std::invalid_argument("save_samples_csv: window shape mismatch");
    }
    std::vector<double> row;
    row.reserve(expected + 1);
    row.push_back(static_cast<double>(s.label));
    for (std::size_t i = 0; i < s.input.size(); ++i) {
      row.push_back(static_cast<double>(s.input[i]));
    }
    writer.write_row(row);
  }
  writer.flush();
}

nn::Samples load_samples_csv(const std::string& path, const DatasetSpec& spec) {
  const auto rows = util::read_csv(path);
  if (rows.empty()) throw std::runtime_error("load_samples_csv: empty file");
  const std::size_t expected =
      static_cast<std::size_t>(spec.channels) *
      static_cast<std::size_t>(spec.window_len);
  if (rows[0].size() != expected + 1) {
    throw std::runtime_error("load_samples_csv: column count mismatch (got " +
                             std::to_string(rows[0].size()) + ", expected " +
                             std::to_string(expected + 1) + ")");
  }
  nn::Samples samples;
  samples.reserve(rows.size() - 1);
  for (std::size_t r = 1; r < rows.size(); ++r) {
    const auto& row = rows[r];
    if (row.size() != expected + 1) {
      throw std::runtime_error("load_samples_csv: ragged row " + std::to_string(r));
    }
    nn::LabeledSample sample;
    if (!parse_int_cell(row[0], sample.label)) {
      bad_cell(rows, r, 0, "bad label");
    }
    if (sample.label < 0 || sample.label >= spec.num_classes()) {
      bad_cell(rows, r, 0, "label out of range");
    }
    std::vector<float> values(expected);
    for (std::size_t i = 0; i < expected; ++i) {
      if (!parse_float_cell(row[i + 1], values[i])) {
        bad_cell(rows, r, i + 1, "bad value");
      }
    }
    sample.input = nn::Tensor({spec.channels, spec.window_len}, std::move(values));
    samples.push_back(std::move(sample));
  }
  return samples;
}

}  // namespace origin::data
