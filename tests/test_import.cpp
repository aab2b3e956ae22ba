#include "data/import.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "data/dataset.hpp"

namespace origin::data {
namespace {

std::string temp_csv(const char* name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

class ImportTest : public ::testing::Test {
 protected:
  DatasetSpec spec = dataset_spec(DatasetKind::MHealthLike);
};

TEST_F(ImportTest, RoundtripPreservesEverything) {
  const auto samples =
      make_training_set(spec, SensorLocation::Chest, 4, reference_user(), 1);
  const auto path = temp_csv("origin_import_rt.csv");
  save_samples_csv(path, samples, spec);
  const auto loaded = load_samples_csv(path, spec);
  ASSERT_EQ(loaded.size(), samples.size());
  for (std::size_t i = 0; i < samples.size(); ++i) {
    ASSERT_EQ(loaded[i].label, samples[i].label);
    ASSERT_EQ(loaded[i].input.shape(), samples[i].input.shape());
    for (std::size_t j = 0; j < samples[i].input.size(); ++j) {
      ASSERT_NEAR(loaded[i].input[j], samples[i].input[j], 1e-5f);
    }
  }
  std::filesystem::remove(path);
}

TEST_F(ImportTest, EmptySetRoundtrips) {
  const auto path = temp_csv("origin_import_empty.csv");
  save_samples_csv(path, {}, spec);
  EXPECT_TRUE(load_samples_csv(path, spec).empty());
  std::filesystem::remove(path);
}

TEST_F(ImportTest, SaveRejectsWrongShape) {
  nn::Samples bad;
  bad.push_back({nn::Tensor({2, 3}), 0});
  EXPECT_THROW(save_samples_csv(temp_csv("origin_import_bad.csv"), bad, spec),
               std::invalid_argument);
}

TEST_F(ImportTest, LoadRejectsWrongColumnCount) {
  const auto pamap = dataset_spec(DatasetKind::Pamap2Like);
  auto narrow = spec;
  narrow.window_len = 32;  // fewer columns than the file will have
  const auto samples =
      make_training_set(pamap, SensorLocation::Chest, 2, reference_user(), 2);
  const auto path = temp_csv("origin_import_cols.csv");
  save_samples_csv(path, samples, pamap);
  EXPECT_THROW(load_samples_csv(path, narrow), std::runtime_error);
  std::filesystem::remove(path);
}

TEST_F(ImportTest, LoadRejectsOutOfRangeLabel) {
  // Write with the 6-class spec, read with the 5-class spec: class 5 rows
  // must be rejected.
  nn::Samples samples;
  samples.push_back({nn::Tensor({spec.channels, spec.window_len}), 5});
  const auto path = temp_csv("origin_import_label.csv");
  save_samples_csv(path, samples, spec);
  auto pamap = dataset_spec(DatasetKind::Pamap2Like);
  EXPECT_THROW(load_samples_csv(path, pamap), std::runtime_error);
  std::filesystem::remove(path);
}

TEST_F(ImportTest, LoadMissingFileThrows) {
  EXPECT_THROW(load_samples_csv("/no/such/windows.csv", spec),
               std::runtime_error);
}

TEST_F(ImportTest, LoadedSamplesAreTrainable) {
  const auto samples =
      make_training_set(spec, SensorLocation::LeftAnkle, 3, reference_user(), 3);
  const auto path = temp_csv("origin_import_train.csv");
  save_samples_csv(path, samples, spec);
  const auto loaded = load_samples_csv(path, spec);
  // The loaded tensors must have the simulator's expected rank-2 shape.
  EXPECT_EQ(loaded.front().input.rank(), 2);
  EXPECT_EQ(loaded.front().input.dim(0), spec.channels);
  std::filesystem::remove(path);
}

/// Writes a one-row CSV in `spec`'s layout whose cells are all "0.5"
/// except `label` and the value at flat index `at`, which is `cell`.
std::string csv_with_cell(const DatasetSpec& spec, const std::string& name,
                          const std::string& label, std::size_t at,
                          const std::string& cell) {
  nn::Samples samples;
  samples.push_back({nn::Tensor({spec.channels, spec.window_len}), 0});
  samples.push_back({nn::Tensor({spec.channels, spec.window_len}), 1});
  const auto path = temp_csv(name.c_str());
  save_samples_csv(path, samples, spec);
  // Rewrite the second data row by hand.
  std::ifstream in(path);
  std::string header, first;
  std::getline(in, header);
  std::getline(in, first);
  in.close();
  const std::size_t expected = static_cast<std::size_t>(spec.channels) *
                               static_cast<std::size_t>(spec.window_len);
  std::ofstream outf(path, std::ios::trunc);
  outf << header << "\n" << first << "\n" << label;
  for (std::size_t i = 0; i < expected; ++i) {
    outf << "," << (i == at ? cell : std::string("0.5"));
  }
  outf << "\n";
  return path;
}

/// The load must fail with a runtime_error whose message names `row` and
/// `column`.
void expect_cell_rejected(const DatasetSpec& spec, const std::string& path,
                          const std::string& row, const std::string& column) {
  try {
    load_samples_csv(path, spec);
    ADD_FAILURE() << "loaded " << path;
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("row " + row + ","), std::string::npos) << what;
    EXPECT_NE(what.find("column " + column + " "), std::string::npos) << what;
  }
  std::filesystem::remove(path);
}

TEST_F(ImportTest, LoadRejectsNonIntegerLabel) {
  // stoi used to read "1.9" as 1 and "3abc" as 3.
  for (const char* label : {"1.9", "3abc", "", " ", "1e0", "99999999999"}) {
    expect_cell_rejected(spec,
                         csv_with_cell(spec, "origin_import_badlabel.csv",
                                       label, 0, "0.5"),
                         "2", "1");
  }
}

TEST_F(ImportTest, LoadRejectsNonFiniteOrUnparsableValues) {
  // column = flat index + 2 (the label is column 1).
  const std::vector<std::pair<std::string, std::size_t>> cases = {
      {"nan", 0},   {"inf", 5},  {"-inf", 17}, {"1e50", 100},
      {"0.5x", 3},  {"", 7},     {"--1", 383}, {"1e39", 64}};
  for (const auto& [cell, at] : cases) {
    expect_cell_rejected(
        spec, csv_with_cell(spec, "origin_import_badvalue.csv", "1", at, cell),
        "2", std::to_string(at + 2));
  }
}

TEST_F(ImportTest, LoadKeepsWholeCellValues) {
  // Signs, exponents and values that underflow toward zero still load.
  const auto path =
      csv_with_cell(spec, "origin_import_okvalue.csv", "+1", 9, "-2.5e-3");
  const auto loaded = load_samples_csv(path, spec);
  ASSERT_EQ(loaded.size(), 2u);
  EXPECT_EQ(loaded[1].label, 1);
  EXPECT_EQ(loaded[1].input[9], -2.5e-3f);
  EXPECT_EQ(loaded[1].input[0], 0.5f);
  std::filesystem::remove(path);
  const auto tiny =
      csv_with_cell(spec, "origin_import_tiny.csv", "1", 2, "1e-50");
  EXPECT_EQ(load_samples_csv(tiny, spec)[1].input[2], 0.0f);
  std::filesystem::remove(tiny);
}

}  // namespace
}  // namespace origin::data
