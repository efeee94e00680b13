// Copyright 2026 The PLDP Authors.

#include "quality/report.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

namespace pldp {
namespace {

TEST(ResultTableTest, AddRowValidatesWidth) {
  ResultTable t({"a", "b"});
  EXPECT_TRUE(t.AddRow({"1", "2"}).ok());
  EXPECT_FALSE(t.AddRow({"1"}).ok());
  EXPECT_FALSE(t.AddRow({"1", "2", "3"}).ok());
  EXPECT_EQ(t.row_count(), 1u);
}

TEST(ResultTableTest, DoubleRowFormatsWithPrecision) {
  ResultTable t({"name", "x", "y"});
  ASSERT_TRUE(t.AddRow("m", {0.123456, 2.0}, 3).ok());
  std::string s = t.ToString();
  EXPECT_NE(s.find("0.123"), std::string::npos);
  EXPECT_NE(s.find("2.000"), std::string::npos);
}

TEST(ResultTableTest, ToStringAlignsColumns) {
  ResultTable t({"mech", "v"});
  ASSERT_TRUE(t.AddRow({"a", "1"}).ok());
  ASSERT_TRUE(t.AddRow({"longer_name", "2"}).ok());
  std::string s = t.ToString();
  // Header line, rule line, two rows.
  size_t lines = static_cast<size_t>(
      std::count(s.begin(), s.end(), '\n'));
  EXPECT_EQ(lines, 4u);
  // Every line after padding removal: the value column starts at the same
  // offset in both data rows.
  auto pos_a = s.find("\na ");
  auto pos_b = s.find("\nlonger_name");
  ASSERT_NE(pos_a, std::string::npos);
  ASSERT_NE(pos_b, std::string::npos);
}

TEST(ResultTableTest, WriteCsvRoundTrips) {
  ResultTable t({"h1", "h2"});
  ASSERT_TRUE(t.AddRow({"x", "1.5"}).ok());
  std::string path =
      (std::filesystem::temp_directory_path() / "pldp_table.csv").string();
  ASSERT_TRUE(t.WriteCsv(path).ok());
  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  EXPECT_EQ(text.str(), "h1,h2\nx,1.5\n");
  std::remove(path.c_str());
}

TEST(ResultTableTest, EmptyTableStillRendersHeader) {
  ResultTable t({"only"});
  std::string s = t.ToString();
  EXPECT_NE(s.find("only"), std::string::npos);
}

}  // namespace
}  // namespace pldp
