// Copyright 2026 The PLDP Authors.

#include "common/csv.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

namespace pldp {
namespace {

std::string TempPath(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  return text.str();
}

TEST(CsvEncodeTest, PlainFields) {
  EXPECT_EQ(CsvEncodeRow({"a", "b", "c"}), "a,b,c");
}

TEST(CsvEncodeTest, QuotesSeparator) {
  EXPECT_EQ(CsvEncodeRow({"a,b", "c"}), "\"a,b\",c");
}

TEST(CsvEncodeTest, EscapesQuotes) {
  EXPECT_EQ(CsvEncodeRow({"say \"hi\""}), "\"say \"\"hi\"\"\"");
}

TEST(CsvEncodeTest, CustomSeparator) {
  EXPECT_EQ(CsvEncodeRow({"a", "b;c"}, ';'), "a;\"b;c\"");
}

TEST(CsvWriterTest, WritesAndReadsBack) {
  std::string path = TempPath("pldp_csv_test.csv");
  {
    CsvWriter w(path);
    ASSERT_TRUE(w.status().ok());
    ASSERT_TRUE(w.WriteRow({"h1", "h2"}).ok());
    ASSERT_TRUE(w.WriteRow({"1", "x,y"}).ok());
    ASSERT_TRUE(w.Close().ok());
  }
  EXPECT_EQ(ReadFile(path), "h1,h2\n1,\"x,y\"\n");
  std::remove(path.c_str());
}

TEST(CsvWriterTest, OpenFailureReportsIoError) {
  CsvWriter w("/nonexistent_dir_xyz/file.csv");
  EXPECT_TRUE(w.status().IsIoError());
  EXPECT_TRUE(w.WriteRow({"a"}).IsIoError());
}

}  // namespace
}  // namespace pldp
