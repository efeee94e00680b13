// Copyright 2026 The PLDP Authors.

#include "common/strings.h"

#include <gtest/gtest.h>

namespace pldp {
namespace {

TEST(SplitTest, BasicFields) {
  auto f = Split("a,b,c", ',');
  ASSERT_EQ(f.size(), 3u);
  EXPECT_EQ(f[0], "a");
  EXPECT_EQ(f[1], "b");
  EXPECT_EQ(f[2], "c");
}

TEST(SplitTest, EmptyInputYieldsOneEmptyField) {
  auto f = Split("", ',');
  ASSERT_EQ(f.size(), 1u);
  EXPECT_EQ(f[0], "");
}

TEST(SplitTest, AdjacentSeparators) {
  auto f = Split("a,,b,", ',');
  ASSERT_EQ(f.size(), 4u);
  EXPECT_EQ(f[1], "");
  EXPECT_EQ(f[3], "");
}

TEST(JoinTest, RoundTripsWithSplit) {
  std::vector<std::string> parts{"x", "", "yz"};
  EXPECT_EQ(Split(Join(parts, ';'), ';'), parts);
}

TEST(JoinTest, EmptyVector) {
  EXPECT_EQ(Join({}, ','), "");
}

TEST(TrimTest, StripsBothEnds) {
  EXPECT_EQ(Trim("  hi  "), "hi");
  EXPECT_EQ(Trim("\t\nx\r "), "x");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Trim("   "), "");
  EXPECT_EQ(Trim("nowhitespace"), "nowhitespace");
}

TEST(ParseDoubleTest, ValidNumbers) {
  EXPECT_DOUBLE_EQ(ParseDouble("3.5").value(), 3.5);
  EXPECT_DOUBLE_EQ(ParseDouble("-1e3").value(), -1000.0);
  EXPECT_DOUBLE_EQ(ParseDouble("  2.25 ").value(), 2.25);
  EXPECT_DOUBLE_EQ(ParseDouble("0").value(), 0.0);
}

TEST(ParseDoubleTest, RejectsBadInput) {
  EXPECT_FALSE(ParseDouble("").ok());
  EXPECT_FALSE(ParseDouble("abc").ok());
  EXPECT_FALSE(ParseDouble("1.5x").ok());
  EXPECT_FALSE(ParseDouble("1.5 2.5").ok());
}

TEST(ParseInt64Test, ValidNumbers) {
  EXPECT_EQ(ParseInt64("42").value(), 42);
  EXPECT_EQ(ParseInt64("-7").value(), -7);
  EXPECT_EQ(ParseInt64(" 1000 ").value(), 1000);
  EXPECT_EQ(ParseInt64("9223372036854775807").value(),
            std::numeric_limits<int64_t>::max());
}

TEST(ParseInt64Test, RejectsBadInput) {
  EXPECT_FALSE(ParseInt64("").ok());
  EXPECT_FALSE(ParseInt64("12.5").ok());
  EXPECT_FALSE(ParseInt64("x12").ok());
  EXPECT_TRUE(ParseInt64("99999999999999999999").status().IsOutOfRange());
}

TEST(StrFormatTest, FormatsLikePrintf) {
  EXPECT_EQ(StrFormat("%d-%s", 5, "x"), "5-x");
  EXPECT_EQ(StrFormat("%.2f", 3.14159), "3.14");
  EXPECT_EQ(StrFormat("empty"), "empty");
  EXPECT_EQ(StrFormat("%s", ""), "");
}

TEST(StrFormatTest, LongOutput) {
  std::string big(500, 'a');
  EXPECT_EQ(StrFormat("%s", big.c_str()).size(), 500u);
}

}  // namespace
}  // namespace pldp
