// Copyright 2026 The PLDP Authors.

#include "common/math_utils.h"

#include <gtest/gtest.h>

#include <cmath>

namespace pldp {
namespace {

TEST(RunningStatsTest, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.sem(), 0.0);
}

TEST(RunningStatsTest, SingleValue) {
  RunningStats s;
  s.Add(5.0);
  EXPECT_EQ(s.count(), 1u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.min(), 5.0);
  EXPECT_DOUBLE_EQ(s.max(), 5.0);
}

TEST(RunningStatsTest, KnownMeanAndVariance) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.Add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  // Sample variance with n-1 = 7: sum of squared devs = 32 -> 32/7.
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_NEAR(s.stddev(), std::sqrt(32.0 / 7.0), 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(RunningStatsTest, SemShrinksWithN) {
  RunningStats a;
  RunningStats b;
  for (int i = 0; i < 10; ++i) a.Add(i % 2);
  for (int i = 0; i < 1000; ++i) b.Add(i % 2);
  EXPECT_GT(a.sem(), b.sem());
}

TEST(RunningStatsTest, NumericallyStableOnLargeOffset) {
  RunningStats s;
  // Classic catastrophic-cancellation case for naive sum-of-squares.
  for (double x : {1e9 + 4, 1e9 + 7, 1e9 + 13, 1e9 + 16}) s.Add(x);
  EXPECT_NEAR(s.mean(), 1e9 + 10, 1e-3);
  EXPECT_NEAR(s.variance(), 30.0, 1e-6);
}

TEST(StableSumTest, CompensatesSmallTerms) {
  // Naive left-to-right addition loses the 1.0 entirely: (1e16 + 1) - 1e16
  // rounds to 0 or 2. Kahan compensation recovers it.
  std::vector<double> xs{1e16, 1.0, -1e16};
  EXPECT_DOUBLE_EQ(StableSum(xs), 1.0);
}

TEST(StableSumTest, EmptyIsZero) {
  EXPECT_DOUBLE_EQ(StableSum({}), 0.0);
}

TEST(ClampTest, Basic) {
  EXPECT_DOUBLE_EQ(Clamp(5.0, 0.0, 1.0), 1.0);
  EXPECT_DOUBLE_EQ(Clamp(-5.0, 0.0, 1.0), 0.0);
  EXPECT_DOUBLE_EQ(Clamp(0.5, 0.0, 1.0), 0.5);
}

}  // namespace
}  // namespace pldp
