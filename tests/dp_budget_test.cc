// Copyright 2026 The PLDP Authors.
//
// Tests for budget allocations (including the Algorithm-1 shift move's
// invariants) and the budget accountant.

#include "dp/budget.h"

#include <gtest/gtest.h>

#include <cmath>

namespace pldp {
namespace {

TEST(BudgetAllocationTest, UniformSplitsEvenly) {
  auto a = BudgetAllocation::Uniform(3.0, 4).value();
  ASSERT_EQ(a.size(), 4u);
  for (size_t i = 0; i < a.size(); ++i) EXPECT_DOUBLE_EQ(a[i], 0.75);
  EXPECT_DOUBLE_EQ(a.Total(), 3.0);
}

TEST(BudgetAllocationTest, UniformValidatesInput) {
  EXPECT_FALSE(BudgetAllocation::Uniform(0.0, 3).ok());
  EXPECT_FALSE(BudgetAllocation::Uniform(-1.0, 3).ok());
  EXPECT_FALSE(BudgetAllocation::Uniform(1.0, 0).ok());
  EXPECT_FALSE(
      BudgetAllocation::Uniform(std::numeric_limits<double>::infinity(), 3)
          .ok());
}

TEST(BudgetAllocationTest, FromWeightsValidates) {
  EXPECT_TRUE(BudgetAllocation::FromWeights({0.5, 0.0, 1.5}).ok());
  EXPECT_FALSE(BudgetAllocation::FromWeights({}).ok());
  EXPECT_FALSE(BudgetAllocation::FromWeights({-0.1, 0.2}).ok());
  EXPECT_FALSE(BudgetAllocation::FromWeights({0.0, 0.0}).ok());
}

TEST(BudgetAllocationTest, ShiftPreservesTotal) {
  auto a = BudgetAllocation::Uniform(2.0, 4).value();
  ASSERT_TRUE(a.Shift(1, 0.2).ok());
  EXPECT_NEAR(a.Total(), 2.0, 1e-12);
  // Winner gains, others lose.
  EXPECT_GT(a[1], 0.5);
  EXPECT_LT(a[0], 0.5);
  EXPECT_LT(a[2], 0.5);
  EXPECT_LT(a[3], 0.5);
}

TEST(BudgetAllocationTest, ShiftWinnerNetGainMatchesPaperMove) {
  // Algorithm 1: winner += δε then all -= δε/m, so the winner's net gain is
  // δε(1 − 1/m) and each loser's net loss is δε/m (before clamping).
  auto a = BudgetAllocation::Uniform(4.0, 4).value();
  ASSERT_TRUE(a.Shift(0, 0.4).ok());
  EXPECT_NEAR(a[0], 1.0 + 0.4 * (1.0 - 0.25), 1e-9);
  for (size_t i = 1; i < 4; ++i) EXPECT_NEAR(a[i], 1.0 - 0.1, 1e-9);
}

TEST(BudgetAllocationTest, ShiftClampsAtZero) {
  auto a = BudgetAllocation::FromWeights({0.01, 0.99}).value();
  ASSERT_TRUE(a.Shift(1, 0.5).ok());
  EXPECT_GE(a[0], 0.0);
  EXPECT_GE(a[1], 0.0);
  EXPECT_NEAR(a.Total(), 1.0, 1e-12);
}

TEST(BudgetAllocationTest, RepeatedShiftsStayInBudgetBox) {
  auto a = BudgetAllocation::Uniform(1.0, 3).value();
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(a.Shift(static_cast<size_t>(i % 3), 0.03).ok());
    EXPECT_NEAR(a.Total(), 1.0, 1e-9);
    for (size_t j = 0; j < a.size(); ++j) {
      EXPECT_GE(a[j], 0.0);
      EXPECT_LE(a[j], 1.0 + 1e-9);
    }
  }
}

TEST(BudgetAllocationTest, ShiftValidatesArguments) {
  auto a = BudgetAllocation::Uniform(1.0, 2).value();
  EXPECT_TRUE(a.Shift(5, 0.1).IsOutOfRange());
  EXPECT_TRUE(a.Shift(0, -0.1).IsInvalidArgument());
}

TEST(BudgetAllocationTest, ScaleTo) {
  auto a = BudgetAllocation::FromWeights({1.0, 3.0}).value();
  ASSERT_TRUE(a.ScaleTo(2.0).ok());
  EXPECT_NEAR(a[0], 0.5, 1e-12);
  EXPECT_NEAR(a[1], 1.5, 1e-12);
  EXPECT_FALSE(a.ScaleTo(0.0).ok());
  EXPECT_FALSE(a.ScaleTo(-1.0).ok());
}

TEST(BudgetAllocationTest, ToStringMentionsTotal) {
  auto a = BudgetAllocation::Uniform(1.0, 2).value();
  EXPECT_NE(a.ToString().find("total"), std::string::npos);
}

TEST(BudgetAccountantTest, CreateValidates) {
  EXPECT_TRUE(BudgetAccountant::Create(1.0).ok());
  EXPECT_FALSE(BudgetAccountant::Create(0.0).ok());
  EXPECT_FALSE(BudgetAccountant::Create(-2.0).ok());
}

TEST(BudgetAccountantTest, SpendTracksRemaining) {
  auto acc = BudgetAccountant::Create(1.0).value();
  EXPECT_DOUBLE_EQ(acc.remaining(), 1.0);
  ASSERT_TRUE(acc.Spend(0.4).ok());
  EXPECT_DOUBLE_EQ(acc.spent(), 0.4);
  EXPECT_NEAR(acc.remaining(), 0.6, 1e-12);
}

TEST(BudgetAccountantTest, OverdraftRejected) {
  auto acc = BudgetAccountant::Create(1.0).value();
  ASSERT_TRUE(acc.Spend(0.8).ok());
  Status s = acc.Spend(0.3);
  EXPECT_TRUE(s.IsPrivacyBudgetExceeded());
  // Failed spend leaves state unchanged.
  EXPECT_DOUBLE_EQ(acc.spent(), 0.8);
}

TEST(BudgetAccountantTest, ExactExhaustion) {
  auto acc = BudgetAccountant::Create(1.0).value();
  ASSERT_TRUE(acc.Spend(1.0).ok());
  EXPECT_DOUBLE_EQ(acc.remaining(), 0.0);
  EXPECT_TRUE(acc.Spend(0.001).IsPrivacyBudgetExceeded());
}

TEST(BudgetAccountantTest, ManySmallSpendsTolerateRounding) {
  auto acc = BudgetAccountant::Create(1.0).value();
  // 10 x 0.1 accumulates floating-point error; the tolerance must absorb it.
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(acc.Spend(0.1).ok()) << "spend " << i;
  }
  EXPECT_NEAR(acc.remaining(), 0.0, 1e-12);
}

TEST(BudgetAccountantTest, SpendValidatesInput) {
  auto acc = BudgetAccountant::Create(1.0).value();
  EXPECT_TRUE(acc.Spend(0.0).IsInvalidArgument());
  EXPECT_TRUE(acc.Spend(-0.5).IsInvalidArgument());
}

}  // namespace
}  // namespace pldp
