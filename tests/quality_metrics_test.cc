// Copyright 2026 The PLDP Authors.
//
// Tests for the paper's quality metrics (eqs. 1-4).

#include "quality/metrics.h"

#include <gtest/gtest.h>

namespace pldp {
namespace {

TEST(ConfusionMatrixTest, AddRoutesToCells) {
  ConfusionMatrix cm;
  cm.Add(true, true);    // TP
  cm.Add(true, false);   // FN
  cm.Add(false, true);   // FP
  cm.Add(false, false);  // TN
  EXPECT_EQ(cm.tp(), 1u);
  EXPECT_EQ(cm.fn(), 1u);
  EXPECT_EQ(cm.fp(), 1u);
  EXPECT_EQ(cm.tn(), 1u);
  EXPECT_EQ(cm.total(), 4u);
}

TEST(ConfusionMatrixTest, PrecisionRecallKnownValues) {
  ConfusionMatrix cm;
  for (int i = 0; i < 6; ++i) cm.Add(true, true);    // TP=6
  for (int i = 0; i < 2; ++i) cm.Add(false, true);   // FP=2
  for (int i = 0; i < 4; ++i) cm.Add(true, false);   // FN=4
  EXPECT_DOUBLE_EQ(cm.Precision(), 0.75);  // 6/8
  EXPECT_DOUBLE_EQ(cm.Recall(), 0.6);      // 6/10
}

TEST(ConfusionMatrixTest, DegenerateCases) {
  // No predictions, nothing to find: perfect by convention.
  ConfusionMatrix silent_empty;
  silent_empty.Add(false, false);
  EXPECT_DOUBLE_EQ(silent_empty.Precision(), 1.0);
  EXPECT_DOUBLE_EQ(silent_empty.Recall(), 1.0);

  // No predictions, positives existed: precision 0 convention, recall 0.
  ConfusionMatrix silent_missing;
  silent_missing.Add(true, false);
  EXPECT_DOUBLE_EQ(silent_missing.Precision(), 0.0);
  EXPECT_DOUBLE_EQ(silent_missing.Recall(), 0.0);

  // Fully empty matrix.
  ConfusionMatrix empty;
  EXPECT_DOUBLE_EQ(empty.Precision(), 1.0);
  EXPECT_DOUBLE_EQ(empty.Recall(), 1.0);
}

TEST(ConfusionMatrixTest, QualityInterpolatesPrecisionRecall) {
  ConfusionMatrix cm;
  for (int i = 0; i < 6; ++i) cm.Add(true, true);
  for (int i = 0; i < 2; ++i) cm.Add(false, true);
  for (int i = 0; i < 4; ++i) cm.Add(true, false);
  EXPECT_DOUBLE_EQ(cm.Quality(1.0).value(), cm.Precision());
  EXPECT_DOUBLE_EQ(cm.Quality(0.0).value(), cm.Recall());
  EXPECT_DOUBLE_EQ(cm.Quality(0.5).value(),
                   0.5 * cm.Precision() + 0.5 * cm.Recall());
}

TEST(ConfusionMatrixTest, QualityValidatesAlpha) {
  ConfusionMatrix cm;
  EXPECT_FALSE(cm.Quality(-0.1).ok());
  EXPECT_FALSE(cm.Quality(1.1).ok());
}

TEST(ConfusionMatrixTest, ToStringContainsCounts) {
  ConfusionMatrix cm;
  cm.Add(true, true);
  std::string s = cm.ToString();
  EXPECT_NE(s.find("tp=1"), std::string::npos);
}

TEST(MeanRelativeErrorTest, PaperFormula) {
  EXPECT_DOUBLE_EQ(MeanRelativeError(1.0, 0.8).value(), 0.2);
  EXPECT_DOUBLE_EQ(MeanRelativeError(0.8, 0.8).value(), 0.0);
  // Negative MRE (mechanism outperformed ground truth by chance) kept.
  EXPECT_DOUBLE_EQ(MeanRelativeError(0.5, 0.6).value(), -0.2);
}

TEST(MeanRelativeErrorTest, ValidatesInputs) {
  EXPECT_FALSE(MeanRelativeError(0.0, 0.5).ok());
  EXPECT_FALSE(MeanRelativeError(-1.0, 0.5).ok());
  EXPECT_FALSE(
      MeanRelativeError(1.0, std::numeric_limits<double>::quiet_NaN()).ok());
}

/// Q(α) is monotone in α when precision > recall, and constant when equal.
class QualityAlphaSweep : public ::testing::TestWithParam<double> {};

TEST_P(QualityAlphaSweep, QualityIsConvexCombination) {
  double alpha = GetParam();
  ConfusionMatrix cm;
  for (int i = 0; i < 9; ++i) cm.Add(true, true);
  cm.Add(false, true);              // precision 0.9
  for (int i = 0; i < 6; ++i) cm.Add(true, false);  // recall 0.6
  double q = cm.Quality(alpha).value();
  EXPECT_GE(q, 0.6 - 1e-12);
  EXPECT_LE(q, 0.9 + 1e-12);
  EXPECT_NEAR(q, alpha * 0.9 + (1 - alpha) * 0.6, 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Alphas, QualityAlphaSweep,
                         ::testing::Values(0.0, 0.25, 0.5, 0.75, 1.0));

}  // namespace
}  // namespace pldp
