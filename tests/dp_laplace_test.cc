// Copyright 2026 The PLDP Authors.

#include "dp/laplace.h"

#include <gtest/gtest.h>

#include <cmath>

#include "common/random.h"

namespace pldp {
namespace {

TEST(LaplaceMechanismTest, CreateValidates) {
  EXPECT_TRUE(LaplaceMechanism::Create(1.0, 1.0).ok());
  EXPECT_FALSE(LaplaceMechanism::Create(0.0, 1.0).ok());
  EXPECT_FALSE(LaplaceMechanism::Create(1.0, 0.0).ok());
  EXPECT_FALSE(LaplaceMechanism::Create(-1.0, 1.0).ok());
  EXPECT_FALSE(LaplaceMechanism::Create(1.0, -1.0).ok());
}

TEST(LaplaceMechanismTest, ScaleIsSensitivityOverEpsilon) {
  auto m = LaplaceMechanism::Create(2.0, 0.5).value();
  EXPECT_DOUBLE_EQ(m.scale(), 4.0);
  EXPECT_DOUBLE_EQ(m.sensitivity(), 2.0);
  EXPECT_DOUBLE_EQ(m.epsilon(), 0.5);
}

TEST(LaplaceMechanismTest, NoiseIsZeroMeanWithCorrectSpread) {
  auto m = LaplaceMechanism::Create(1.0, 0.5).value();  // scale 2
  Rng rng(42);
  const int n = 200000;
  double sum = 0;
  double abs_sum = 0;
  for (int i = 0; i < n; ++i) {
    double noisy = m.AddNoise(10.0, &rng);
    sum += noisy - 10.0;
    abs_sum += std::abs(noisy - 10.0);
  }
  EXPECT_NEAR(sum / n, 0.0, 0.05);
  EXPECT_NEAR(abs_sum / n, 2.0, 0.05);  // E|Laplace(b)| = b
}

TEST(LaplaceMechanismTest, EmpiricalIntervalMatchesAnalytic) {
  auto m = LaplaceMechanism::Create(1.0, 2.0).value();
  Rng rng(7);
  const int n = 100000;
  int in_interval = 0;
  for (int i = 0; i < n; ++i) {
    double x = m.AddNoise(3.0, &rng);
    if (x > 2.5 && x < 4.0) ++in_interval;
  }
  // Pr[X in (2.5, 4)] for X ~ Laplace(3, b): the CDF difference.
  const double b = m.scale();
  const double analytic =
      (1.0 - 0.5 * std::exp(-1.0 / b)) - 0.5 * std::exp(-0.5 / b);
  EXPECT_NEAR(static_cast<double>(in_interval) / n, analytic, 0.01);
}

TEST(LaplaceMechanismTest, EmpiricalPrivacyLossBoundedByEpsilon) {
  // The defining DP property: for neighboring values v, v' with
  // |v - v'| <= sensitivity, the density ratio anywhere is <= e^ε.
  // Check on a discretized histogram.
  const double eps = 1.0;
  auto m = LaplaceMechanism::Create(1.0, eps).value();
  Rng rng(99);
  const int n = 400000;
  const int bins = 20;
  const double lo = -5.0, hi = 7.0;
  std::vector<double> h0(bins, 0.0), h1(bins, 0.0);
  for (int i = 0; i < n; ++i) {
    double a = m.AddNoise(0.0, &rng);
    double b = m.AddNoise(1.0, &rng);
    auto bin = [&](double x) {
      int k = static_cast<int>((x - lo) / (hi - lo) * bins);
      return std::min(std::max(k, 0), bins - 1);
    };
    h0[static_cast<size_t>(bin(a))] += 1.0;
    h1[static_cast<size_t>(bin(b))] += 1.0;
  }
  for (int k = 0; k < bins; ++k) {
    if (h0[static_cast<size_t>(k)] < 500 || h1[static_cast<size_t>(k)] < 500) {
      continue;  // skip noisy tails
    }
    double ratio = h0[static_cast<size_t>(k)] / h1[static_cast<size_t>(k)];
    EXPECT_LT(std::abs(std::log(ratio)), eps + 0.15) << "bin " << k;
  }
}

}  // namespace
}  // namespace pldp
