// Copyright 2026 The PLDP Authors.
//
// Tests for the deterministic RNG: reproducibility, ranges, and
// distributional sanity of every sampler the library depends on.

#include "common/random.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <vector>

namespace pldp {
namespace {

TEST(SplitMix64Test, DeterministicSequence) {
  SplitMix64 a(123);
  SplitMix64 b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(SplitMix64Test, DifferentSeedsDiffer) {
  SplitMix64 a(1);
  SplitMix64 b(2);
  EXPECT_NE(a.Next(), b.Next());
}

TEST(RngTest, SameSeedSameStream) {
  Rng a(99);
  Rng b(99);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_EQ(a.NextUint64(), b.NextUint64());
  }
}

TEST(RngTest, DifferentSeedsDifferentStreams) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.NextUint64() == b.NextUint64()) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(RngTest, UniformUint64RespectsBound) {
  Rng rng(7);
  for (uint64_t bound : {1ull, 2ull, 3ull, 10ull, 1000ull}) {
    for (int i = 0; i < 1000; ++i) {
      EXPECT_LT(rng.UniformUint64(bound), bound);
    }
  }
}

TEST(RngTest, UniformUint64BoundOneAlwaysZero) {
  Rng rng(7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(rng.UniformUint64(1), 0u);
  }
}

TEST(RngTest, UniformUint64CoversAllResidues) {
  Rng rng(11);
  std::set<uint64_t> seen;
  for (int i = 0; i < 2000; ++i) seen.insert(rng.UniformUint64(7));
  EXPECT_EQ(seen.size(), 7u);
}

TEST(RngTest, UniformDoubleInUnitInterval) {
  Rng rng(13);
  for (int i = 0; i < 10000; ++i) {
    double d = rng.UniformDouble();
    ASSERT_GE(d, 0.0);
    ASSERT_LT(d, 1.0);
  }
}

TEST(RngTest, UniformDoubleMeanNearHalf) {
  Rng rng(17);
  double sum = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.UniformDouble();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(RngTest, BernoulliEdgeCases) {
  Rng rng(19);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.Bernoulli(0.0));
    EXPECT_TRUE(rng.Bernoulli(1.0));
    EXPECT_FALSE(rng.Bernoulli(-0.5));
    EXPECT_TRUE(rng.Bernoulli(1.5));
  }
}

TEST(RngTest, BernoulliRateMatchesP) {
  Rng rng(23);
  const int n = 100000;
  for (double p : {0.1, 0.25, 0.5, 0.9}) {
    int hits = 0;
    for (int i = 0; i < n; ++i) hits += rng.Bernoulli(p);
    EXPECT_NEAR(static_cast<double>(hits) / n, p, 0.01) << "p=" << p;
  }
}

TEST(RngTest, LaplaceZeroMeanAndScale) {
  Rng rng(29);
  const int n = 200000;
  const double scale = 2.0;
  double sum = 0;
  double abs_sum = 0;
  for (int i = 0; i < n; ++i) {
    double x = rng.Laplace(scale);
    sum += x;
    abs_sum += std::abs(x);
  }
  // E[X] = 0, E[|X|] = scale for Laplace(0, scale).
  EXPECT_NEAR(sum / n, 0.0, 0.05);
  EXPECT_NEAR(abs_sum / n, scale, 0.05);
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng parent(47);
  Rng child = parent.Fork();
  // The child stream must differ from the parent's continuation.
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (parent.NextUint64() == child.NextUint64()) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(RngTest, ForkIsDeterministic) {
  Rng a(53);
  Rng b(53);
  Rng fa = a.Fork();
  Rng fb = b.Fork();
  for (int i = 0; i < 100; ++i) EXPECT_EQ(fa.NextUint64(), fb.NextUint64());
}

TEST(RngTest, ShuffleIsPermutation) {
  Rng rng(59);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> orig = v;
  rng.Shuffle(&v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, orig);
}

TEST(RngTest, ShuffleEmptyAndSingleton) {
  Rng rng(61);
  std::vector<int> empty;
  rng.Shuffle(&empty);
  EXPECT_TRUE(empty.empty());
  std::vector<int> one{42};
  rng.Shuffle(&one);
  EXPECT_EQ(one, std::vector<int>{42});
}

TEST(RngTest, SampleWithoutReplacementDistinct) {
  Rng rng(67);
  for (int trial = 0; trial < 50; ++trial) {
    auto s = rng.SampleWithoutReplacement(20, 5);
    ASSERT_EQ(s.size(), 5u);
    std::set<size_t> uniq(s.begin(), s.end());
    EXPECT_EQ(uniq.size(), 5u);
    for (size_t x : s) EXPECT_LT(x, 20u);
  }
}

TEST(RngTest, SampleWithoutReplacementFullSet) {
  Rng rng(71);
  auto s = rng.SampleWithoutReplacement(5, 5);
  std::set<size_t> uniq(s.begin(), s.end());
  EXPECT_EQ(uniq.size(), 5u);
}

TEST(RngTest, SampleWithoutReplacementKExceedsN) {
  Rng rng(73);
  auto s = rng.SampleWithoutReplacement(3, 10);
  EXPECT_EQ(s.size(), 3u);
}

TEST(RngTest, SampleIsApproximatelyUniform) {
  Rng rng(79);
  std::vector<int> counts(10, 0);
  const int trials = 20000;
  for (int i = 0; i < trials; ++i) {
    for (size_t x : rng.SampleWithoutReplacement(10, 3)) ++counts[x];
  }
  // Each index appears with probability 3/10.
  for (int c : counts) {
    EXPECT_NEAR(static_cast<double>(c) / trials, 0.3, 0.02);
  }
}

/// Determinism holds across samplers, parameterized over seeds.
class RngSeedSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RngSeedSweep, FullStreamReproducible) {
  Rng a(GetParam());
  Rng b(GetParam());
  for (int i = 0; i < 200; ++i) {
    ASSERT_EQ(a.UniformDouble(), b.UniformDouble());
    ASSERT_EQ(a.Laplace(1.5), b.Laplace(1.5));
    ASSERT_EQ(a.Bernoulli(0.3), b.Bernoulli(0.3));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RngSeedSweep,
                         ::testing::Values(0ull, 1ull, 42ull,
                                           0xdeadbeefull,
                                           0xffffffffffffffffull));

}  // namespace
}  // namespace pldp
