// Copyright 2026 The PLDP Authors.
//
// Numeric helpers shared by the DP mechanisms and the evaluation pipeline.

#ifndef PLDP_COMMON_MATH_UTILS_H_
#define PLDP_COMMON_MATH_UTILS_H_

#include <cstddef>
#include <vector>

namespace pldp {

/// Numerically stable running mean/variance (Welford). Used to aggregate
/// Monte-Carlo repetitions of an experiment.
class RunningStats {
 public:
  void Add(double x);

  size_t count() const { return count_; }
  double mean() const { return count_ > 0 ? mean_ : 0.0; }
  /// Sample variance (n-1 denominator); 0 for fewer than two samples.
  double variance() const;
  double stddev() const;
  double min() const { return count_ > 0 ? min_ : 0.0; }
  double max() const { return count_ > 0 ? max_ : 0.0; }
  /// Standard error of the mean.
  double sem() const;

 private:
  size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Kahan-compensated sum of a vector.
double StableSum(const std::vector<double>& xs);

/// Clamps x to [lo, hi].
double Clamp(double x, double lo, double hi);

}  // namespace pldp

#endif  // PLDP_COMMON_MATH_UTILS_H_
