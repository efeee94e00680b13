// Copyright 2026 The PLDP Authors.

#include "common/math_utils.h"

#include <algorithm>
#include <cmath>

namespace pldp {

void RunningStats::Add(double x) {
  if (count_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
}

double RunningStats::variance() const {
  if (count_ < 2) return 0.0;
  return m2_ / static_cast<double>(count_ - 1);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

double RunningStats::sem() const {
  if (count_ == 0) return 0.0;
  return stddev() / std::sqrt(static_cast<double>(count_));
}

double StableSum(const std::vector<double>& xs) {
  // Neumaier's improved Kahan summation: unlike classic Kahan, it also
  // compensates when the addend exceeds the running sum in magnitude.
  double sum = 0.0;
  double c = 0.0;
  for (double x : xs) {
    double t = sum + x;
    if (std::abs(sum) >= std::abs(x)) {
      c += (sum - t) + x;
    } else {
      c += (x - t) + sum;
    }
    sum = t;
  }
  return sum + c;
}

double Clamp(double x, double lo, double hi) {
  return std::max(lo, std::min(hi, x));
}

}  // namespace pldp
