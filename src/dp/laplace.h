// Copyright 2026 The PLDP Authors.
//
// The Laplace mechanism — the workhorse of the stream-DP baselines (BD, BA,
// landmark privacy), which publish noisy per-timestamp counts. Adding
// Laplace(Δ/ε) noise to a query with L1 sensitivity Δ is ε-DP (Dwork &
// Roth, 2014).

#ifndef PLDP_DP_LAPLACE_H_
#define PLDP_DP_LAPLACE_H_

#include "common/random.h"
#include "common/status.h"

namespace pldp {

/// ε-DP Laplace mechanism with fixed L1 sensitivity.
class LaplaceMechanism {
 public:
  /// `sensitivity` > 0, `epsilon` > 0.
  static StatusOr<LaplaceMechanism> Create(double sensitivity, double epsilon);

  double sensitivity() const { return sensitivity_; }
  double epsilon() const { return epsilon_; }
  /// Noise scale b = Δ/ε.
  double scale() const { return sensitivity_ / epsilon_; }

  /// value + Laplace(0, Δ/ε).
  double AddNoise(double value, Rng* rng) const;

 private:
  LaplaceMechanism(double sensitivity, double epsilon)
      : sensitivity_(sensitivity), epsilon_(epsilon) {}

  double sensitivity_;
  double epsilon_;
};

}  // namespace pldp

#endif  // PLDP_DP_LAPLACE_H_
