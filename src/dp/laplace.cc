// Copyright 2026 The PLDP Authors.

#include "dp/laplace.h"

#include <cmath>

#include "common/strings.h"

namespace pldp {

StatusOr<LaplaceMechanism> LaplaceMechanism::Create(double sensitivity,
                                                    double epsilon) {
  if (!(sensitivity > 0.0) || !std::isfinite(sensitivity)) {
    return Status::InvalidArgument(
        StrFormat("sensitivity must be > 0, got %g", sensitivity));
  }
  if (!(epsilon > 0.0) || !std::isfinite(epsilon)) {
    return Status::InvalidArgument(
        StrFormat("epsilon must be > 0, got %g", epsilon));
  }
  return LaplaceMechanism(sensitivity, epsilon);
}

double LaplaceMechanism::AddNoise(double value, Rng* rng) const {
  return value + rng->Laplace(scale());
}

}  // namespace pldp
