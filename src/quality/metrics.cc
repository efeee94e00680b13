// Copyright 2026 The PLDP Authors.

#include "quality/metrics.h"

#include <cmath>

#include "common/strings.h"

namespace pldp {

void ConfusionMatrix::Add(bool truth, bool predicted) {
  if (truth) {
    predicted ? ++tp_ : ++fn_;
  } else {
    predicted ? ++fp_ : ++tn_;
  }
}

double ConfusionMatrix::Precision() const {
  if (tp_ + fp_ == 0) return fn_ == 0 ? 1.0 : 0.0;
  return static_cast<double>(tp_) / static_cast<double>(tp_ + fp_);
}

double ConfusionMatrix::Recall() const {
  if (tp_ + fn_ == 0) return 1.0;
  return static_cast<double>(tp_) / static_cast<double>(tp_ + fn_);
}

StatusOr<double> ConfusionMatrix::Quality(double alpha) const {
  if (alpha < 0.0 || alpha > 1.0 || !std::isfinite(alpha)) {
    return Status::InvalidArgument(
        StrFormat("alpha must be in [0, 1], got %g", alpha));
  }
  return alpha * Precision() + (1.0 - alpha) * Recall();
}

std::string ConfusionMatrix::ToString() const {
  return StrFormat("tp=%llu fp=%llu fn=%llu tn=%llu prec=%.4f rec=%.4f",
                   static_cast<unsigned long long>(tp_),
                   static_cast<unsigned long long>(fp_),
                   static_cast<unsigned long long>(fn_),
                   static_cast<unsigned long long>(tn_), Precision(),
                   Recall());
}

double SheddingStats::RecallLowerBound() const {
  const uint64_t total = offered();
  if (total == 0) return 1.0;
  return static_cast<double>(admitted) / static_cast<double>(total);
}

StatusOr<double> MeanRelativeError(double q_ordinary, double q_ppm) {
  if (!(q_ordinary > 0.0) || !std::isfinite(q_ordinary)) {
    return Status::InvalidArgument(
        StrFormat("ordinary quality must be > 0, got %g", q_ordinary));
  }
  if (!std::isfinite(q_ppm)) {
    return Status::InvalidArgument("PPM quality must be finite");
  }
  return (q_ordinary - q_ppm) / q_ordinary;
}

}  // namespace pldp
