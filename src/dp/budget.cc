// Copyright 2026 The PLDP Authors.

#include "dp/budget.h"

#include <cmath>

#include "common/math_utils.h"
#include "common/strings.h"

namespace pldp {

StatusOr<BudgetAllocation> BudgetAllocation::Uniform(double total_epsilon,
                                                     size_t elements) {
  if (!(total_epsilon > 0.0) || !std::isfinite(total_epsilon)) {
    return Status::InvalidArgument("total epsilon must be positive/finite");
  }
  if (elements == 0) {
    return Status::InvalidArgument("allocation needs at least one element");
  }
  return BudgetAllocation(std::vector<double>(
      elements, total_epsilon / static_cast<double>(elements)));
}

StatusOr<BudgetAllocation> BudgetAllocation::FromWeights(
    std::vector<double> epsilons) {
  if (epsilons.empty()) {
    return Status::InvalidArgument("allocation needs at least one element");
  }
  double total = 0.0;
  for (double e : epsilons) {
    if (e < 0.0 || !std::isfinite(e)) {
      return Status::InvalidArgument("per-element epsilon must be >= 0");
    }
    total += e;
  }
  if (!(total > 0.0)) {
    return Status::InvalidArgument("total epsilon must be positive");
  }
  return BudgetAllocation(std::move(epsilons));
}

double BudgetAllocation::Total() const { return StableSum(epsilons_); }

Status BudgetAllocation::Shift(size_t winner, double delta) {
  if (winner >= epsilons_.size()) {
    return Status::OutOfRange("winner index out of range");
  }
  if (delta < 0.0 || !std::isfinite(delta)) {
    return Status::InvalidArgument("shift delta must be >= 0");
  }
  const double total_before = Total();
  const double m = static_cast<double>(epsilons_.size());
  // Algorithm 1, line 7/11: winner += δε, every element -= δε/m. The winner
  // participates in the subtraction too, so its net gain is δε(1 − 1/m).
  epsilons_[winner] += delta;
  for (double& e : epsilons_) e -= delta / m;
  // Clamp to the feasible region [0, ε] and restore the exact total.
  for (double& e : epsilons_) e = Clamp(e, 0.0, total_before);
  return ScaleTo(total_before);
}

Status BudgetAllocation::ScaleTo(double new_total) {
  if (!(new_total > 0.0) || !std::isfinite(new_total)) {
    return Status::InvalidArgument("new total must be positive/finite");
  }
  double cur = Total();
  if (!(cur > 0.0)) {
    return Status::FailedPrecondition("cannot rescale an all-zero allocation");
  }
  double f = new_total / cur;
  for (double& e : epsilons_) e *= f;
  return Status::OK();
}

std::string BudgetAllocation::ToString() const {
  std::string out = "[";
  for (size_t i = 0; i < epsilons_.size(); ++i) {
    if (i > 0) out += ", ";
    out += StrFormat("%.4f", epsilons_[i]);
  }
  out += StrFormat("] (total %.4f)", Total());
  return out;
}

StatusOr<BudgetAccountant> BudgetAccountant::Create(double total_epsilon) {
  if (!(total_epsilon > 0.0) || !std::isfinite(total_epsilon)) {
    return Status::InvalidArgument("total epsilon must be positive/finite");
  }
  return BudgetAccountant(total_epsilon);
}

Status BudgetAccountant::Spend(double epsilon) {
  if (!(epsilon > 0.0) || !std::isfinite(epsilon)) {
    return Status::InvalidArgument("spend must be positive/finite");
  }
  // Tolerate 1e-9 relative slack: uniform splits ε/m accumulate rounding.
  const double tolerance = total_ * 1e-9;
  if (spent_ + epsilon > total_ + tolerance) {
    return Status::PrivacyBudgetExceeded(
        StrFormat("spend %.6g exceeds remaining %.6g of total %.6g", epsilon,
                  remaining(), total_));
  }
  spent_ += epsilon;
  return Status::OK();
}

}  // namespace pldp
