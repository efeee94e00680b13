// Copyright 2026 The PLDP Authors.
//
// Privacy budgets and their allocation across pattern elements.
//
// Pattern-level DP assigns one total budget ε to a private pattern
// P = seq(e_1..e_m) and splits it over the m elements:
// Σ ε_i = ε (Theorem 1). `BudgetAllocation` is that split — the object the
// uniform PPM constructs directly and the adaptive PPM optimizes.
// `BudgetAccountant` tracks spending so a mechanism cannot silently exceed
// its budget.

#ifndef PLDP_DP_BUDGET_H_
#define PLDP_DP_BUDGET_H_

#include <string>
#include <vector>

#include "common/status.h"

namespace pldp {

/// A split of a total privacy budget over pattern elements.
class BudgetAllocation {
 public:
  BudgetAllocation() = default;

  /// Even split: ε_i = ε / m (the uniform PPM's distribution, Fig. 3).
  static StatusOr<BudgetAllocation> Uniform(double total_epsilon,
                                            size_t elements);

  /// Explicit split; entries must be >= 0 and sum to a positive value.
  static StatusOr<BudgetAllocation> FromWeights(std::vector<double> epsilons);

  size_t size() const { return epsilons_.size(); }
  double operator[](size_t i) const { return epsilons_[i]; }
  const std::vector<double>& epsilons() const { return epsilons_; }

  /// Total ε = Σ ε_i.
  double Total() const;

  /// Moves `delta` budget onto element `winner`, taking delta/m from every
  /// element (the paper's Algorithm 1 step 7/11 move), then clamps to
  /// [0, total] and rescales so the total is exactly preserved.
  Status Shift(size_t winner, double delta);

  /// Rescales so that Total() == new_total (requires current total > 0).
  Status ScaleTo(double new_total);

  std::string ToString() const;

 private:
  explicit BudgetAllocation(std::vector<double> epsilons)
      : epsilons_(std::move(epsilons)) {}

  std::vector<double> epsilons_;
};

/// Tracks cumulative spending against a fixed total budget.
class BudgetAccountant {
 public:
  /// `total_epsilon` must be > 0.
  static StatusOr<BudgetAccountant> Create(double total_epsilon);

  double total() const { return total_; }
  double spent() const { return spent_; }
  double remaining() const { return total_ - spent_; }

  /// Records a spend of `epsilon` (> 0). Returns PrivacyBudgetExceeded and
  /// leaves the accountant unchanged if it would overdraw (with a small
  /// relative tolerance for floating-point accumulation).
  Status Spend(double epsilon);

 private:
  explicit BudgetAccountant(double total) : total_(total) {}

  double total_ = 0.0;
  double spent_ = 0.0;
};

}  // namespace pldp

#endif  // PLDP_DP_BUDGET_H_
