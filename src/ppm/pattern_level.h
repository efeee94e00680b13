// Copyright 2026 The PLDP Authors.
//
// Shared machinery of the two pattern-level PPMs (paper §V).
//
// Both mechanisms apply per-element randomized response to the existence
// indicators of private-pattern member types and leave every other type
// untouched; they differ only in how the pattern budget ε is split across
// elements. `PatternLevelPpm` implements the publishing path given
// per-pattern `BudgetAllocation`s supplied by the subclass.
//
// Overlapping private patterns (shared element types) receive independent
// mechanism applications, in registration order — the paper notes this only
// adds noise and never weakens the guarantee.

#ifndef PLDP_PPM_PATTERN_LEVEL_H_
#define PLDP_PPM_PATTERN_LEVEL_H_

#include <vector>

#include "dp/budget.h"
#include "dp/randomized_response.h"
#include "ppm/mechanism.h"

namespace pldp {

/// Base class: randomized response on private-pattern indicators.
class PatternLevelPpm : public PrivacyMechanism {
 public:
  Status Initialize(const MechanismContext& context) override;

  Status Publish(const std::vector<uint32_t>& counts, Rng* rng,
                 PublishedView* view) override;

  void Reset() override {}  // stateless across windows

  /// The allocation in effect for the i-th private pattern (after
  /// Initialize). Exposed for tests and the budget-distribution bench.
  const BudgetAllocation& allocation(size_t i) const {
    return allocations_[i];
  }
  size_t private_pattern_count() const { return allocations_.size(); }

  /// Per-pattern total ε actually configured (Theorem 1 sum).
  double PatternEpsilon(size_t i) const { return allocations_[i].Total(); }

 protected:
  /// Subclass hook: produce the budget split for one private pattern.
  /// `pattern` is the pattern to protect; `context` carries history etc.
  virtual StatusOr<BudgetAllocation> MakeAllocation(
      const Pattern& pattern, const MechanismContext& context) = 0;

  const MechanismContext* context() const { return &context_; }

 private:
  MechanismContext context_;
  std::vector<PatternId> private_ids_;
  std::vector<BudgetAllocation> allocations_;
  std::vector<PatternRandomizedResponse> mechanisms_;
  /// Per-window scratch: one pattern's perturbed element bits, sized to
  /// the longest private pattern.
  std::vector<bool> noisy_;
};

/// Uniform pattern-level PPM (paper §V-A): ε_i = ε / m.
class UniformPatternPpm final : public PatternLevelPpm {
 public:
  std::string name() const override { return "uniform"; }

 protected:
  StatusOr<BudgetAllocation> MakeAllocation(
      const Pattern& pattern, const MechanismContext& context) override;
};

}  // namespace pldp

#endif  // PLDP_PPM_PATTERN_LEVEL_H_
