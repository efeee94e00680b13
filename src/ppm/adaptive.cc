// Copyright 2026 The PLDP Authors.

#include "ppm/adaptive.h"

#include <algorithm>

#include "common/logging.h"
#include "quality/metrics.h"

namespace pldp {

StatusOr<double> EvaluateAllocationQuality(const BudgetAllocation& allocation,
                                           const Pattern& private_pattern,
                                           const MechanismContext& context,
                                           size_t trials, uint64_t seed) {
  if (context.history == nullptr || context.history->empty()) {
    return Status::FailedPrecondition("no historical windows to evaluate on");
  }
  if (context.target_patterns.empty()) {
    return Status::FailedPrecondition("no target patterns to score against");
  }
  if (trials == 0) return Status::InvalidArgument("trials must be > 0");

  PLDP_ASSIGN_OR_RETURN(auto mechanism,
                        PatternRandomizedResponse::FromAllocation(allocation));
  const auto& elems = private_pattern.elements();
  const size_t type_count = context.event_types->size();

  ConfusionMatrix cm;
  Rng rng(seed);
  for (size_t trial = 0; trial < trials; ++trial) {
    for (const Window& w : *context.history) {
      PublishedView true_view = TrueView(w, type_count);

      // Perturb only this private pattern's element indicators.
      std::vector<bool> indicators(elems.size());
      for (size_t i = 0; i < elems.size(); ++i) {
        indicators[i] = true_view.presence[elems[i]];
      }
      PLDP_ASSIGN_OR_RETURN(std::vector<bool> noisy,
                            mechanism.Perturb(indicators, &rng));
      PublishedView noisy_view = true_view;
      for (size_t i = 0; i < elems.size(); ++i) {
        noisy_view.presence[elems[i]] = noisy[i];
      }

      for (PatternId target : context.target_patterns) {
        const Pattern& tp = context.patterns->Get(target);
        bool truth = PatternDetectedInView(true_view, tp);
        bool predicted = PatternDetectedInView(noisy_view, tp);
        cm.Add(truth, predicted);
      }
    }
  }
  return cm.Quality(context.alpha);
}

StatusOr<BudgetAllocation> BidirectionalStepwiseSearch(
    const Pattern& private_pattern, const MechanismContext& context,
    const AdaptivePpmOptions& options) {
  const size_t m = private_pattern.length();
  // Algorithm 1 line 1: uniform initialization.
  PLDP_ASSIGN_OR_RETURN(BudgetAllocation current,
                        BudgetAllocation::Uniform(context.epsilon, m));
  if (m == 1) return current;  // nothing to redistribute

  // Line 2: step size; the paper suggests δε = m·ε/100.
  double step = options.step_epsilon > 0.0
                    ? options.step_epsilon
                    : static_cast<double>(m) * context.epsilon / 100.0;

  // Line 3: initial quality.
  PLDP_ASSIGN_OR_RETURN(
      double best_q,
      EvaluateAllocationQuality(current, private_pattern, context,
                                options.trials, options.seed));

  // Lines 4-13: keep shifting budget onto the best-scoring element while
  // quality does not decrease.
  for (size_t round = 0; round < options.max_rounds; ++round) {
    // Common random numbers: one evaluation seed per round, shared by all
    // candidates of the round, so candidate ranking is not noise-dominated.
    uint64_t round_seed = SplitMix64(options.seed + round + 1).Next();

    double round_best_q = -1.0;
    size_t round_best_i = m;
    for (size_t i = 0; i < m; ++i) {
      BudgetAllocation candidate = current;  // lines 6-9: try each element
      PLDP_RETURN_IF_ERROR(candidate.Shift(i, step));
      PLDP_ASSIGN_OR_RETURN(
          double q, EvaluateAllocationQuality(candidate, private_pattern,
                                              context, options.trials,
                                              round_seed));
      if (q > round_best_q) {
        round_best_q = q;
        round_best_i = i;
      }
    }
    // Lines 10-12: accept the winner while quality does not drop.
    if (round_best_i == m || round_best_q < best_q + options.min_improvement) {
      break;
    }
    PLDP_RETURN_IF_ERROR(current.Shift(round_best_i, step));
    best_q = round_best_q;
  }
  return current;
}

bool AdaptivePatternPpm::FallsBackToUniform(const MechanismContext& context) {
  return context.history == nullptr || context.history->empty() ||
         context.target_patterns.empty();
}

StatusOr<BudgetAllocation> AdaptivePatternPpm::MakeAllocation(
    const Pattern& pattern, const MechanismContext& context) {
  if (FallsBackToUniform(context)) {
    return BudgetAllocation::Uniform(context.epsilon, pattern.length());
  }
  return BidirectionalStepwiseSearch(pattern, context, options_);
}

void WarnIfAdaptiveFallsBack(const PrivacyMechanism& mechanism,
                             const MechanismContext& context) {
  if (dynamic_cast<const AdaptivePatternPpm*>(&mechanism) != nullptr &&
      AdaptivePatternPpm::FallsBackToUniform(context)) {
    PLDP_LOG(Warning) << "adaptive PPM: no history/targets, falling back to "
                         "uniform for every private pattern";
  }
}

}  // namespace pldp
