// Copyright 2026 The PLDP Authors.

#include "ppm/pattern_level.h"

#include <algorithm>

namespace pldp {

Status PatternLevelPpm::Initialize(const MechanismContext& context) {
  if (context.event_types == nullptr || context.patterns == nullptr) {
    return Status::InvalidArgument(
        "context.event_types and context.patterns must be set");
  }
  if (!(context.epsilon > 0.0)) {
    return Status::InvalidArgument("context.epsilon must be > 0");
  }
  if (context.private_patterns.empty()) {
    return Status::InvalidArgument(
        "pattern-level PPM needs at least one private pattern");
  }
  for (PatternId id : context.private_patterns) {
    if (!context.patterns->Contains(id)) {
      return Status::NotFound("private pattern id " + std::to_string(id) +
                              " not registered");
    }
  }

  set_type_count(0);
  context_ = context;
  private_ids_ = context.private_patterns;
  allocations_.clear();
  mechanisms_.clear();
  size_t longest = 0;

  for (PatternId id : private_ids_) {
    const Pattern& p = context.patterns->Get(id);
    PLDP_ASSIGN_OR_RETURN(BudgetAllocation alloc, MakeAllocation(p, context));
    if (alloc.size() != p.length()) {
      return Status::Internal("allocation size mismatch for pattern '" +
                              p.name() + "'");
    }
    PLDP_ASSIGN_OR_RETURN(auto mech,
                          PatternRandomizedResponse::FromAllocation(alloc));
    allocations_.push_back(std::move(alloc));
    mechanisms_.push_back(std::move(mech));
    longest = std::max(longest, p.length());
  }
  noisy_.assign(longest, false);
  set_type_count(context.event_types->size());
  return Status::OK();
}

Status PatternLevelPpm::Publish(const std::vector<uint32_t>& counts,
                                Rng* rng, PublishedView* view) {
  PLDP_RETURN_IF_ERROR(CheckPublishArgs(counts, view));
  if (rng == nullptr) return Status::InvalidArgument("rng must not be null");

  std::vector<bool>& presence = view->presence;
  presence.resize(counts.size());
  for (size_t t = 0; t < counts.size(); ++t) presence[t] = counts[t] > 0;

  // Independent application per private pattern, in registration order.
  for (size_t k = 0; k < private_ids_.size(); ++k) {
    const auto& elems = context_.patterns->Get(private_ids_[k]).elements();
    const PatternRandomizedResponse& rr = mechanisms_[k];
    // Perturb each element's current indicator (one RR per element, in
    // element order) before any is written back...
    for (size_t i = 0; i < elems.size(); ++i) {
      noisy_[i] = rr.mechanism(i).Perturb(presence[elems[i]], rng);
    }
    // ...then write back. When a type repeats within the pattern, the later
    // element's output wins (each element is an independent mechanism; the
    // published bit composes their outputs).
    for (size_t i = 0; i < elems.size(); ++i) {
      presence[elems[i]] = noisy_[i];
    }
  }
  return Status::OK();
}

StatusOr<BudgetAllocation> UniformPatternPpm::MakeAllocation(
    const Pattern& pattern, const MechanismContext& context) {
  return BudgetAllocation::Uniform(context.epsilon, pattern.length());
}

}  // namespace pldp
