// Copyright 2026 The PLDP Authors.

#include "ppm/w_event.h"

#include <algorithm>
#include <cmath>

#include "dp/budget_conversion.h"

namespace pldp {

namespace {
/// Longest private pattern = the span used in the budget conversion.
size_t MaxPrivateSpan(const MechanismContext& context) {
  size_t span = 1;
  for (PatternId id : context.private_patterns) {
    span = std::max(span, context.patterns->Get(id).length());
  }
  return span;
}
}  // namespace

Status WEventPpm::Initialize(const MechanismContext& context) {
  if (context.event_types == nullptr || context.patterns == nullptr) {
    return Status::InvalidArgument(
        "context.event_types and context.patterns must be set");
  }
  if (!(context.epsilon > 0.0)) {
    return Status::InvalidArgument("context.epsilon must be > 0");
  }
  if (options_.w == 0) return Status::InvalidArgument("w must be > 0");

  context_ = context;

  size_t span = MaxPrivateSpan(context);
  PLDP_ASSIGN_OR_RETURN(
      native_epsilon_,
      WEventBudgetForPatternLevel(context.epsilon, options_.w, span));
  // Kellaris split: half for the dissimilarity tests, half for publication.
  budget_unit_ = native_epsilon_ / (2.0 * static_cast<double>(options_.w));
  dissim_epsilon_per_ts_ = budget_unit_;

  set_type_count(context.event_types->size());
  Reset();
  return Status::OK();
}

void WEventPpm::Reset() {
  last_published_.assign(type_count(), 0.0);
  has_published_ = false;
  timestamp_ = 0;
  publication_count_ = 0;
}

Status WEventPpm::Publish(const std::vector<uint32_t>& counts, Rng* rng,
                          PublishedView* view) {
  PLDP_RETURN_IF_ERROR(CheckPublishArgs(counts, view));
  if (rng == nullptr) return Status::InvalidArgument("rng must not be null");
  const size_t types = counts.size();

  const double pub_budget = PublicationBudget();
  bool publish = false;
  double spent = 0.0;

  if (!has_published_) {
    // The first timestamp always publishes (there is nothing to reuse).
    publish = pub_budget > 0.0;
  } else if (pub_budget > 0.0) {
    // Noisy dissimilarity test (Kellaris): dis = mean |c_t − l|, sensitivity
    // 1/d (one event moves one count by 1). Publish when the noisy
    // dissimilarity exceeds the error a fresh publication would carry
    // (the Laplace scale of the publication noise).
    double dis = 0.0;
    for (size_t t = 0; t < types; ++t) {
      dis += std::abs(static_cast<double>(counts[t]) - last_published_[t]);
    }
    dis /= static_cast<double>(types);
    PLDP_ASSIGN_OR_RETURN(
        auto dis_mech,
        LaplaceMechanism::Create(1.0 / static_cast<double>(types),
                                 dissim_epsilon_per_ts_));
    double noisy_dis = dis_mech.AddNoise(dis, rng);
    double publication_error = 1.0 / pub_budget;  // Laplace scale at Δ=1
    publish = noisy_dis > publication_error;
  }

  if (publish) {
    PLDP_ASSIGN_OR_RETURN(auto pub_mech, LaplaceMechanism::Create(
                                             /*sensitivity=*/1.0, pub_budget));
    for (size_t t = 0; t < types; ++t) {
      last_published_[t] =
          pub_mech.AddNoise(static_cast<double>(counts[t]), rng);
    }
    has_published_ = true;
    spent = pub_budget;
    ++publication_count_;
  }
  OnDecision(publish, spent);
  ++timestamp_;

  view->presence.resize(types);
  for (size_t t = 0; t < types; ++t) {
    view->presence[t] = last_published_[t] >= options_.presence_threshold;
  }
  return Status::OK();
}

void BudgetAbsorptionPpm::Reset() {
  WEventPpm::Reset();
  banked_ = 0.0;
  nullified_remaining_ = 0;
}

double BudgetAbsorptionPpm::PublicationBudget() {
  if (nullified_remaining_ > 0) return 0.0;  // paying off an absorption
  // This timestamp's unit plus everything banked by skipped timestamps,
  // capped at the full publication half-budget (w units).
  double cap = budget_unit() * static_cast<double>(options().w);
  return std::min(banked_ + budget_unit(), cap);
}

void BudgetAbsorptionPpm::OnDecision(bool published, double spent) {
  if (nullified_remaining_ > 0) {
    --nullified_remaining_;
    return;
  }
  if (published) {
    // A publication that spent k budget units nullifies the next k−1
    // timestamps (their budget was consumed ahead of time).
    double units = spent / budget_unit();
    size_t k = static_cast<size_t>(std::lround(units));
    nullified_remaining_ = k > 1 ? k - 1 : 0;
    banked_ = 0.0;
  } else {
    banked_ += budget_unit();
  }
}

}  // namespace pldp
