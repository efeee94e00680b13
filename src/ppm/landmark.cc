// Copyright 2026 The PLDP Authors.

#include "ppm/landmark.h"

#include <algorithm>
#include <cmath>

#include "dp/budget_conversion.h"
#include "dp/laplace.h"

namespace pldp {

Status LandmarkPpm::Initialize(const MechanismContext& context) {
  if (context.event_types == nullptr || context.patterns == nullptr) {
    return Status::InvalidArgument(
        "context.event_types and context.patterns must be set");
  }
  if (!(context.epsilon > 0.0)) {
    return Status::InvalidArgument("context.epsilon must be > 0");
  }
  if (!(options_.landmark_fraction > 0.0) ||
      options_.landmark_fraction >= 1.0) {
    return Status::InvalidArgument("landmark fraction must be in (0, 1)");
  }

  context_ = context;

  private_types_.clear();
  size_t span = 1;
  for (PatternId id : context.private_patterns) {
    if (!context.patterns->Contains(id)) {
      return Status::NotFound("private pattern id " + std::to_string(id) +
                              " not registered");
    }
    const Pattern& p = context.patterns->Get(id);
    span = std::max(span, p.length());
    for (EventTypeId t : p.elements()) private_types_.insert(t);
  }

  // Horizon / landmark-count estimation from history when not pinned.
  size_t horizon = options_.horizon;
  size_t landmarks = options_.landmark_count;
  if ((horizon == 0 || landmarks == 0) && context.history != nullptr &&
      !context.history->empty()) {
    size_t h = context.history->size();
    size_t l = 0;
    for (const Window& w : *context.history) {
      if (IsLandmark(w)) ++l;
    }
    if (horizon == 0) horizon = h;
    if (landmarks == 0) landmarks = std::max<size_t>(l, 1);
  }
  if (horizon == 0 || landmarks == 0) {
    return Status::FailedPrecondition(
        "landmark PPM needs horizon/landmark hints or non-empty history");
  }
  if (landmarks > horizon) landmarks = horizon;

  PLDP_ASSIGN_OR_RETURN(
      native_epsilon_,
      LandmarkBudgetForPatternLevel(context.epsilon,
                                    options_.landmark_fraction, landmarks,
                                    span));
  // Landmark timestamps share the landmark fraction; regular timestamps
  // share the rest. Half of each per-timestamp budget pays the
  // dissimilarity test, half the publication (as in the Adaptive scheme).
  eps_landmark_ts_ = options_.landmark_fraction * native_epsilon_ /
                     static_cast<double>(landmarks);
  size_t regular = horizon - landmarks;
  eps_regular_ts_ =
      regular == 0 ? eps_landmark_ts_
                   : (1.0 - options_.landmark_fraction) * native_epsilon_ /
                         static_cast<double>(regular);

  set_type_count(context.event_types->size());
  Reset();
  return Status::OK();
}

void LandmarkPpm::Reset() {
  last_published_.assign(type_count(), 0.0);
  has_published_ = false;
}

bool LandmarkPpm::IsLandmark(const Window& window) const {
  return std::any_of(window.events.begin(), window.events.end(),
                     [this](const Event& e) {
                       return private_types_.count(e.type()) > 0;
                     });
}

bool LandmarkPpm::HasPrivateType(const std::vector<uint32_t>& counts) const {
  return std::any_of(private_types_.begin(), private_types_.end(),
                     [&counts](EventTypeId t) {
                       return t < counts.size() && counts[t] > 0;
                     });
}

Status LandmarkPpm::Publish(const std::vector<uint32_t>& counts, Rng* rng,
                            PublishedView* view) {
  PLDP_RETURN_IF_ERROR(CheckPublishArgs(counts, view));
  if (rng == nullptr) return Status::InvalidArgument("rng must not be null");
  const size_t types = counts.size();

  const double ts_budget =
      HasPrivateType(counts) ? eps_landmark_ts_ : eps_regular_ts_;
  const double eps_test = ts_budget / 2.0;
  const double eps_pub = ts_budget / 2.0;

  bool publish = true;
  if (has_published_) {
    // Adaptive sampling: noisy mean-absolute dissimilarity vs last release.
    double dis = 0.0;
    for (size_t t = 0; t < types; ++t) {
      dis += std::abs(static_cast<double>(counts[t]) - last_published_[t]);
    }
    dis /= static_cast<double>(types);
    PLDP_ASSIGN_OR_RETURN(
        auto dis_mech,
        LaplaceMechanism::Create(1.0 / static_cast<double>(types), eps_test));
    publish = dis_mech.AddNoise(dis, rng) > 1.0 / eps_pub;
  }

  if (publish) {
    PLDP_ASSIGN_OR_RETURN(
        auto pub_mech, LaplaceMechanism::Create(/*sensitivity=*/1.0, eps_pub));
    for (size_t t = 0; t < types; ++t) {
      last_published_[t] =
          pub_mech.AddNoise(static_cast<double>(counts[t]), rng);
    }
    has_published_ = true;
  }

  view->presence.resize(types);
  for (size_t t = 0; t < types; ++t) {
    view->presence[t] = last_published_[t] >= options_.presence_threshold;
  }
  return Status::OK();
}

}  // namespace pldp
