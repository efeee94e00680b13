// Copyright 2026 The PLDP Authors.

#include "ppm/mechanism.h"

#include "common/strings.h"

namespace pldp {

bool PatternDetectedInView(const PublishedView& view, const Pattern& pattern) {
  switch (pattern.mode()) {
    case DetectionMode::kSequence:
    case DetectionMode::kConjunction: {
      for (EventTypeId t : pattern.elements()) {
        if (t >= view.presence.size() || !view.presence[t]) return false;
      }
      return true;
    }
    case DetectionMode::kDisjunction: {
      for (EventTypeId t : pattern.elements()) {
        if (t < view.presence.size() && view.presence[t]) return true;
      }
      return false;
    }
  }
  return false;
}

PublishedView TrueView(const Window& window, size_t type_count) {
  PublishedView view;
  view.presence.assign(type_count, false);
  for (const Event& e : window.events) {
    if (e.type() < type_count) view.presence[e.type()] = true;
  }
  return view;
}

StatusOr<PublishedView> PrivacyMechanism::PublishWindow(const Window& window,
                                                        Rng* rng) {
  std::vector<uint32_t> counts(type_count_, 0);
  for (const Event& e : window.events) {
    if (e.type() < type_count_) ++counts[e.type()];
  }
  PublishedView view;
  PLDP_RETURN_IF_ERROR(Publish(counts, rng, &view));
  return view;
}

Status PrivacyMechanism::CheckPublishArgs(const std::vector<uint32_t>& counts,
                                          const PublishedView* view) const {
  if (type_count_ == 0) {
    return Status::FailedPrecondition("Initialize() not called");
  }
  if (counts.size() != type_count_) {
    return Status::InvalidArgument(
        StrFormat("counts cover %zu types, the registry has %zu",
                  counts.size(), type_count_));
  }
  if (view == nullptr) return Status::InvalidArgument("view must not be null");
  return Status::OK();
}

Status PassthroughMechanism::Initialize(const MechanismContext& context) {
  if (context.event_types == nullptr) {
    return Status::InvalidArgument("context.event_types must be set");
  }
  set_type_count(context.event_types->size());
  return Status::OK();
}

Status PassthroughMechanism::Publish(const std::vector<uint32_t>& counts,
                                     Rng* rng, PublishedView* view) {
  (void)rng;
  PLDP_RETURN_IF_ERROR(CheckPublishArgs(counts, view));
  view->presence.resize(counts.size());
  for (size_t t = 0; t < counts.size(); ++t) {
    view->presence[t] = counts[t] > 0;
  }
  return Status::OK();
}

}  // namespace pldp
