// Copyright 2026 The PLDP Authors.

#include "ppm/subject_publisher.h"

#include <algorithm>
#include <utility>

namespace pldp {

SubjectViewPublisher::SubjectViewPublisher(SubjectPublisherOptions options)
    : options_(std::move(options)) {
  if (options_.window_size <= 0) {
    error_ = Status::InvalidArgument("window_size must be > 0");
    return;
  }
  if (!options_.factory) {
    error_ = Status::InvalidArgument("mechanism factory must be set");
    return;
  }
  targets_.reserve(options_.queries.size());
  for (const BinaryQuery& q : options_.queries) {
    targets_.push_back(&options_.context.patterns->Get(q.target));
  }
}

StatusOr<SubjectViewPublisher::SubjectState*> SubjectViewPublisher::GetOrCreate(
    const Event& event) {
  auto it = subjects_.find(event.stream());
  if (it != subjects_.end()) return &it->second;

  PLDP_ASSIGN_OR_RETURN(std::unique_ptr<PrivacyMechanism> mechanism,
                        options_.factory());
  PLDP_RETURN_IF_ERROR(mechanism->Initialize(options_.context));

  SubjectState state(event.stream(),
                     Rng(SubjectSeed(options_.seed, event.stream())));
  state.mechanism = std::move(mechanism);
  state.current.start = AlignWindowStart(
      event.timestamp(), options_.window_origin, options_.window_size);
  state.current.end = state.current.start + options_.window_size;
  state.results.answers.resize(options_.queries.size());
  auto inserted = subjects_.emplace(event.stream(), std::move(state));
  // order: relaxed; standalone telemetry count (see subject_count()).
  subject_count_.fetch_add(1, std::memory_order_relaxed);
  return &inserted.first->second;
}

Status SubjectViewPublisher::PublishCurrent(SubjectState* state) {
  PLDP_ASSIGN_OR_RETURN(PublishedView view,
                        state->mechanism->PublishWindow(state->current,
                                                        &state->rng));
  for (size_t i = 0; i < options_.queries.size(); ++i) {
    state->results.answers[options_.queries[i].id].Append(
        PatternDetectedInView(view, *targets_[i]));
  }
  if (view_callback_) {
    view_callback_(state->subject, state->current, view);
  }
  ++state->results.window_count;
  // order: relaxed; standalone telemetry count (see subject_count()).
  total_windows_.fetch_add(1, std::memory_order_relaxed);
  state->current.events.clear();
  state->current.start = state->current.end;
  state->current.end += options_.window_size;
  return Status::OK();
}

void SubjectViewPublisher::Absorb(const Event& event) {
  owner_role_.Assert();
  if (!error_.ok() || finalized_) return;
  StatusOr<SubjectState*> state_or = GetOrCreate(event);
  if (!state_or.ok()) {
    error_ = state_or.status();
    return;
  }
  SubjectState* state = state_or.value();
  // Close every window the event skipped past — empty windows are still
  // published (an evaluation point with noise can answer positive), exactly
  // as TumblingWindower emits them.
  while (event.timestamp() >= state->current.end) {
    Status s = PublishCurrent(state);
    if (!s.ok()) {
      error_ = s;
      return;
    }
  }
  state->current.events.push_back(event);
}

Status SubjectViewPublisher::Finalize() {
  owner_role_.Assert();
  if (finalized_) return error_;
  finalized_ = true;
  if (!error_.ok()) return error_;
  // Ascending subject order, not hash-map order: downstream observers
  // (ViewCallback, the exchange's finalize merge keys) rely on finalize
  // publication order being a pure function of the stream content.
  std::vector<StreamId> ids = SubjectIds();
  for (StreamId id : ids) {
    // The open window holds the subject's last event (events are only ever
    // appended to the open window), so one publication closes the series at
    // the same window TumblingWindower ends on.
    Status s = PublishCurrent(&subjects_.at(id));
    if (!s.ok()) {
      error_ = s;
      return error_;
    }
  }
  return Status::OK();
}

std::vector<StreamId> SubjectViewPublisher::SubjectIds() const {
  owner_role_.Assert();
  std::vector<StreamId> ids;
  ids.reserve(subjects_.size());
  for (const auto& entry : subjects_) ids.push_back(entry.first);
  std::sort(ids.begin(), ids.end());
  return ids;
}

const SubjectResults* SubjectViewPublisher::ResultsFor(
    StreamId subject) const {
  owner_role_.Assert();
  auto it = subjects_.find(subject);
  return it == subjects_.end() ? nullptr : &it->second.results;
}

}  // namespace pldp
