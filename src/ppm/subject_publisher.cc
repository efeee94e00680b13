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
  state.start = AlignWindowStart(event.timestamp(), options_.window_origin,
                                 options_.window_size);
  state.end = state.start + options_.window_size;
  state.counts.assign(state.mechanism->type_count(), 0);
  state.results.answers.resize(options_.queries.size());
  auto inserted = subjects_.emplace(event.stream(), std::move(state));
  // order: relaxed (load and store); this thread is the only writer, and
  // the count is standalone telemetry (see subject_count()).
  subject_count_.store(subject_count_.load(std::memory_order_relaxed) + 1,
                       std::memory_order_relaxed);
  return &inserted.first->second;
}

Status SubjectViewPublisher::PublishCurrent(SubjectState* state) {
  PLDP_RETURN_IF_ERROR(
      state->mechanism->Publish(state->counts, &state->rng, &view_));
  for (size_t i = 0; i < options_.queries.size(); ++i) {
    state->results.answers[options_.queries[i].id].Append(
        PatternDetectedInView(view_, *targets_[i]));
  }
  if (view_callback_) {
    view_callback_(state->subject, Window{state->start, state->end, {}},
                   view_);
  }
  ++state->results.window_count;
  // order: relaxed (load and store); single writer, see subject_count().
  total_windows_.store(total_windows_.load(std::memory_order_relaxed) + 1,
                       std::memory_order_relaxed);
  std::fill(state->counts.begin(), state->counts.end(), 0);
  state->start = state->end;
  state->end += options_.window_size;
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
  while (event.timestamp() >= state->end) {
    Status s = PublishCurrent(state);
    if (!s.ok()) {
      error_ = s;
      return;
    }
  }
  if (event.type() < state->counts.size()) ++state->counts[event.type()];
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
    // counted into the open window), so one publication closes the series
    // at the same window TumblingWindower ends on.
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
