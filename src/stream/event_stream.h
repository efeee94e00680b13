// Copyright 2026 The PLDP Authors.
//
// In-memory event streams.
//
// The paper treats streams as conceptually infinite; experiments replay
// finite prefixes. `EventStream` is that finite prefix: an append-only,
// temporally ordered sequence of events with cheap iteration. Online
// arrival is modeled by `StreamReplayer` (replay.h).

#ifndef PLDP_STREAM_EVENT_STREAM_H_
#define PLDP_STREAM_EVENT_STREAM_H_

#include <cstddef>
#include <string>
#include <vector>

#include "common/status.h"
#include "event/event.h"

namespace pldp {

/// Append-only, temporally ordered sequence of events.
class EventStream {
 public:
  EventStream() = default;

  /// Appends an event. Returns InvalidArgument if `event` would violate
  /// non-decreasing timestamp order.
  Status Append(Event event);

  /// Appends without the order check (for generators that produce sorted
  /// data by construction; validated in debug builds).
  void AppendUnchecked(Event event);

  size_t size() const { return events_.size(); }
  bool empty() const { return events_.empty(); }

  const Event& operator[](size_t i) const { return events_[i]; }
  const std::vector<Event>& events() const { return events_; }

  std::vector<Event>::const_iterator begin() const { return events_.begin(); }
  std::vector<Event>::const_iterator end() const { return events_.end(); }

  /// Timestamp of the first/last event; 0 when empty.
  Timestamp min_timestamp() const {
    return events_.empty() ? 0 : events_.front().timestamp();
  }
  Timestamp max_timestamp() const {
    return events_.empty() ? 0 : events_.back().timestamp();
  }

  /// True if every adjacent pair is in non-decreasing timestamp order.
  bool IsTemporallyOrdered() const;

  void Clear() { events_.clear(); }

  void Reserve(size_t n) { events_.reserve(n); }

 private:
  std::vector<Event> events_;
};

/// K-way merges event streams into one temporally ordered stream
/// (paper §III-A: multiple data subjects' event streams are merged; ties on
/// timestamp are broken deterministically by EventTemporalOrder).
EventStream MergeStreams(const std::vector<EventStream>& streams);

}  // namespace pldp

#endif  // PLDP_STREAM_EVENT_STREAM_H_
