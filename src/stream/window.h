// Copyright 2026 The PLDP Authors.
//
// Windowing over event streams.
//
// CEP queries are evaluated per tumbling time window: the synthetic
// dataset has one window per Algorithm-2 list, the taxi and T-Drive
// datasets one per sampling interval, and the private lane closes each
// subject's windows on the same grid (ppm/subject_publisher.h).
//
// A `Window` holds copies of the member events plus its bounds;
// `TumblingWindower` turns a finite stream into a window sequence.

#ifndef PLDP_STREAM_WINDOW_H_
#define PLDP_STREAM_WINDOW_H_

#include <vector>

#include "common/status.h"
#include "stream/event_stream.h"

namespace pldp {

/// One evaluation window: the events with timestamps in [start, end).
struct Window {
  Timestamp start = 0;
  Timestamp end = 0;
  std::vector<Event> events;

  /// True if any member event has the given type.
  bool ContainsType(EventTypeId type) const;
};

/// Largest window start aligned to `origin + k*size` at or before `ts`
/// (correct for negative timestamps). The single source of truth for
/// tumbling-window alignment: TumblingWindower::Apply and the streaming
/// per-subject windower (ppm/subject_publisher.h) must agree bit-for-bit
/// or their fixed-seed equivalence breaks. `size` must be > 0.
inline Timestamp AlignWindowStart(Timestamp ts, Timestamp origin,
                                  Timestamp size) {
  Timestamp k = (ts - origin) / size;
  if (origin + k * size > ts) --k;
  return origin + k * size;
}

/// Non-overlapping windows of fixed duration, aligned to `origin`.
/// Emits all windows between the stream's first and last event, including
/// empty ones (a window with no events is still a query evaluation point).
class TumblingWindower {
 public:
  /// `size` must be > 0.
  explicit TumblingWindower(Timestamp size, Timestamp origin = 0);

  /// Produces the full window sequence for `stream`, in order of start
  /// bound.
  StatusOr<std::vector<Window>> Apply(const EventStream& stream) const;

 private:
  Timestamp size_;
  Timestamp origin_;
};

}  // namespace pldp

#endif  // PLDP_STREAM_WINDOW_H_
