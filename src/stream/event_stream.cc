// Copyright 2026 The PLDP Authors.

#include "stream/event_stream.h"

#include <algorithm>
#include <cassert>
#include <queue>

namespace pldp {

Status EventStream::Append(Event event) {
  if (!events_.empty() && event.timestamp() < events_.back().timestamp()) {
    return Status::InvalidArgument(
        "appending event at t=" + std::to_string(event.timestamp()) +
        " before stream tail t=" + std::to_string(events_.back().timestamp()));
  }
  events_.push_back(std::move(event));
  return Status::OK();
}

void EventStream::AppendUnchecked(Event event) {
  assert(events_.empty() || event.timestamp() >= events_.back().timestamp());
  events_.push_back(std::move(event));
}

bool EventStream::IsTemporallyOrdered() const {
  for (size_t i = 1; i < events_.size(); ++i) {
    if (events_[i].timestamp() < events_[i - 1].timestamp()) return false;
  }
  return true;
}

EventStream MergeStreams(const std::vector<EventStream>& streams) {
  // K-way merge with a heap of (stream index, position) cursors.
  struct Cursor {
    size_t stream;
    size_t pos;
  };
  EventTemporalOrder order;
  auto greater = [&](const Cursor& a, const Cursor& b) {
    const Event& ea = streams[a.stream][a.pos];
    const Event& eb = streams[b.stream][b.pos];
    // priority_queue is a max-heap; invert for min-heap behaviour.
    return order(eb, ea);
  };
  std::priority_queue<Cursor, std::vector<Cursor>, decltype(greater)> heap(
      greater);

  size_t total = 0;
  for (size_t i = 0; i < streams.size(); ++i) {
    total += streams[i].size();
    if (!streams[i].empty()) heap.push({i, 0});
  }

  EventStream out;
  out.Reserve(total);
  while (!heap.empty()) {
    Cursor c = heap.top();
    heap.pop();
    out.AppendUnchecked(streams[c.stream][c.pos]);
    if (c.pos + 1 < streams[c.stream].size()) {
      heap.push({c.stream, c.pos + 1});
    }
  }
  return out;
}

}  // namespace pldp
