// Copyright 2026 The PLDP Authors.

#include "stream/window.h"

#include <algorithm>

namespace pldp {

bool Window::ContainsType(EventTypeId type) const {
  return std::any_of(events.begin(), events.end(),
                     [type](const Event& e) { return e.type() == type; });
}

TumblingWindower::TumblingWindower(Timestamp size, Timestamp origin)
    : size_(size), origin_(origin) {}

StatusOr<std::vector<Window>> TumblingWindower::Apply(
    const EventStream& stream) const {
  if (size_ <= 0) return Status::InvalidArgument("window size must be > 0");
  std::vector<Window> windows;
  if (stream.empty()) return windows;

  Timestamp first = stream.min_timestamp();
  Timestamp last = stream.max_timestamp();
  Timestamp start = AlignWindowStart(first, origin_, size_);

  size_t pos = 0;
  for (; start <= last; start += size_) {
    Window w;
    w.start = start;
    w.end = start + size_;
    while (pos < stream.size() && stream[pos].timestamp() < w.end) {
      // Events before w.start cannot occur: the stream is sorted and
      // previous windows consumed them.
      w.events.push_back(stream[pos]);
      ++pos;
    }
    windows.push_back(std::move(w));
  }
  return windows;
}

}  // namespace pldp
