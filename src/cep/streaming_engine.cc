// Copyright 2026 The PLDP Authors.

#include "cep/streaming_engine.h"

#include <algorithm>

namespace pldp {

StatusOr<size_t> StreamingCepEngine::AddQuery(Pattern pattern,
                                              Timestamp window) {
  if (pattern.length() == 0) {
    return Status::InvalidArgument("query pattern must not be empty");
  }
  auto matcher = MakeIncrementalMatcher(pattern, window);
  if (matcher == nullptr) {
    return Status::Internal("no matcher for detection mode");
  }
  const auto q = static_cast<uint32_t>(matchers_.size());
  matchers_.push_back(std::move(matcher));
  for (EventTypeId type : pattern.elements()) IndexQuery(type, q);
  return matchers_.size() - 1;
}

void StreamingCepEngine::IndexQuery(EventTypeId type, uint32_t q) {
  auto it = std::lower_bound(types_.begin(), types_.end(), type);
  const auto slot = static_cast<size_t>(it - types_.begin());
  if (it == types_.end() || *it != type) {
    types_.insert(it, type);
    offsets_.insert(offsets_.begin() + slot + 1, offsets_[slot]);
  }
  // `q` is the newest query, so appending at the slot's end keeps the
  // slot's list ascending, and a repeated element type finds `q` already
  // last.
  const uint32_t end = offsets_[slot + 1];
  if (end > offsets_[slot] && query_ids_[end - 1] == q) return;
  query_ids_.insert(query_ids_.begin() + end, q);
  for (size_t s = slot + 1; s < offsets_.size(); ++s) ++offsets_[s];
}

StatusOr<std::vector<Timestamp>> StreamingCepEngine::DetectionsOf(
    size_t query_index) const {
  if (query_index >= matchers_.size()) {
    return Status::OutOfRange("unknown query index " +
                              std::to_string(query_index));
  }
  return matchers_[query_index]->detections();
}

PLDP_HOT Status StreamingCepEngine::OnEvent(const Event& event) {
  ++events_processed_;
  const uint32_t slot = SlotOf(event.type());
  if (slot == kNoSlot) return Status::OK();
  const uint32_t end = offsets_[slot + 1];
  for (uint32_t i = offsets_[slot]; i < end; ++i) {
    const uint32_t q = query_ids_[i];
    if (matchers_[q]->OnEvent(event)) {
      ++total_detections_;
      if (callback_) {
        callback_(StreamingDetection{q, event.timestamp()});
      }
    }
  }
  return Status::OK();
}

}  // namespace pldp
