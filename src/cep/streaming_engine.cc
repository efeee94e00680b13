// Copyright 2026 The PLDP Authors.

#include "cep/streaming_engine.h"

#include <algorithm>
#include <utility>

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
  uint32_t slot = SlotOf(type);
  if (slot == kNoSlot) {
    slot = static_cast<uint32_t>(offsets_.size() - 1);
    offsets_.push_back(offsets_.back());
    const size_t types = offsets_.size() - 1;
    if (2 * types > table_.size()) {
      // The load would pass 1/2: double and rehash every type.
      const std::vector<Bucket> old =
          std::exchange(table_, std::vector<Bucket>(2 * table_.size()));
      shift_ = ShiftFor(table_.size());
      for (const Bucket& bucket : old) {
        if (bucket.slot != kNoSlot) InsertBucket(bucket.type, bucket.slot);
      }
    }
    InsertBucket(type, slot);
  }
  // `q` is the newest query, so appending at the slot's end keeps the
  // slot's list ascending, and a repeated element type finds `q` already
  // last.
  const uint32_t end = offsets_[slot + 1];
  if (end > offsets_[slot] && query_ids_[end - 1] == q) return;
  query_ids_.insert(query_ids_.begin() + end, q);
  for (size_t s = slot + 1; s < offsets_.size(); ++s) ++offsets_[s];
}

void StreamingCepEngine::InsertBucket(EventTypeId type, uint32_t slot) {
  const size_t mask = table_.size() - 1;
  size_t b = HashBucket(type, shift_);
  while (table_[b].slot != kNoSlot) b = (b + 1) & mask;
  table_[b] = Bucket{type, slot};
}

std::vector<EventTypeId> StreamingCepEngine::RelevantEventTypes() const {
  std::vector<EventTypeId> types;
  for (const Bucket& bucket : table_) {
    if (bucket.slot != kNoSlot) types.push_back(bucket.type);
  }
  std::sort(types.begin(), types.end());
  return types;
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
