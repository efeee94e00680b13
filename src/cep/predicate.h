// Copyright 2026 The PLDP Authors.
//
// Event-type set membership, evaluated over a batch of events into a bit
// mask. Patterns name event types only, so this is the one event filter
// the library has; no pipeline stage calls it today (the per-layer
// benchmark measures it as a batch type-compare pass).

#ifndef PLDP_CEP_PREDICATE_H_
#define PLDP_CEP_PREDICATE_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/thread_annotations.h"
#include "event/event.h"

namespace pldp {

/// "Event type is one of a fixed set", evaluated as one vectorizable
/// type-compare pass per batch.
class TypeAnyOfPredicate {
 public:
  /// Duplicates are fine; the set is sorted/deduped at bind time. Small
  /// type universes (max id < 2^16) compile to a bitmap, larger ones to a
  /// sorted binary search.
  explicit TypeAnyOfPredicate(std::vector<EventTypeId> types);

  /// Sets bit i of `mask` (LSB-first within each 64-bit word, word i/64)
  /// iff `events[i]`'s type is in the set; every remaining bit of each
  /// touched word is cleared. `mask` must hold (events.size() + 63) / 64
  /// words.
  PLDP_HOT void EvalBatch(EventSpan events, uint64_t* mask) const;

  size_t type_count() const { return sorted_.size(); }

 private:
  PLDP_HOT bool Contains(EventTypeId type) const {
    if (!bits_.empty()) {
      return type <= max_type_ &&
             ((bits_[type >> 6] >> (type & 63)) & uint64_t{1}) != 0;
    }
    return std::binary_search(sorted_.begin(), sorted_.end(), type);
  }

  std::vector<EventTypeId> sorted_;
  std::vector<uint64_t> bits_;  ///< bitmap form (empty = binary search)
  EventTypeId max_type_ = 0;
};

std::shared_ptr<const TypeAnyOfPredicate> MakeTypeAnyOf(
    std::vector<EventTypeId> types);

}  // namespace pldp

#endif  // PLDP_CEP_PREDICATE_H_
