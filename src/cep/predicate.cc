// Copyright 2026 The PLDP Authors.

#include "cep/predicate.h"

namespace pldp {

TypeAnyOfPredicate::TypeAnyOfPredicate(std::vector<EventTypeId> types)
    : sorted_(std::move(types)) {
  std::sort(sorted_.begin(), sorted_.end());
  sorted_.erase(std::unique(sorted_.begin(), sorted_.end()), sorted_.end());
  if (!sorted_.empty()) max_type_ = sorted_.back();
  if (max_type_ < (EventTypeId{1} << 16)) {
    bits_.assign(static_cast<size_t>(max_type_) / 64 + 1, 0);
    for (EventTypeId t : sorted_) {
      bits_[t >> 6] |= uint64_t{1} << (t & 63);
    }
  }
}

void TypeAnyOfPredicate::EvalBatch(EventSpan events, uint64_t* mask) const {
  const size_t words = (events.size() + 63) / 64;
  size_t i = 0;
  for (size_t w = 0; w < words; ++w) {
    const size_t remaining = events.size() - w * 64;
    const size_t limit = remaining < 64 ? remaining : 64;
    uint64_t bits = 0;
    for (size_t b = 0; b < limit; ++b, ++i) {
      bits |= uint64_t{Contains(events[i].type())} << b;
    }
    mask[w] = bits;
  }
}

std::shared_ptr<const TypeAnyOfPredicate> MakeTypeAnyOf(
    std::vector<EventTypeId> types) {
  return std::make_shared<TypeAnyOfPredicate>(std::move(types));
}

}  // namespace pldp
