// Copyright 2026 The PLDP Authors.
//
// TypeAnyOfPredicate::EvalBatch (cep/predicate.h) against a plain
// set-membership reference: bit i of the mask is set iff event i's type is
// in the set, and every remaining bit of each touched mask word is
// cleared. Fixed seeds pin both forms on the same streams every run: the
// bitmap (max type < 2^16) and the sorted binary search (sparse huge type
// ids).

#include "cep/predicate.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <vector>

#include "common/random.h"

namespace pldp {
namespace {

std::vector<Event> RandomEvents(size_t count, EventTypeId type_span,
                                uint64_t seed) {
  Rng rng(seed);
  std::vector<Event> events;
  events.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    events.emplace_back(static_cast<EventTypeId>(rng.UniformUint64(type_span)),
                        static_cast<Timestamp>(i));
  }
  return events;
}

/// Asserts the mask of MakeTypeAnyOf(`types`) over `events` equals
/// set membership, including cleared tail bits in the last touched word.
void ExpectMaskIsMembership(const std::vector<EventTypeId>& types,
                            const std::vector<Event>& events) {
  const std::set<EventTypeId> reference(types.begin(), types.end());
  const auto pred = MakeTypeAnyOf(types);
  EXPECT_EQ(pred->type_count(), reference.size());
  const size_t words = (events.size() + 63) / 64;
  // Poison: EvalBatch must fully overwrite every touched word.
  std::vector<uint64_t> mask(words, ~uint64_t{0});
  pred->EvalBatch(EventSpan(events.data(), events.size()), mask.data());
  for (size_t i = 0; i < events.size(); ++i) {
    const bool expected = reference.count(events[i].type()) > 0;
    const bool got = ((mask[i / 64] >> (i % 64)) & 1) != 0;
    ASSERT_EQ(got, expected) << "event " << i << " of " << events.size();
  }
  for (size_t i = events.size(); i < words * 64; ++i) {
    ASSERT_EQ((mask[i / 64] >> (i % 64)) & 1, 0u)
        << "tail bit " << i << " not cleared";
  }
}

TEST(PredicateBatchTest, TypeAnyOfBitmapFormMatchesMembership) {
  // 1000 is deliberately not a multiple of 64: exercises the tail word.
  const std::vector<Event> events =
      RandomEvents(1000, /*type_span=*/64, /*seed=*/7);
  // Small ids → bitmap form (duplicates must be tolerated).
  ExpectMaskIsMembership({1, 5, 5, 9, 30, 63}, events);
  ExpectMaskIsMembership({}, events);  // empty set: all false
}

TEST(PredicateBatchTest, TypeAnyOfBinarySearchFormMatchesMembership) {
  // One member above 2^16 forces the sorted binary-search form for the
  // whole set; the events still draw small ids, so membership decisions
  // hit both inside and outside the set.
  const std::vector<Event> events =
      RandomEvents(1000, /*type_span=*/64, /*seed=*/9);
  ExpectMaskIsMembership({1, 5, 9, 30, 70000}, events);
}

}  // namespace
}  // namespace pldp
