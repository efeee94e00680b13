// Copyright 2026 The PLDP Authors.
//
// Tests for window-batch and incremental pattern matching, including the
// cross-check property: the incremental SEQ matcher must agree with the
// window-batch subsequence search on random streams.

#include "cep/matcher.h"

#include <gtest/gtest.h>

#include "common/random.h"

namespace pldp {
namespace {

Window MakeWindow(std::initializer_list<std::pair<EventTypeId, Timestamp>>
                      events) {
  Window w;
  for (auto [type, ts] : events) w.events.emplace_back(type, ts);
  if (!w.events.empty()) {
    w.start = w.events.front().timestamp();
    w.end = w.events.back().timestamp() + 1;
  }
  return w;
}

Pattern Seq(std::vector<EventTypeId> elems) {
  return Pattern::Create("seq", std::move(elems), DetectionMode::kSequence)
      .value();
}
Pattern Conj(std::vector<EventTypeId> elems) {
  return Pattern::Create("and", std::move(elems), DetectionMode::kConjunction)
      .value();
}
Pattern Disj(std::vector<EventTypeId> elems) {
  return Pattern::Create("or", std::move(elems), DetectionMode::kDisjunction)
      .value();
}

// --- window-batch: sequence ---------------------------------------------------

TEST(SequenceMatchTest, FindsOrderedSubsequence) {
  Window w = MakeWindow({{0, 1}, {2, 2}, {1, 3}, {2, 4}});
  auto m = FindMatchInWindow(w, Seq({0, 1, 2})).value();
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->event_positions, (std::vector<size_t>{0, 2, 3}));
  EXPECT_EQ(m->detected_at, 4);
}

TEST(SequenceMatchTest, OrderMatters) {
  Window w = MakeWindow({{1, 1}, {0, 2}});
  EXPECT_FALSE(PatternOccursInWindow(w, Seq({0, 1})).value());
  EXPECT_TRUE(PatternOccursInWindow(w, Seq({1, 0})).value());
}

TEST(SequenceMatchTest, RepeatedElementNeedsRepeatedEvents) {
  Window w = MakeWindow({{0, 1}, {1, 2}});
  EXPECT_FALSE(PatternOccursInWindow(w, Seq({0, 0})).value());
  Window w2 = MakeWindow({{0, 1}, {0, 2}});
  EXPECT_TRUE(PatternOccursInWindow(w2, Seq({0, 0})).value());
}

TEST(SequenceMatchTest, EmptyWindowNeverMatches) {
  EXPECT_FALSE(PatternOccursInWindow(Window{}, Seq({0})).value());
}

// --- window-batch: conjunction -------------------------------------------------

TEST(ConjunctionMatchTest, AnyOrderSuffices) {
  Window w = MakeWindow({{2, 1}, {0, 2}, {1, 3}});
  EXPECT_TRUE(PatternOccursInWindow(w, Conj({0, 1, 2})).value());
}

TEST(ConjunctionMatchTest, MissingTypeFails) {
  Window w = MakeWindow({{0, 1}, {1, 2}});
  EXPECT_FALSE(PatternOccursInWindow(w, Conj({0, 1, 2})).value());
}

TEST(ConjunctionMatchTest, MultiplicityRequired) {
  Window w = MakeWindow({{0, 1}, {1, 2}});
  EXPECT_FALSE(PatternOccursInWindow(w, Conj({0, 0, 1})).value());
  Window w2 = MakeWindow({{0, 1}, {0, 2}, {1, 3}});
  EXPECT_TRUE(PatternOccursInWindow(w2, Conj({0, 0, 1})).value());
}

TEST(ConjunctionMatchTest, PositionsAreEarliestWitnesses) {
  Window w = MakeWindow({{1, 1}, {0, 2}, {1, 3}, {0, 4}});
  auto m = FindMatchInWindow(w, Conj({0, 1})).value();
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->event_positions, (std::vector<size_t>{1, 0}));
}

// --- window-batch: disjunction ---------------------------------------------------

TEST(DisjunctionMatchTest, AnyElementTriggers) {
  Window w = MakeWindow({{5, 1}});
  EXPECT_TRUE(PatternOccursInWindow(w, Disj({3, 5, 7})).value());
  EXPECT_FALSE(PatternOccursInWindow(w, Disj({3, 7})).value());
}

TEST(DisjunctionMatchTest, WitnessIsFirstOccurrence) {
  Window w = MakeWindow({{9, 1}, {3, 2}, {5, 3}});
  auto m = FindMatchInWindow(w, Disj({3, 5})).value();
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->event_positions, (std::vector<size_t>{1}));
}

// --- incremental: sequence ----------------------------------------------------------

TEST(IncrementalSequenceTest, DetectsWithinTimeWindow) {
  Pattern p = Seq({0, 1, 2});
  auto m = MakeIncrementalMatcher(p, /*window=*/10);
  EXPECT_FALSE(m->OnEvent(Event(0, 1)));
  EXPECT_FALSE(m->OnEvent(Event(1, 3)));
  EXPECT_TRUE(m->OnEvent(Event(2, 8)));
  ASSERT_EQ(m->detections().size(), 1u);
  EXPECT_EQ(m->detections()[0], 8);
}

TEST(IncrementalSequenceTest, ExpiredRunsDoNotMatch) {
  Pattern p = Seq({0, 1});
  auto m = MakeIncrementalMatcher(p, /*window=*/5);
  m->OnEvent(Event(0, 1));
  EXPECT_FALSE(m->OnEvent(Event(1, 7)));  // span 6 > 5
  EXPECT_TRUE(m->detections().empty());
}

TEST(IncrementalSequenceTest, LaterStartKeepsRunAlive) {
  Pattern p = Seq({0, 1});
  auto m = MakeIncrementalMatcher(p, /*window=*/5);
  m->OnEvent(Event(0, 1));
  m->OnEvent(Event(0, 4));          // fresher start supersedes
  EXPECT_TRUE(m->OnEvent(Event(1, 8)));  // 8-4=4 <= 5
}

TEST(IncrementalSequenceTest, OneEventAdvancesOneStep) {
  // Pattern (0, 0): a single event must not complete both steps at once.
  Pattern p = Seq({0, 0});
  auto m = MakeIncrementalMatcher(p, /*window=*/10);
  EXPECT_FALSE(m->OnEvent(Event(0, 1)));
  EXPECT_TRUE(m->OnEvent(Event(0, 2)));
}

TEST(IncrementalSequenceTest, UnboundedWindow) {
  Pattern p = Seq({0, 1});
  auto m = MakeIncrementalMatcher(p, /*window=*/0);
  m->OnEvent(Event(0, 1));
  EXPECT_TRUE(m->OnEvent(Event(1, 1000000)));
}

TEST(IncrementalSequenceTest, ResetClearsState) {
  Pattern p = Seq({0, 1});
  auto m = MakeIncrementalMatcher(p, 10);
  m->OnEvent(Event(0, 1));
  m->Reset();
  EXPECT_FALSE(m->OnEvent(Event(1, 2)));
  EXPECT_TRUE(m->detections().empty());
}

// --- incremental: conjunction ----------------------------------------------------------

TEST(IncrementalConjunctionTest, AllTypesWithinTrailingWindow) {
  Pattern p = Conj({0, 1});
  auto m = MakeIncrementalMatcher(p, /*window=*/5);
  EXPECT_FALSE(m->OnEvent(Event(0, 1)));
  EXPECT_TRUE(m->OnEvent(Event(1, 4)));
  // 0 last seen at 1; event at 9 is too far from it.
  EXPECT_FALSE(m->OnEvent(Event(1, 9)));
  EXPECT_TRUE(m->OnEvent(Event(0, 10)));  // 1 seen at 9, within 5
}

TEST(IncrementalConjunctionTest, IgnoresForeignTypes) {
  Pattern p = Conj({0, 1});
  auto m = MakeIncrementalMatcher(p, 5);
  EXPECT_FALSE(m->OnEvent(Event(7, 1)));
  EXPECT_TRUE(m->detections().empty());
}

// --- incremental: disjunction ------------------------------------------------------------

TEST(IncrementalDisjunctionTest, EveryElementOccurrenceDetects) {
  Pattern p = Disj({0, 1});
  auto m = MakeIncrementalMatcher(p, 5);
  EXPECT_TRUE(m->OnEvent(Event(0, 1)));
  EXPECT_TRUE(m->OnEvent(Event(1, 2)));
  EXPECT_FALSE(m->OnEvent(Event(2, 3)));
  EXPECT_EQ(m->detections().size(), 2u);
}

// --- property: incremental agrees with window-batch ---------------------------------------

class IncrementalVsBatchSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(IncrementalVsBatchSweep, SequenceExistenceAgrees) {
  Rng rng(GetParam());
  const size_t kTypes = 4;
  // Random pattern of length 2-3 over the type alphabet.
  size_t len = 2 + rng.UniformUint64(2);
  std::vector<EventTypeId> elems;
  for (size_t i = 0; i < len; ++i) {
    elems.push_back(static_cast<EventTypeId>(rng.UniformUint64(kTypes)));
  }
  Pattern p = Seq(elems);

  // Random window of events at consecutive timestamps: the incremental
  // matcher with an unbounded time window and the batch subsequence search
  // must agree on existence.
  Window w;
  w.start = 0;
  size_t n = 1 + rng.UniformUint64(30);
  for (size_t i = 0; i < n; ++i) {
    w.events.emplace_back(static_cast<EventTypeId>(rng.UniformUint64(kTypes)),
                          static_cast<Timestamp>(i));
  }
  w.end = static_cast<Timestamp>(n);

  bool batch = PatternOccursInWindow(w, p).value();

  auto inc = MakeIncrementalMatcher(p, /*window=*/0);
  for (const Event& e : w.events) inc->OnEvent(e);
  bool incremental = !inc->detections().empty();

  EXPECT_EQ(batch, incremental)
      << "pattern=" << p.ToString() << " n=" << n << " seed=" << GetParam();
}

INSTANTIATE_TEST_SUITE_P(RandomStreams, IncrementalVsBatchSweep,
                         ::testing::Range<uint64_t>(0, 50));

}  // namespace
}  // namespace pldp
