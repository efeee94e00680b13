// Copyright 2026 The PLDP Authors.
//
// Oracle tests for StreamingCepEngine's type-indexed dispatch. The oracle
// is a brute-force loop: one MakeIncrementalMatcher per query, every
// matcher stepped on every event in ascending query order. Per-query
// detections and the callback sequence (query_index, at) — including the
// order of callbacks within one event — must be identical.

#include "cep/streaming_engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include "cep/matcher.h"
#include "common/random.h"

namespace pldp {
namespace {

using Fired = std::vector<std::pair<size_t, Timestamp>>;

constexpr EventTypeId kBig = EventTypeId{1} << 30;

Pattern Make(std::vector<EventTypeId> elems, DetectionMode mode) {
  return Pattern::Create("p", std::move(elems), mode).value();
}

/// Brute-force reference: every matcher sees every event.
class BruteForce {
 public:
  void AddQuery(const Pattern& pattern, Timestamp window) {
    matchers_.push_back(MakeIncrementalMatcher(pattern, window));
  }
  void OnEvent(const Event& event) {
    for (size_t q = 0; q < matchers_.size(); ++q) {
      if (matchers_[q]->OnEvent(event)) {
        fired_.emplace_back(q, event.timestamp());
      }
    }
  }
  const std::vector<Timestamp>& DetectionsOf(size_t q) const {
    return matchers_[q]->detections();
  }
  const Fired& fired() const { return fired_; }

 private:
  std::vector<std::unique_ptr<IncrementalMatcher>> matchers_;
  Fired fired_;
};

/// The engine under test and its oracle, fed in lockstep.
class Harness {
 public:
  Harness() {
    engine_.SetCallback([this](const StreamingDetection& d) {
      fired_.emplace_back(d.query_index, d.at);
    });
  }

  void AddQuery(const Pattern& pattern, Timestamp window) {
    ASSERT_EQ(engine_.AddQuery(pattern, window).value(), query_count_);
    oracle_.AddQuery(pattern, window);
    ++query_count_;
  }

  /// Feeds one event to both and compares the callbacks it produced.
  void Feed(const Event& event) {
    ASSERT_TRUE(engine_.OnEvent(event).ok());
    oracle_.OnEvent(event);
    ++events_;
    const Fired& want = oracle_.fired();
    ASSERT_EQ(fired_.size(), want.size())
        << "type=" << event.type() << " at=" << event.timestamp();
    for (size_t i = checked_; i < want.size(); ++i) {
      ASSERT_EQ(fired_[i], want[i])
          << "callback " << i << " type=" << event.type()
          << " at=" << event.timestamp();
    }
    checked_ = want.size();
  }

  /// Compares the accumulated per-query state.
  void ExpectSame() const {
    ASSERT_EQ(engine_.query_count(), query_count_);
    EXPECT_EQ(engine_.events_processed(), events_);
    EXPECT_EQ(engine_.total_detections(), fired_.size());
    for (size_t q = 0; q < query_count_; ++q) {
      EXPECT_EQ(engine_.DetectionsOf(q).value(), oracle_.DetectionsOf(q))
          << "query " << q;
    }
  }

  const StreamingCepEngine& engine() const { return engine_; }
  const Fired& fired() const { return fired_; }

 private:
  StreamingCepEngine engine_;
  BruteForce oracle_;
  Fired fired_;
  size_t checked_ = 0;
  size_t query_count_ = 0;
  size_t events_ = 0;
};

EventTypeId Pick(Rng& rng, const std::vector<EventTypeId>& from) {
  return from[rng.UniformUint64(from.size())];
}

/// A random 1..4-element pattern over `alphabet` (repeats allowed) in a
/// random mode.
Pattern RandomPattern(Rng& rng, const std::vector<EventTypeId>& alphabet) {
  const auto mode = static_cast<DetectionMode>(rng.UniformUint64(3));
  std::vector<EventTypeId> elems(1 + rng.UniformUint64(4));
  for (EventTypeId& t : elems) t = Pick(rng, alphabet);
  return Make(std::move(elems), mode);
}

/// Feeds `n` events drawn from `types`; timestamps never decrease and
/// repeat now and then.
void FeedRandom(Harness& h, Rng& rng, const std::vector<EventTypeId>& types,
                size_t n, Timestamp& now) {
  for (size_t i = 0; i < n; ++i) {
    now += static_cast<Timestamp>(rng.UniformUint64(3));
    ASSERT_NO_FATAL_FAILURE(h.Feed(Event(Pick(rng, types), now)));
  }
}

TEST(StreamingEngineIndexTest, RepeatedTypesInOnePatternStepTheMatcherOnce) {
  constexpr EventTypeId a = 3, b = 9;
  Harness h;
  h.AddQuery(Make({a, a}, DetectionMode::kSequence), 0);
  h.AddQuery(Make({a, a, b}, DetectionMode::kSequence), 0);
  h.AddQuery(Make({a, a}, DetectionMode::kConjunction), 0);
  h.AddQuery(Make({b, b}, DetectionMode::kDisjunction), 0);
  // One `a` cannot complete seq {a, a}: stepping it twice for the same
  // event would.
  ASSERT_NO_FATAL_FAILURE(h.Feed(Event(a, 1)));
  EXPECT_EQ(h.fired(), (Fired{{2, 1}}));
  ASSERT_NO_FATAL_FAILURE(h.Feed(Event(a, 2)));
  ASSERT_NO_FATAL_FAILURE(h.Feed(Event(b, 3)));
  EXPECT_EQ(h.fired(), (Fired{{2, 1}, {0, 2}, {2, 2}, {1, 3}, {3, 3}}));
  EXPECT_EQ(h.engine().RelevantEventTypes(), (std::vector<EventTypeId>{a, b}));

  Rng rng(11);
  Timestamp now = 3;
  ASSERT_NO_FATAL_FAILURE(FeedRandom(h, rng, {a, b, 5}, 2000, now));
  h.ExpectSame();
}

TEST(StreamingEngineIndexTest, OneTypeSharedByManyQueries) {
  constexpr EventTypeId kShared = 7;
  Rng rng(12);
  const std::vector<EventTypeId> alphabet = {1, 2, 3, 4, 5, 6, 8};
  Harness h;
  for (size_t q = 0; q < 96; ++q) {
    Pattern p = RandomPattern(rng, alphabet);
    std::vector<EventTypeId> elems = p.elements();
    elems.insert(elems.begin() + static_cast<std::ptrdiff_t>(
                                     rng.UniformUint64(elems.size() + 1)),
                 kShared);
    h.AddQuery(Make(std::move(elems), p.mode()),
               static_cast<Timestamp>(rng.UniformUint64(20)));
  }
  Timestamp now = 0;
  ASSERT_NO_FATAL_FAILURE(
      FeedRandom(h, rng, {1, 2, 3, 4, 5, 6, 7, 7, 7, 8}, 4000, now));
  h.ExpectSame();
  // Many queries fire on one shared-type event: within-event order is
  // exercised, not just assumed.
  EXPECT_GT(h.fired().size(), 4000u);
}

TEST(StreamingEngineIndexTest, LargeTypeIds) {
  const std::vector<EventTypeId> alphabet = {
      0, 1, 65535, 65536, 70000, kBig, kBig + 1};
  Rng rng(13);
  Harness h;
  for (size_t q = 0; q < 40; ++q) {
    h.AddQuery(RandomPattern(rng, alphabet),
               static_cast<Timestamp>(rng.UniformUint64(30)));
  }
  h.AddQuery(Make({kBig}, DetectionMode::kDisjunction), 0);
  std::vector<EventTypeId> types = alphabet;
  // Unreferenced neighbours of referenced ids.
  types.insert(types.end(), {2, 65534, 65537, kBig - 1, EventTypeId{1} << 31});
  Timestamp now = 0;
  ASSERT_NO_FATAL_FAILURE(FeedRandom(h, rng, types, 4000, now));
  h.ExpectSame();
  EXPECT_FALSE(h.engine().DetectionsOf(40).value().empty());
}

TEST(StreamingEngineIndexTest, UnreferencedTypesStepNoMatcher) {
  Harness h;
  h.AddQuery(Make({1, 2}, DetectionMode::kSequence), 0);
  h.AddQuery(Make({2}, DetectionMode::kDisjunction), 0);
  h.AddQuery(Make({1, 2}, DetectionMode::kConjunction), 0);
  Timestamp now = 0;
  for (EventTypeId t : {EventTypeId{0}, EventTypeId{3}, EventTypeId{100},
                        EventTypeId{1} << 20, kBig}) {
    ASSERT_NO_FATAL_FAILURE(h.Feed(Event(t, ++now)));
  }
  EXPECT_TRUE(h.fired().empty());
  EXPECT_EQ(h.engine().events_processed(), 5u);
  Rng rng(14);
  ASSERT_NO_FATAL_FAILURE(FeedRandom(h, rng, {0, 1, 2, 3, 4}, 2000, now));
  h.ExpectSame();
}

TEST(StreamingEngineIndexTest, ZeroQueries) {
  Harness h;
  Rng rng(15);
  Timestamp now = 0;
  ASSERT_NO_FATAL_FAILURE(FeedRandom(h, rng, {0, 1, 70000, kBig}, 500, now));
  h.ExpectSame();
  EXPECT_TRUE(h.fired().empty());
  EXPECT_EQ(h.engine().events_processed(), 500u);
  EXPECT_TRUE(h.engine().RelevantEventTypes().empty());
}

TEST(StreamingEngineIndexTest, AddQueryAfterEventsHaveFlowed) {
  Rng rng(16);
  const std::vector<EventTypeId> types = {0, 2, 4, 6, 8, 5, 65536, kBig};
  Harness h;
  Timestamp now = 0;
  // Starts with no queries, then grows: new types land before, between
  // and after the indexed ones while events are flowing.
  ASSERT_NO_FATAL_FAILURE(FeedRandom(h, rng, types, 200, now));
  const std::vector<std::vector<EventTypeId>> alphabets = {
      {4, 6}, {8}, {0, 4}, {5, 6}, {2, 8}, {65536, 4}, {kBig, 0, 5}};
  for (const auto& alphabet : alphabets) {
    for (int i = 0; i < 4; ++i) {
      h.AddQuery(RandomPattern(rng, alphabet),
                 static_cast<Timestamp>(rng.UniformUint64(25)));
    }
    ASSERT_NO_FATAL_FAILURE(FeedRandom(h, rng, types, 600, now));
  }
  h.ExpectSame();
  EXPECT_EQ(h.engine().RelevantEventTypes(),
            (std::vector<EventTypeId>{0, 2, 4, 5, 6, 8, 65536, kBig}));
}

/// The first `n` ids from `from` upward whose home bucket in a table of
/// `buckets` buckets is `bucket`.
std::vector<EventTypeId> IdsInBucket(size_t bucket, size_t buckets, size_t n,
                                     EventTypeId from) {
  std::vector<EventTypeId> ids;
  for (EventTypeId t = from; ids.size() < n; ++t) {
    if (StreamingCepEngine::HomeBucket(t, buckets) == bucket) ids.push_back(t);
  }
  return ids;
}

TEST(StreamingEngineIndexTest, CollidingTypesAndAnAbsentOneInTheirCluster) {
  // 25 types fill a 64-bucket table to 25/64: 9 of them share one home
  // bucket (so they also collide in every smaller table the index grew
  // through), and a ninth id with that home bucket is never registered,
  // so looking it up probes through the whole cluster.
  constexpr size_t kBuckets = 64;
  const size_t home = StreamingCepEngine::HomeBucket(kBig, kBuckets);
  std::vector<EventTypeId> colliders = IdsInBucket(home, kBuckets, 9, 0);
  const EventTypeId absent = colliders.back();
  colliders.pop_back();
  colliders.push_back(kBig);
  std::vector<EventTypeId> fillers;
  for (EventTypeId t = 0; fillers.size() < 16; ++t) {
    if (StreamingCepEngine::HomeBucket(t, kBuckets) != home) {
      fillers.push_back(t);
    }
  }
  Rng rng(17);
  Harness h;
  for (EventTypeId t : colliders) {
    h.AddQuery(Make({t}, DetectionMode::kDisjunction), 0);
  }
  for (size_t q = 0; q < 24; ++q) {
    h.AddQuery(RandomPattern(rng, colliders),
               static_cast<Timestamp>(rng.UniformUint64(30)));
  }
  for (EventTypeId t : fillers) {
    h.AddQuery(Make({t, colliders[t % colliders.size()]},
                    DetectionMode::kSequence),
               0);
  }
  ASSERT_EQ(h.engine().index_buckets(), kBuckets);
  ASSERT_EQ(StreamingCepEngine::HomeBucket(absent, kBuckets), home);

  std::vector<EventTypeId> types = colliders;
  types.insert(types.end(), {absent, absent, absent});
  types.insert(types.end(), fillers.begin(), fillers.begin() + 4);
  Timestamp now = 0;
  ASSERT_NO_FATAL_FAILURE(FeedRandom(h, rng, types, 4000, now));
  h.ExpectSame();
  // Every collider's own single-type query fired: no collider was served
  // another type's slot.
  for (size_t q = 0; q < colliders.size(); ++q) {
    EXPECT_FALSE(h.engine().DetectionsOf(q).value().empty()) << "query " << q;
  }
}

TEST(StreamingEngineIndexTest, ExtremeTypeIds) {
  constexpr EventTypeId kLast = kInvalidEventType - 1;
  const std::vector<EventTypeId> alphabet = {0, kBig, kLast};
  Rng rng(18);
  Harness h;
  for (EventTypeId t : alphabet) {
    h.AddQuery(Make({t}, DetectionMode::kDisjunction), 0);
  }
  for (size_t q = 0; q < 12; ++q) {
    h.AddQuery(RandomPattern(rng, alphabet),
               static_cast<Timestamp>(rng.UniformUint64(20)));
  }
  EXPECT_EQ(h.engine().RelevantEventTypes(), alphabet);
  EXPECT_EQ(h.engine().index_buckets(), StreamingCepEngine::kMinIndexBuckets);
  const std::vector<EventTypeId> types = {
      0, kBig, kLast, 1, kBig - 1, kBig + 1, kLast - 1, kInvalidEventType};
  Timestamp now = 0;
  ASSERT_NO_FATAL_FAILURE(FeedRandom(h, rng, types, 3000, now));
  h.ExpectSame();
  for (size_t q = 0; q < alphabet.size(); ++q) {
    EXPECT_FALSE(h.engine().DetectionsOf(q).value().empty()) << "query " << q;
  }
}

TEST(StreamingEngineIndexTest, TableDoublesOnlyWhenTheLoadPassesHalf) {
  // 1 -> 1,024 types, one new type per AddQuery and events in between,
  // through every doubling from the minimum table to 2,048 buckets.
  constexpr size_t kTypes = 1024;
  Rng rng(19);
  std::vector<EventTypeId> registered;
  Harness h;
  Timestamp now = 0;
  for (size_t n = 1; n <= kTypes; ++n) {
    // Scattered ids, the extremes among them.
    const EventTypeId t =
        n == 1 ? 0
        : n == 2 ? kBig
        : n == 3 ? kInvalidEventType - 1
                 : static_cast<EventTypeId>(n * 2654435761u);
    std::vector<EventTypeId> elems = {t};
    if (!registered.empty()) elems.push_back(Pick(rng, registered));
    h.AddQuery(Make(std::move(elems), DetectionMode::kConjunction),
               static_cast<Timestamp>(rng.UniformUint64(10)));
    registered.push_back(t);
    size_t want = StreamingCepEngine::kMinIndexBuckets;
    while (2 * n > want) want *= 2;
    ASSERT_EQ(h.engine().index_buckets(), want) << "types=" << n;
    std::vector<EventTypeId> types = {t, t, Pick(rng, registered),
                                      static_cast<EventTypeId>(t + 1)};
    ASSERT_NO_FATAL_FAILURE(FeedRandom(h, rng, types, 4, now));
  }
  EXPECT_EQ(h.engine().index_buckets(), 2 * kTypes);
  ASSERT_NO_FATAL_FAILURE(FeedRandom(h, rng, registered, 2000, now));
  h.ExpectSame();
  std::sort(registered.begin(), registered.end());
  EXPECT_EQ(h.engine().RelevantEventTypes(), registered);
}

/// Fixed-seed sweep: random query sets over a small or a wide type
/// universe, queries added mid-stream.
class IndexOracleSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(IndexOracleSweep, MatchesBruteForce) {
  Rng rng(GetParam());
  const bool wide = GetParam() % 2 == 1;
  std::vector<EventTypeId> alphabet;
  for (EventTypeId t = 0; t < 12; ++t) {
    alphabet.push_back(wide ? t * 200003u : t);
  }
  std::vector<EventTypeId> types = alphabet;
  types.push_back(wide ? kBig + 7 : 40);  // never referenced
  Harness h;
  Timestamp now = 0;
  for (int round = 0; round < 3; ++round) {
    const size_t adds = 1 + rng.UniformUint64(40);
    for (size_t q = 0; q < adds; ++q) {
      h.AddQuery(RandomPattern(rng, alphabet),
                 static_cast<Timestamp>(rng.UniformUint64(40)));
    }
    ASSERT_NO_FATAL_FAILURE(FeedRandom(h, rng, types, 1500, now));
  }
  h.ExpectSame();
}

INSTANTIATE_TEST_SUITE_P(FixedSeeds, IndexOracleSweep,
                         ::testing::Range<uint64_t>(0, 16));

}  // namespace
}  // namespace pldp
