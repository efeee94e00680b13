// Copyright 2026 The PLDP Authors.
//
// Tests for the repartition/exchange stage (runtime/exchange.h,
// runtime/merge_shard.h, and the two-stage ParallelStreamingEngine).
//
// The central property: for streams whose cross-subject matches are
// key-local — every event of a potential match shares the correlation
// key — the exchange pipeline produces exactly the same per-query
// detection sequence as one sequential StreamingCepEngine over the whole
// stream, for every (stage-1, stage-2) shard combination. The merge
// releases events in exact ingest order, so the equality is positional,
// not just multiset. Edge cases pinned here: empty stage-1 shards, all
// keys hashing to one stage-2 shard (skew), zero-event streams, drain
// barriers with events still in flight on the exchange lanes, and single
// batches far larger than the shard rings.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cep/correlation_key.h"
#include "cep/streaming_engine.h"
#include "common/random.h"
#include "runtime/parallel_engine.h"
#include "stream/event_stream.h"
#include "stream/replay.h"
#include "test_util.h"

namespace pldp {
namespace {

constexpr size_t kTypesPerGroup = 3;
constexpr Timestamp kWindow = 6;

Pattern MakePattern(const char* name, std::vector<EventTypeId> elems,
                    DetectionMode mode) {
  return Pattern::Create(name, std::move(elems), mode).value();
}

/// A cross-subject stream: every event carries a `grp` attribute and a
/// type from that group's private alphabet, but subjects are drawn
/// independently — so group matches span many subjects and no stage-1
/// shard ever sees a whole match. Matches are key-local by construction
/// (group alphabets are disjoint).
EventStream CrossSubjectStream(size_t groups, size_t subjects,
                               size_t num_events, uint64_t seed) {
  Rng rng(seed);
  EventStream stream;
  stream.Reserve(num_events);
  for (size_t i = 0; i < num_events; ++i) {
    const auto group = rng.UniformUint64(groups);
    const auto type = static_cast<EventTypeId>(
        group * kTypesPerGroup + rng.UniformUint64(kTypesPerGroup));
    const auto subject = static_cast<StreamId>(rng.UniformUint64(subjects));
    Event event(type, static_cast<Timestamp>(i / 4), subject);
    event.SetAttribute("grp", Value(static_cast<int64_t>(group)));
    stream.AppendUnchecked(std::move(event));
  }
  return stream;
}

/// A stream whose attributes vary with the event's group (its type's
/// alphabet): group 0 carries none, group 1 two (`grp` and `tag`: exactly
/// Event::kInlineAttrCapacity), group 2 four (spilled to the heap). The
/// first `plain_prefix` events are all group 0, so every shard sees its
/// first attributed event after many plain ones. Group 0 lacks `grp` and
/// keys to 0 under ByAttribute("grp"); matches stay key-local.
constexpr size_t kAttrsOfGroup[] = {0, 2, 4};

/// The value MixedAttributeStream gives attribute `k` of `event`.
int64_t MixedAttributeValue(const Event& event, size_t group, size_t k) {
  return k == 0 ? static_cast<int64_t>(group)
                : event.timestamp() * 1000 + event.stream() * 10 +
                      static_cast<int64_t>(k);
}

EventStream MixedAttributeStream(size_t num_events, size_t plain_prefix,
                                 uint64_t seed) {
  static const char* const kNames[] = {"grp", "tag", "x2", "x3"};
  static_assert(Event::kInlineAttrCapacity == 2,
                "group 1 fills the inline slots, group 2 spills");
  Rng rng(seed);
  EventStream stream;
  stream.Reserve(num_events);
  for (size_t i = 0; i < num_events; ++i) {
    const size_t group = i < plain_prefix ? 0 : rng.UniformUint64(3);
    const auto type = static_cast<EventTypeId>(
        group * kTypesPerGroup + rng.UniformUint64(kTypesPerGroup));
    const auto subject = static_cast<StreamId>(rng.UniformUint64(32));
    Event event(type, static_cast<Timestamp>(i / 4), subject);
    for (size_t k = 0; k < kAttrsOfGroup[group]; ++k) {
      // `grp` names the group; the others derive from the event's own
      // fields, so an event read with another slot's attributes shows.
      event.SetAttribute(kNames[k],
                         Value(MixedAttributeValue(event, group, k)));
    }
    stream.AppendUnchecked(std::move(event));
  }
  return stream;
}

/// Counts the events whose attributes are not the ones
/// MixedAttributeStream gave them.
class AttributeCheckSink : public ShardEventSink {
 public:
  AttributeCheckSink(std::atomic<size_t>* seen, std::atomic<size_t>* wrong)
      : seen_(seen), wrong_(wrong) {}

  void OnShardEvent(const Event& event) override {
    seen_->fetch_add(1);
    if (!Expected(event)) wrong_->fetch_add(1);
  }

 private:
  static bool Expected(const Event& event) {
    const size_t group = event.type() / kTypesPerGroup;
    if (group >= 3 || event.attribute_count() != kAttrsOfGroup[group]) {
      return false;
    }
    for (size_t k = 0; k < event.attribute_count(); ++k) {
      if (event.attribute(k).value !=
          Value(MixedAttributeValue(event, group, k))) {
        return false;
      }
    }
    return true;
  }

  std::atomic<size_t>* seen_;
  std::atomic<size_t>* wrong_;
};

/// One sequence and one conjunction query per group, over the group's
/// alphabet (works for both engine types via their AddQuery/AddCrossQuery).
template <typename AddFn>
void RegisterGroupQueries(AddFn add, size_t groups) {
  for (size_t g = 0; g < groups; ++g) {
    const auto base = static_cast<EventTypeId>(g * kTypesPerGroup);
    ASSERT_TRUE(add(MakePattern("seq", {base, base + 1, base + 2},
                                DetectionMode::kSequence),
                    kWindow)
                    .ok());
    ASSERT_TRUE(add(MakePattern("conj", {base + 2, base},
                                DetectionMode::kConjunction),
                    kWindow)
                    .ok());
  }
}

/// Sequential reference over the full stream.
StreamingCepEngine MakeReference(const EventStream& stream, size_t groups) {
  StreamingCepEngine reference;
  RegisterGroupQueries(
      [&reference](Pattern p, Timestamp w) {
        return reference.AddQuery(std::move(p), w);
      },
      groups);
  for (const Event& e : stream) EXPECT_TRUE(reference.OnEvent(e).ok());
  return reference;
}

/// A two-stage engine configuration plus the correlation key its cross
/// queries are registered under.
struct ExchangeSetup {
  ParallelEngineOptions options;
  CorrelationKeySpec key;

  /// Registers a cross query on the raw-forwarding lane-group of `key`.
  StatusOr<size_t> AddCrossQuery(ParallelStreamingEngine& engine, Pattern p,
                                 Timestamp w) const {
    PLDP_ASSIGN_OR_RETURN(CorrelationKeyFn fn, MakeCorrelationKeyFn(key));
    return engine.AddCrossQuery(std::move(p), w, "key", std::move(fn),
                                /*forward_raw_events=*/true);
  }
};

ExchangeSetup ExchangeConfig(size_t stage1, size_t stage2,
                             CorrelationKeySpec key) {
  ExchangeSetup setup;
  setup.options.shard_count = stage1;
  setup.options.queue_capacity = 128;
  setup.options.exchange.shard_count = stage2;
  // Small lanes: exercise lane backpressure.
  setup.options.exchange.lane_capacity = 64;
  setup.key = std::move(key);
  return setup;
}

TEST(ExchangeEngineTest, CrossDetectionsEqualSequentialEngine) {
  constexpr size_t kGroups = 6;
  const EventStream stream =
      CrossSubjectStream(kGroups, /*subjects=*/32, 20000, /*seed=*/7);
  const StreamingCepEngine reference = MakeReference(stream, kGroups);
  ASSERT_GT(reference.total_detections(), 0u)
      << "degenerate test: the reference detected nothing";

  for (const auto& [stage1, stage2] :
       std::vector<std::pair<size_t, size_t>>{
           {1, 1}, {2, 2}, {4, 4}, {1, 4}, {4, 1}, {2, 3}}) {
    const ExchangeSetup setup = ExchangeConfig(
        stage1, stage2, CorrelationKeySpec::ByAttribute("grp"));
    ParallelStreamingEngine engine(setup.options);
    RegisterGroupQueries(
        [&engine, &setup](Pattern p, Timestamp w) {
          return setup.AddCrossQuery(engine, std::move(p), w);
        },
        kGroups);
    ASSERT_TRUE(engine.Start().ok());

    StreamReplayer replayer;
    replayer.Subscribe(&engine);
    // Run ends with OnEnd → Drain across both stages.
    ASSERT_TRUE(replayer.Run(stream, stage1 % 2 == 0
                                         ? ReplayMode::kBatchPerTick
                                         : ReplayMode::kPerEvent)
                    .ok());

    EXPECT_EQ(engine.total_cross_detections(),
              reference.total_detections())
        << "stage1=" << stage1 << " stage2=" << stage2;
    for (size_t q = 0; q < engine.cross_query_count(); ++q) {
      EXPECT_EQ(engine.CrossDetectionsOf(q).value(),
                reference.DetectionsOf(q).value())
          << "stage1=" << stage1 << " stage2=" << stage2 << " query=" << q;
    }
    // Every ingested event crossed the fabric exactly once (raw-forward
    // mode), whatever the topology.
    size_t forwarded = 0;
    for (const ShardStats& s : engine.ShardStatsSnapshot()) {
      forwarded += s.forwarded;
    }
    EXPECT_EQ(forwarded, stream.size());
    size_t merged = 0;
    for (const ShardStats& s : engine.CrossShardStatsSnapshot()) {
      merged += s.events_processed;
    }
    EXPECT_EQ(merged, stream.size());
    ASSERT_TRUE(engine.Stop().ok());
  }
}

// Satellite edge case: the global key hashes everything onto ONE stage-2
// shard — maximal skew. The other merge shards stay empty and must neither
// stall the drain barrier nor corrupt results.
TEST(ExchangeEngineTest, GlobalKeySkewsToSingleMergeShard) {
  constexpr size_t kGroups = 4;
  const EventStream stream =
      CrossSubjectStream(kGroups, /*subjects=*/16, 8000, /*seed=*/13);
  const StreamingCepEngine reference = MakeReference(stream, kGroups);

  const ExchangeSetup setup =
      ExchangeConfig(/*stage1=*/3, /*stage2=*/4, CorrelationKeySpec::Global());
  ParallelStreamingEngine engine(setup.options);
  RegisterGroupQueries(
      [&engine, &setup](Pattern p, Timestamp w) {
        return setup.AddCrossQuery(engine, std::move(p), w);
      },
      kGroups);
  ASSERT_TRUE(engine.Start().ok());
  for (const Event& e : stream) ASSERT_TRUE(engine.OnEvent(e).ok());
  ASSERT_TRUE(engine.Drain().ok());

  size_t busy_shards = 0;
  for (const ShardStats& s : engine.CrossShardStatsSnapshot()) {
    if (s.events_processed > 0) {
      ++busy_shards;
      EXPECT_EQ(s.events_processed, stream.size());
    }
  }
  EXPECT_EQ(busy_shards, 1u);
  for (size_t q = 0; q < engine.cross_query_count(); ++q) {
    EXPECT_EQ(engine.CrossDetectionsOf(q).value(),
              reference.DetectionsOf(q).value())
        << "query=" << q;
  }
  ASSERT_TRUE(engine.Stop().ok());
}

// Satellite edge case: more stage-1 shards than subjects, so some stage-1
// shards never receive a single event. Their exchange rows only ever carry
// watermarks; the merge must still release everything.
TEST(ExchangeEngineTest, EmptyStageOneShardsDoNotStallTheMerge) {
  constexpr size_t kGroups = 3;
  // One subject: exactly one stage-1 shard of 6 gets traffic.
  const EventStream stream =
      CrossSubjectStream(kGroups, /*subjects=*/1, 6000, /*seed=*/29);
  const StreamingCepEngine reference = MakeReference(stream, kGroups);
  ASSERT_GT(reference.total_detections(), 0u);

  const ExchangeSetup setup = ExchangeConfig(
      /*stage1=*/6, /*stage2=*/2, CorrelationKeySpec::ByAttribute("grp"));
  ParallelStreamingEngine engine(setup.options);
  RegisterGroupQueries(
      [&engine, &setup](Pattern p, Timestamp w) {
        return setup.AddCrossQuery(engine, std::move(p), w);
      },
      kGroups);
  ASSERT_TRUE(engine.Start().ok());
  for (const Event& e : stream) ASSERT_TRUE(engine.OnEvent(e).ok());
  ASSERT_TRUE(engine.Drain().ok());

  size_t idle_shards = 0;
  for (const ShardStats& s : engine.ShardStatsSnapshot()) {
    if (s.events_processed == 0) ++idle_shards;
  }
  EXPECT_GE(idle_shards, 5u);  // all but the one subject's shard
  for (size_t q = 0; q < engine.cross_query_count(); ++q) {
    EXPECT_EQ(engine.CrossDetectionsOf(q).value(),
              reference.DetectionsOf(q).value())
        << "query=" << q;
  }
  ASSERT_TRUE(engine.Stop().ok());
}

// Liveness regression for the same skew: with five silent stage-1 shards,
// the merge must progress *between* barriers, not only at them. Idle
// shards learn the stream's progress from the router's producer floor and
// keep watermarking their lanes; without that, nothing merges until
// Drain() and this poll loop times out.
TEST(ExchangeEngineTest, SilentShardsDoNotStallMergeBetweenBarriers) {
  constexpr size_t kGroups = 3;
  const EventStream stream =
      CrossSubjectStream(kGroups, /*subjects=*/1, 6000, /*seed=*/59);

  const ExchangeSetup setup = ExchangeConfig(
      /*stage1=*/6, /*stage2=*/2, CorrelationKeySpec::ByAttribute("grp"));
  ParallelStreamingEngine engine(setup.options);
  RegisterGroupQueries(
      [&engine, &setup](Pattern p, Timestamp w) {
        return setup.AddCrossQuery(engine, std::move(p), w);
      },
      kGroups);
  ASSERT_TRUE(engine.Start().ok());
  // Per-event ingest crosses the floor-publication period (1024) several
  // times; no drain yet.
  for (const Event& e : stream) ASSERT_TRUE(engine.OnEvent(e).ok());

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  size_t merged = 0;
  while (merged == 0 && std::chrono::steady_clock::now() < deadline) {
    for (const ShardStats& s : engine.CrossShardStatsSnapshot()) {
      merged += s.events_processed;
    }
    if (merged == 0) std::this_thread::yield();
  }
  EXPECT_GT(merged, 0u) << "merge made no progress without a drain barrier";
  ASSERT_TRUE(engine.Drain().ok());
  ASSERT_TRUE(engine.Stop().ok());
}

// Satellite edge case: a zero-event stream must flow end-of-stream through
// both stages (replayer OnEnd → drain barrier at bound 0) without hanging.
TEST(ExchangeEngineTest, ZeroEventStream) {
  const ExchangeSetup setup = ExchangeConfig(
      /*stage1=*/2, /*stage2=*/2, CorrelationKeySpec::ByAttribute("grp"));
  ParallelStreamingEngine engine(setup.options);
  ASSERT_TRUE(setup
                  .AddCrossQuery(engine, MakePattern("p", {0, 1},
                                             DetectionMode::kSequence),
                                 kWindow)
                  .ok());
  ASSERT_TRUE(engine.Start().ok());

  StreamReplayer replayer;
  replayer.Subscribe(&engine);
  ASSERT_TRUE(replayer.Run(EventStream()).ok());

  EXPECT_EQ(engine.events_processed(), 0u);
  EXPECT_EQ(engine.total_cross_detections(), 0u);
  EXPECT_TRUE(engine.CrossDetectionsOf(0).value().empty());
  ASSERT_TRUE(engine.Finish().ok());  // sealing an empty pipeline is fine
  ASSERT_TRUE(engine.Stop().ok());
}

// Satellite edge case: Drain() while the exchange lanes are still full of
// in-flight events must block until stage-2 processed them — and ingestion
// may continue afterwards, across repeated drain cycles.
TEST(ExchangeEngineTest, DrainWithInFlightExchangeLanes) {
  constexpr size_t kGroups = 4;
  const EventStream stream =
      CrossSubjectStream(kGroups, /*subjects=*/16, 12000, /*seed=*/43);
  const size_t half = stream.size() / 2;

  // Separate references for the prefix and the full stream (incremental
  // matching is causal, so prefix detections are a true snapshot).
  StreamingCepEngine prefix_reference;
  RegisterGroupQueries(
      [&prefix_reference](Pattern p, Timestamp w) {
        return prefix_reference.AddQuery(std::move(p), w);
      },
      kGroups);
  for (size_t i = 0; i < half; ++i) {
    ASSERT_TRUE(prefix_reference.OnEvent(stream[i]).ok());
  }
  const StreamingCepEngine full_reference = MakeReference(stream, kGroups);

  const ExchangeSetup setup = ExchangeConfig(
      /*stage1=*/2, /*stage2=*/3, CorrelationKeySpec::ByAttribute("grp"));
  ParallelStreamingEngine engine(setup.options);
  RegisterGroupQueries(
      [&engine, &setup](Pattern p, Timestamp w) {
        return setup.AddCrossQuery(engine, std::move(p), w);
      },
      kGroups);
  ASSERT_TRUE(engine.Start().ok());

  // Burst the whole prefix in and drain immediately: the barrier races
  // events sitting in stage-1 queues, exchange lanes, and reorder buffers.
  for (size_t i = 0; i < half; ++i) {
    ASSERT_TRUE(engine.OnEvent(stream[i]).ok());
  }
  ASSERT_TRUE(engine.Drain().ok());
  EXPECT_EQ(engine.total_cross_detections(),
            prefix_reference.total_detections());
  for (size_t q = 0; q < engine.cross_query_count(); ++q) {
    EXPECT_EQ(engine.CrossDetectionsOf(q).value(),
              prefix_reference.DetectionsOf(q).value())
        << "after first drain, query=" << q;
  }

  // Ingestion continues after the barrier; a second drain must account for
  // everything.
  for (size_t i = half; i < stream.size(); ++i) {
    ASSERT_TRUE(engine.OnEvent(stream[i]).ok());
  }
  ASSERT_TRUE(engine.Drain().ok());
  for (size_t q = 0; q < engine.cross_query_count(); ++q) {
    EXPECT_EQ(engine.CrossDetectionsOf(q).value(),
              full_reference.DetectionsOf(q).value())
        << "after second drain, query=" << q;
  }
  ASSERT_TRUE(engine.Stop().ok());
}

// Stage-1 (per-subject) and stage-2 (cross-subject) queries coexist in one
// pipeline: per-subject sequences over subject alphabets, plus a
// disjunction watching single types across all subjects (single-event
// matches are key-local under any correlation key).
TEST(ExchangeEngineTest, StageOneAndCrossQueriesCoexist) {
  constexpr size_t kSubjects = 8;
  Rng rng(11);
  EventStream stream;
  for (size_t i = 0; i < 10000; ++i) {
    const auto subject = static_cast<StreamId>(rng.UniformUint64(kSubjects));
    const auto type = static_cast<EventTypeId>(
        subject * kTypesPerGroup + rng.UniformUint64(kTypesPerGroup));
    stream.AppendUnchecked(
        Event(type, static_cast<Timestamp>(i / 4), subject));
  }

  // References: per-subject queries on one engine, the cross disjunction on
  // another (both sequential over the full stream).
  StreamingCepEngine subject_reference;
  for (size_t k = 0; k < kSubjects; ++k) {
    const auto base = static_cast<EventTypeId>(k * kTypesPerGroup);
    ASSERT_TRUE(subject_reference
                    .AddQuery(MakePattern("seq", {base, base + 1, base + 2},
                                          DetectionMode::kSequence),
                              kWindow)
                    .ok());
  }
  const Pattern watch =
      MakePattern("watch", {0, 3, 6}, DetectionMode::kDisjunction);
  StreamingCepEngine cross_reference;
  ASSERT_TRUE(cross_reference.AddQuery(watch, kWindow).ok());
  for (const Event& e : stream) {
    ASSERT_TRUE(subject_reference.OnEvent(e).ok());
    ASSERT_TRUE(cross_reference.OnEvent(e).ok());
  }
  ASSERT_GT(subject_reference.total_detections(), 0u);
  ASSERT_GT(cross_reference.total_detections(), 0u);

  const ExchangeSetup setup = ExchangeConfig(
      /*stage1=*/4, /*stage2=*/2, CorrelationKeySpec::ByEventType());
  ParallelStreamingEngine engine(setup.options);
  for (size_t k = 0; k < kSubjects; ++k) {
    const auto base = static_cast<EventTypeId>(k * kTypesPerGroup);
    ASSERT_TRUE(engine
                    .AddQuery(MakePattern("seq", {base, base + 1, base + 2},
                                          DetectionMode::kSequence),
                              kWindow)
                    .ok());
  }
  ASSERT_TRUE(setup.AddCrossQuery(engine, watch, kWindow).ok());
  ASSERT_TRUE(engine.Start().ok());

  StreamReplayer replayer;
  replayer.Subscribe(&engine);
  ASSERT_TRUE(replayer.Run(stream, ReplayMode::kBatchPerTick).ok());

  for (size_t q = 0; q < engine.query_count(); ++q) {
    EXPECT_EQ(engine.DetectionsOf(q).value(),
              subject_reference.DetectionsOf(q).value())
        << "stage-1 query=" << q;
  }
  EXPECT_EQ(engine.CrossDetectionsOf(0).value(),
            cross_reference.DetectionsOf(0).value());
  ASSERT_TRUE(engine.Stop().ok());
}

TEST(ExchangeEngineTest, DeterministicAcrossRuns) {
  constexpr size_t kGroups = 4;
  const EventStream stream =
      CrossSubjectStream(kGroups, /*subjects=*/12, 8000, /*seed=*/3);

  std::vector<std::vector<Timestamp>> first;
  for (int run = 0; run < 2; ++run) {
    const ExchangeSetup setup = ExchangeConfig(
        /*stage1=*/3, /*stage2=*/2, CorrelationKeySpec::ByAttribute("grp"));
    ParallelStreamingEngine engine(setup.options);
    RegisterGroupQueries(
        [&engine, &setup](Pattern p, Timestamp w) {
          return setup.AddCrossQuery(engine, std::move(p), w);
        },
        kGroups);
    ASSERT_TRUE(engine.Start().ok());
    for (const Event& e : stream) ASSERT_TRUE(engine.OnEvent(e).ok());
    ASSERT_TRUE(engine.Drain().ok());

    std::vector<std::vector<Timestamp>> detections;
    for (size_t q = 0; q < engine.cross_query_count(); ++q) {
      detections.push_back(engine.CrossDetectionsOf(q).value());
    }
    ASSERT_TRUE(engine.Stop().ok());
    if (run == 0) {
      first = std::move(detections);
    } else {
      EXPECT_EQ(detections, first);
    }
  }
}

TEST(ExchangeEngineTest, FinishSealsThePipeline) {
  const ExchangeSetup setup = ExchangeConfig(
      /*stage1=*/2, /*stage2=*/2, CorrelationKeySpec::ByEventType());
  ParallelStreamingEngine engine(setup.options);
  ASSERT_TRUE(setup
                  .AddCrossQuery(engine, MakePattern("watch", {0},
                                             DetectionMode::kDisjunction),
                                 kWindow)
                  .ok());
  ASSERT_TRUE(engine.Start().ok());
  ASSERT_TRUE(engine.OnEvent(Event(0, 1, /*stream=*/4)).ok());
  ASSERT_TRUE(engine.Finish().ok());
  ASSERT_TRUE(engine.Finish().ok());  // idempotent
  // Terminal: the ingest gate is closed.
  EXPECT_FALSE(engine.OnEvent(Event(0, 2)).ok());
  EXPECT_EQ(engine.total_cross_detections(), 1u);
  ASSERT_TRUE(engine.Stop().ok());
}

// One OnEventBatch whose per-shard share is several times the shard ring
// must return. Pushing shard by shard used to hang here for good: the
// first shard's ring filled while the second shard had received neither
// an event nor a producer floor, so the merge could not release the first
// shard's output and that shard stalled on its full exchange lane.
TEST(ExchangeEngineTest, OneBatchLargerThanTheRingsDoesNotHang) {
  for (const auto& [capacity, events] :
       std::vector<std::pair<size_t, size_t>>{{1024, 8000},
                                              {4096, 16000}}) {
    const EventStream stream =
        CrossSubjectStream(/*groups=*/1, /*subjects=*/32, events,
                           /*seed=*/41);
    StreamingCepEngine reference;
    const Pattern pattern =
        MakePattern("seq", {0, 1, 2}, DetectionMode::kSequence);
    ASSERT_TRUE(reference.AddQuery(pattern, kWindow).ok());
    for (const Event& e : stream) ASSERT_TRUE(reference.OnEvent(e).ok());
    ASSERT_GT(reference.total_detections(), 0u);

    ExchangeSetup setup = ExchangeConfig(/*stage1=*/2, /*stage2=*/1,
                                         CorrelationKeySpec::Global());
    setup.options.queue_capacity = capacity;
    setup.options.exchange.lane_capacity = capacity;
    ParallelStreamingEngine engine(setup.options);
    ASSERT_TRUE(setup.AddCrossQuery(engine, pattern, kWindow).ok());
    ASSERT_TRUE(engine.Start().ok());
    testing_util::RunWithWatchdog(
        [&] {
          const std::vector<Event>& all = stream.events();
          EXPECT_TRUE(
              engine.OnEventBatch(EventSpan(all.data(), all.size())).ok());
          EXPECT_TRUE(engine.Drain().ok());
        },
        std::chrono::seconds(60));
    EXPECT_EQ(engine.CrossDetectionsOf(0).value(),
              reference.DetectionsOf(0).value())
        << "capacity=" << capacity << " events=" << events;
    EXPECT_EQ(engine.events_processed(), stream.size());
    ASSERT_TRUE(engine.Stop().ok());
  }
}

// The smallest lanes (two slots): producers wait on full lanes all the
// time, watermarks find their lanes holding events and go to the skipped
// bound, and a blocked producer's frontier is often the only bound a merge
// gets. Plain (stage-1) and cross queries, over two lane-groups, must
// still match the sequential engine in both ingest modes.
TEST(ExchangeEngineTest, SmallestLanesMatchTheSequentialEngine) {
  constexpr size_t kSubjects = 6;
  Rng rng(19);
  EventStream stream;
  for (size_t i = 0; i < 6000; ++i) {
    const auto subject = static_cast<StreamId>(rng.UniformUint64(kSubjects));
    const auto type = static_cast<EventTypeId>(
        subject * kTypesPerGroup + rng.UniformUint64(kTypesPerGroup));
    stream.AppendUnchecked(
        Event(type, static_cast<Timestamp>(i / 4), subject));
  }
  const auto plain_pattern = [](size_t subject) {
    const auto base = static_cast<EventTypeId>(subject * kTypesPerGroup);
    return MakePattern("seq", {base, base + 1, base + 2},
                       DetectionMode::kSequence);
  };
  // Cross-subject: types 0 and 3 belong to subjects 0 and 1.
  const Pattern across = MakePattern("across", {0, 3}, DetectionMode::kSequence);
  const Pattern watch =
      MakePattern("watch", {0, 3, 6}, DetectionMode::kDisjunction);

  StreamingCepEngine plain_reference;
  for (size_t k = 0; k < kSubjects; ++k) {
    ASSERT_TRUE(plain_reference.AddQuery(plain_pattern(k), kWindow).ok());
  }
  StreamingCepEngine cross_reference;
  ASSERT_TRUE(cross_reference.AddQuery(across, kWindow).ok());
  ASSERT_TRUE(cross_reference.AddQuery(watch, kWindow).ok());
  for (const Event& e : stream) {
    ASSERT_TRUE(plain_reference.OnEvent(e).ok());
    ASSERT_TRUE(cross_reference.OnEvent(e).ok());
  }
  ASSERT_GT(plain_reference.total_detections(), 0u);
  ASSERT_GT(cross_reference.DetectionsOf(0).value().size(), 0u);

  for (const auto& [stage1, stage2] :
       std::vector<std::pair<size_t, size_t>>{{2, 1}, {3, 2}}) {
    for (const ReplayMode mode :
         {ReplayMode::kPerEvent, ReplayMode::kBatchPerTick}) {
      ParallelEngineOptions options;
      options.shard_count = stage1;
      options.queue_capacity = 128;
      options.exchange.shard_count = stage2;
      options.exchange.lane_capacity = 2;
      ParallelStreamingEngine engine(options);
      for (size_t k = 0; k < kSubjects; ++k) {
        ASSERT_TRUE(engine.AddQuery(plain_pattern(k), kWindow).ok());
      }
      ASSERT_TRUE(engine
                      .AddCrossQuery(across, kWindow, "global",
                                     MakeCorrelationKeyFn(
                                         CorrelationKeySpec::Global())
                                         .value(),
                                     /*forward_raw_events=*/true)
                      .ok());
      ASSERT_TRUE(engine
                      .AddCrossQuery(watch, kWindow, "event-type",
                                     MakeCorrelationKeyFn(
                                         CorrelationKeySpec::ByEventType())
                                         .value(),
                                     /*forward_raw_events=*/true)
                      .ok());
      ASSERT_TRUE(engine.Start().ok());
      testing_util::RunWithWatchdog(
          [&] {
            StreamReplayer replayer;
            replayer.Subscribe(&engine);
            EXPECT_TRUE(replayer.Run(stream, mode).ok());
            EXPECT_TRUE(engine.Finish().ok());
          },
          std::chrono::seconds(60));
      const std::string where = "stage1=" + std::to_string(stage1) +
                                " stage2=" + std::to_string(stage2) +
                                " mode=" + std::to_string(static_cast<int>(mode));
      for (size_t q = 0; q < kSubjects; ++q) {
        EXPECT_EQ(engine.DetectionsOf(q).value(),
                  plain_reference.DetectionsOf(q).value())
            << where << " plain query=" << q;
      }
      for (size_t q = 0; q < 2; ++q) {
        EXPECT_EQ(engine.CrossDetectionsOf(q).value(),
                  cross_reference.DetectionsOf(q).value())
            << where << " cross query=" << q;
      }
      ASSERT_TRUE(engine.Stop().ok());
    }
  }
}

// An exchange aborted mid-stream must not lose raw forwards silently: the
// shard latches its first failed Emit and the barrier reports it.
TEST(ExchangeEngineTest, AbortedExchangeFailsFinishWithTheFirstEmitError) {
  const EventStream stream =
      CrossSubjectStream(/*groups=*/1, /*subjects=*/32, 200000, /*seed=*/5);
  ExchangeSetup setup = ExchangeConfig(/*stage1=*/2, /*stage2=*/1,
                                       CorrelationKeySpec::Global());
  setup.options.exchange.lane_capacity = 2;
  ParallelStreamingEngine engine(setup.options);
  ASSERT_TRUE(setup
                  .AddCrossQuery(engine,
                                 MakePattern("seq", {0, 1, 2},
                                             DetectionMode::kSequence),
                                 kWindow)
                  .ok());
  ASSERT_TRUE(engine.Start().ok());
  const std::vector<Event>& all = stream.events();
  const size_t half = all.size() / 2;
  testing_util::RunWithWatchdog(
      [&] {
        EXPECT_TRUE(engine.OnEventBatch(EventSpan(all.data(), half)).ok());
        EXPECT_TRUE(engine.Drain().ok());
        engine.AbortExchange();
        // Ingest itself still succeeds: the loss is downstream of it.
        EXPECT_TRUE(
            engine.OnEventBatch(EventSpan(all.data() + half, half)).ok());
        const Status finish = engine.Finish();
        EXPECT_EQ(finish.code(), StatusCode::kFailedPrecondition) << finish;
        EXPECT_NE(finish.message().find("exchange fabric aborted"),
                  std::string::npos)
            << finish;
      },
      std::chrono::seconds(60));
  EXPECT_EQ(engine.events_processed(), all.size());
  EXPECT_FALSE(engine.Stop().ok());
}

// Shard ring slots are 32-byte headers; an attributed event travels whole
// in the shard's attribute array at the same ring position. Four-slot
// rings reuse every position many times over for plain, inline and
// spilled events alike, and each shard's first attributed event comes
// after hundreds of plain ones. Every event must reach the sink with its
// own attributes, and the queries keyed by an attribute must match the
// sequential engine: through batch ingest (ClaimSlot/Stamp, AwaitSlot on
// the full ring) and through the admission layer, which pushes with
// TryPushStampedN and PushStampedN (its pending buffer holds the whole
// stream, so nothing is shed).
TEST(ExchangeEngineTest, AttributesSurviveFourSlotHeaderRings) {
  constexpr size_t kGroups = 3;
  const EventStream stream =
      MixedAttributeStream(8000, /*plain_prefix=*/600, /*seed=*/29);
  const StreamingCepEngine reference = MakeReference(stream, kGroups);
  ASSERT_GT(reference.total_detections(), 0u);

  for (const OverloadPolicy policy :
       {OverloadPolicy::kBlock, OverloadPolicy::kShedOldest}) {
    ExchangeSetup setup = ExchangeConfig(
        /*stage1=*/2, /*stage2=*/3, CorrelationKeySpec::ByAttribute("grp"));
    setup.options.queue_capacity = 4;
    setup.options.exchange.lane_capacity = 4;
    setup.options.overload.policy = policy;
    setup.options.overload.pending_capacity = stream.size();
    ParallelStreamingEngine engine(setup.options);
    RegisterGroupQueries(
        [&](Pattern p, Timestamp w) {
          return setup.AddCrossQuery(engine, std::move(p), w);
        },
        kGroups);
    std::atomic<size_t> seen{0};
    std::atomic<size_t> wrong{0};
    for (size_t i = 0; i < engine.shard_count(); ++i) {
      ASSERT_TRUE(engine
                      .SetShardSink(i, std::make_unique<AttributeCheckSink>(
                                           &seen, &wrong))
                      .ok());
    }
    ASSERT_TRUE(engine.Start().ok());
    testing_util::RunWithWatchdog(
        [&] {
          const std::vector<Event>& all = stream.events();
          for (size_t i = 0; i < all.size(); i += 50) {
            const size_t n = std::min<size_t>(50, all.size() - i);
            ASSERT_TRUE(engine.OnEventBatch(EventSpan(&all[i], n)).ok());
          }
          ASSERT_TRUE(engine.Drain().ok());
        },
        std::chrono::seconds(60));
    const std::string where =
        std::string("policy=") + OverloadPolicyName(policy);
    EXPECT_EQ(seen.load(), stream.size()) << where;
    EXPECT_EQ(wrong.load(), 0u) << where;
    for (size_t q = 0; q < reference.query_count(); ++q) {
      EXPECT_EQ(engine.CrossDetectionsOf(q).value(),
                reference.DetectionsOf(q).value())
          << where << " query=" << q;
    }
    ASSERT_TRUE(engine.Stop().ok());
  }
}

// The same stream pushed pre-stamped into one shard with a four-slot ring
// (PushStampedN, in chunks larger than the ring): the shard engine and
// its sink see every event with its own attributes, in order.
TEST(ExchangeEngineTest, AttributesSurvivePushStampedNOnAFourSlotRing) {
  constexpr size_t kGroups = 3;
  const EventStream stream =
      MixedAttributeStream(4000, /*plain_prefix=*/600, /*seed=*/31);
  const StreamingCepEngine reference = MakeReference(stream, kGroups);
  ASSERT_GT(reference.total_detections(), 0u);

  Shard shard(0, /*queue_capacity=*/4);
  RegisterGroupQueries(
      [&shard](Pattern p, Timestamp w) {
        return shard.AddQuery(std::move(p), w);
      },
      kGroups);
  std::atomic<size_t> seen{0};
  std::atomic<size_t> wrong{0};
  ASSERT_TRUE(
      shard.SetEventSink(std::make_unique<AttributeCheckSink>(&seen, &wrong))
          .ok());
  ASSERT_TRUE(shard.Start().ok());
  testing_util::RunWithWatchdog(
      [&] {
        std::vector<StampedEvent> chunk;
        uint64_t seq = 0;
        for (const Event& e : stream) {
          chunk.push_back(StampedEvent{seq++, e});
          if (chunk.size() == 7) {
            ASSERT_TRUE(shard.PushStampedN(chunk.data(), chunk.size()).ok());
            chunk.clear();
          }
        }
        ASSERT_TRUE(shard.PushStampedN(chunk.data(), chunk.size()).ok());
        ASSERT_TRUE(shard.Drain().ok());
      },
      std::chrono::seconds(60));
  EXPECT_EQ(seen.load(), stream.size());
  EXPECT_EQ(wrong.load(), 0u);
  for (size_t q = 0; q < reference.query_count(); ++q) {
    EXPECT_EQ(shard.engine().DetectionsOf(q).value(),
              reference.DetectionsOf(q).value())
        << "query=" << q;
  }
  ASSERT_TRUE(shard.Stop().ok());
}

TEST(ExchangeEngineTest, LifecycleErrors) {
  ParallelEngineOptions options;
  options.shard_count = 2;
  ParallelStreamingEngine engine(options);
  // A lane-group needs a key extractor; unknown cross indices are refused.
  EXPECT_FALSE(engine
                   .AddCrossQuery(MakePattern("p", {0},
                                              DetectionMode::kDisjunction),
                                  kWindow, "key", nullptr,
                                  /*forward_raw_events=*/true)
                   .ok());
  EXPECT_FALSE(engine.CrossDetectionsOf(0).ok());
}

}  // namespace
}  // namespace pldp
