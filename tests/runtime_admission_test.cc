// Copyright 2026 The PLDP Authors.
//
// Tests for the ingest admission/shedding layer (runtime/admission.h,
// runtime/overload.h) and its engine integration.
//
// The unit tests drive an AdmissionQueue against shards whose workers are
// not running (TryPushStampedN accepts nothing then), so every park/shed
// decision is fully deterministic — no timing, no threads. The engine
// tests pin the two contracts that make shedding safe to turn on: a run
// in which nothing is shed is bit-identical to the blocking default, and
// when events ARE shed the accounting is exact — admitted + shed equals
// everything offered, and quality::SheddingStats turns that into a recall
// floor.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "api/pipeline_builder.h"
#include "common/random.h"
#include "quality/metrics.h"
#include "runtime/admission.h"
#include "runtime/overload.h"
#include "runtime/parallel_engine.h"
#include "runtime/shard.h"
#include "stream/event_stream.h"

namespace pldp {
namespace {

constexpr Timestamp kWindow = 6;

Pattern MakePattern(const char* name, std::vector<EventTypeId> elems,
                    DetectionMode mode) {
  return Pattern::Create(name, std::move(elems), mode).value();
}

StampedEvent Stamped(uint64_t seq, EventTypeId type, StreamId subject) {
  StampedEvent s;
  s.seq = seq;
  s.event = Event(type, static_cast<Timestamp>(seq), subject);
  return s;
}

// --- Policy plumbing -------------------------------------------------------

TEST(OverloadPolicyTest, NamesRoundTripThroughTheParser) {
  for (OverloadPolicy policy :
       {OverloadPolicy::kBlock, OverloadPolicy::kShedOldest,
        OverloadPolicy::kShedBySubject}) {
    auto parsed = ParseOverloadPolicy(OverloadPolicyName(policy));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(parsed.value(), policy);
  }
  EXPECT_TRUE(ParseOverloadPolicy("drop-everything").status()
                  .IsInvalidArgument());
}

// --- AdmissionQueue unit tests (deterministic: worker not running) ---------

TEST(AdmissionQueueTest, ShedOldestDropsOldestParkedEventDeterministically) {
  Shard shard(0, /*queue_capacity=*/8);
  OverloadOptions options;
  options.policy = OverloadPolicy::kShedOldest;
  options.pending_capacity = 4;
  std::atomic<uint64_t> pushed{0};
  AdmissionQueue admission(options, {&shard}, &pushed);

  // Worker not running: the queue accepts nothing, everything parks.
  for (uint64_t seq = 0; seq < 4; ++seq) {
    EXPECT_TRUE(admission.Offer(0, Stamped(seq, 0, 1)));
  }
  EXPECT_EQ(admission.pending_total(), 4u);
  EXPECT_EQ(admission.shed_total(), 0u);
  EXPECT_EQ(admission.ClampFloor(100), 0u);  // oldest parked is seq 0

  // Overflow: each new offer evicts the oldest parked event, exactly.
  EXPECT_TRUE(admission.Offer(0, Stamped(4, 0, 1)));
  EXPECT_EQ(admission.shed_total(), 1u);     // seq 0 gone
  EXPECT_EQ(admission.ClampFloor(100), 1u);  // oldest parked is now seq 1
  EXPECT_TRUE(admission.Offer(0, Stamped(5, 0, 1)));
  EXPECT_TRUE(admission.Offer(0, Stamped(6, 0, 1)));
  EXPECT_EQ(admission.shed_total(), 3u);     // seqs 0, 1, 2 gone
  EXPECT_EQ(admission.pending_total(), 4u);  // still capped
  EXPECT_EQ(admission.shed(0), 3u);

  // Start the worker and flush: the surviving four (seqs 3..6) land, in
  // order, and the floor clamp lifts.
  ASSERT_TRUE(shard.Start().ok());
  ASSERT_TRUE(admission.FlushBlocking().ok());
  EXPECT_EQ(admission.pending_total(), 0u);
  EXPECT_EQ(pushed.load(), 4u);
  EXPECT_EQ(admission.ClampFloor(100), 100u);
  ASSERT_TRUE(shard.Drain().ok());
  EXPECT_EQ(shard.stats().events_processed, 4u);
  ASSERT_TRUE(shard.Stop().ok());
}

TEST(AdmissionQueueTest, ShedBySubjectQuarantinesOverflowingSubjects) {
  Shard shard(0, /*queue_capacity=*/8);
  OverloadOptions options;
  options.policy = OverloadPolicy::kShedBySubject;
  options.pending_capacity = 2;
  std::atomic<uint64_t> pushed{0};
  AdmissionQueue admission(options, {&shard}, &pushed);

  const Event subject_a(0, 0, /*subject=*/1);
  const Event subject_b(0, 0, /*subject=*/2);

  // Nothing shed yet: no subject is quarantined.
  EXPECT_FALSE(admission.ShouldShedBeforeStamp(0, subject_a));
  EXPECT_TRUE(admission.Offer(0, Stamped(0, 0, 1)));
  EXPECT_TRUE(admission.Offer(0, Stamped(1, 0, 1)));

  // Subject 2 overflows the full pending buffer: its event is dropped and
  // the subject joins the shed set — but subject 1's parked events stay.
  EXPECT_FALSE(admission.Offer(0, Stamped(2, 0, 2)));
  EXPECT_EQ(admission.shed_total(), 1u);
  EXPECT_TRUE(admission.ShouldShedBeforeStamp(0, subject_b));
  EXPECT_EQ(admission.shed_total(), 2u);  // the pre-stamp check counts too
  EXPECT_FALSE(admission.ShouldShedBeforeStamp(0, subject_a));

  // Subject 1 overflows as well: it joins the set alongside subject 2.
  EXPECT_FALSE(admission.Offer(0, Stamped(3, 0, 1)));
  EXPECT_TRUE(admission.ShouldShedBeforeStamp(0, subject_a));
  EXPECT_EQ(admission.shed_total(), 4u);
  EXPECT_EQ(admission.pending_total(), 2u);

  // Episode end: the pending buffers drain, the shed set clears, both
  // subjects are admitted again.
  ASSERT_TRUE(shard.Start().ok());
  ASSERT_TRUE(admission.FlushBlocking().ok());
  EXPECT_EQ(admission.pending_total(), 0u);
  EXPECT_FALSE(admission.ShouldShedBeforeStamp(0, subject_a));
  EXPECT_FALSE(admission.ShouldShedBeforeStamp(0, subject_b));
  EXPECT_EQ(admission.shed_total(), 4u);  // clearing the set sheds nothing
  EXPECT_EQ(pushed.load(), 2u);
  ASSERT_TRUE(shard.Stop().ok());
}

TEST(AdmissionQueueTest, BlockPolicyParksWithoutCapAndShedsNothing) {
  Shard shard(0, /*queue_capacity=*/8);
  OverloadOptions options;
  options.policy = OverloadPolicy::kBlock;
  options.pending_capacity = 2;
  std::atomic<uint64_t> pushed{0};
  AdmissionQueue admission(options, {&shard}, &pushed);

  for (uint64_t seq = 0; seq < 16; ++seq) {
    EXPECT_TRUE(admission.Offer(0, Stamped(seq, 0, 1)));
  }
  EXPECT_EQ(admission.pending_total(), 16u);
  EXPECT_EQ(admission.shed_total(), 0u);

  ASSERT_TRUE(shard.Start().ok());
  ASSERT_TRUE(admission.FlushBlocking().ok());
  EXPECT_EQ(pushed.load(), 16u);
  ASSERT_TRUE(shard.Stop().ok());
}

TEST(AdmissionQueueTest, PumpFlushesOpportunisticallyOnceTheQueueHasRoom) {
  Shard shard(0, /*queue_capacity=*/8);
  OverloadOptions options;
  options.policy = OverloadPolicy::kShedOldest;
  options.pending_capacity = 4;
  std::atomic<uint64_t> pushed{0};
  AdmissionQueue admission(options, {&shard}, &pushed);

  for (uint64_t seq = 0; seq < 3; ++seq) {
    EXPECT_TRUE(admission.Offer(0, Stamped(seq, 0, 1)));
  }
  admission.Pump();  // worker down: nothing moves
  EXPECT_EQ(admission.pending_total(), 3u);

  ASSERT_TRUE(shard.Start().ok());
  admission.Pump();
  EXPECT_EQ(admission.pending_total(), 0u);
  EXPECT_EQ(pushed.load(), 3u);
  ASSERT_TRUE(shard.Stop().ok());
}

// --- Engine integration ----------------------------------------------------

/// Feeds `stream` through an engine configured with `overload` and returns
/// the per-query detections. Ingest is paced (chunks no larger than the
/// queue, a drain barrier between chunks) so the run is PROVABLY lossless:
/// a queue that is empty at every chunk start can never overflow, so the
/// shedding policies have nothing to drop and must reproduce the blocking
/// run exactly. An unpaced feed would legitimately shed — that regime is
/// covered by StalledShardShedsAndAccountsForEveryEvent below.
std::vector<std::vector<Timestamp>> RunWithPolicy(
    const EventStream& stream, const std::vector<Pattern>& patterns,
    size_t shards, OverloadOptions overload, uint64_t* shed_out) {
  constexpr size_t kChunk = 64;
  ParallelEngineOptions options;
  options.shard_count = shards;
  options.queue_capacity = 128;
  options.overload = overload;
  ParallelStreamingEngine engine(options);
  for (const Pattern& p : patterns) {
    EXPECT_TRUE(engine.AddQuery(p, kWindow).ok());
  }
  EXPECT_TRUE(engine.Start().ok());
  const std::vector<Event>& events = stream.events();
  for (size_t i = 0; i < events.size(); i += kChunk) {
    const size_t n = std::min(kChunk, events.size() - i);
    EXPECT_TRUE(engine.OnEventBatch(EventSpan(events.data() + i, n)).ok());
    EXPECT_TRUE(engine.Drain().ok());
  }
  std::vector<std::vector<Timestamp>> out;
  for (size_t q = 0; q < patterns.size(); ++q) {
    out.push_back(engine.DetectionsOf(q).value());
  }
  if (shed_out != nullptr) *shed_out = engine.events_shed();
  EXPECT_TRUE(engine.Stop().ok());
  return out;
}

/// Per-subject alphabet stream (matches are subject-local).
EventStream SubjectStream(size_t subjects, size_t num_events,
                          uint64_t seed) {
  Rng rng(seed);
  EventStream stream;
  stream.Reserve(num_events);
  for (size_t i = 0; i < num_events; ++i) {
    const auto subject = static_cast<StreamId>(rng.UniformUint64(subjects));
    const auto type =
        static_cast<EventTypeId>(subject * 3 + rng.UniformUint64(3));
    stream.AppendUnchecked(
        Event(type, static_cast<Timestamp>(i / 4), subject));
  }
  return stream;
}

TEST(AdmissionEngineTest, NoShedRunIsBitIdenticalToBlockingPolicy) {
  constexpr size_t kSubjects = 8;
  const EventStream stream = SubjectStream(kSubjects, 20000, /*seed=*/17);
  std::vector<Pattern> patterns;
  for (size_t s = 0; s < kSubjects; ++s) {
    const auto base = static_cast<EventTypeId>(s * 3);
    patterns.push_back(MakePattern("seq", {base, base + 1, base + 2},
                                   DetectionMode::kSequence));
  }

  for (size_t shards : {1u, 2u, 4u}) {
    OverloadOptions block;  // the lossless default
    uint64_t shed = 0;
    const auto reference =
        RunWithPolicy(stream, patterns, shards, block, &shed);
    ASSERT_EQ(shed, 0u);

    for (OverloadPolicy policy :
         {OverloadPolicy::kShedOldest, OverloadPolicy::kShedBySubject}) {
      OverloadOptions overload;
      overload.policy = policy;
      const auto shedding =
          RunWithPolicy(stream, patterns, shards, overload, &shed);
      // Ample queues: nothing was shed, so the run must be bit-identical
      // (positional equality per query, not just counts).
      EXPECT_EQ(shed, 0u) << "policy=" << OverloadPolicyName(policy)
                          << " shards=" << shards;
      EXPECT_EQ(shedding, reference)
          << "policy=" << OverloadPolicyName(policy) << " shards=" << shards;
    }
  }
}

TEST(AdmissionEngineTest, StalledShardShedsAndAccountsForEveryEvent) {
  // One shard whose worker blocks inside a detection callback: the queue
  // fills, the pending buffer fills, and kShedOldest starts dropping —
  // while the ingest thread (this thread) never blocks.
  ParallelEngineOptions options;
  options.shard_count = 1;
  options.queue_capacity = 8;
  options.overload.policy = OverloadPolicy::kShedOldest;
  options.overload.pending_capacity = 4;
  ParallelStreamingEngine engine(options);
  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  std::atomic<bool> blocked{false};
  ASSERT_TRUE(
      engine
          .AddQuery(MakePattern("seq", {0, 1}, DetectionMode::kSequence),
                    kWindow,
                    [&](Timestamp) {
                      std::unique_lock<std::mutex> lock(mu);
                      blocked.store(true);
                      cv.wait(lock, [&] { return release; });
                    })
          .ok());
  ASSERT_TRUE(engine.Start().ok());

  // Trigger the detection, then wait until the worker is provably stuck.
  ASSERT_TRUE(engine.OnEvent(Event(0, 0, /*subject=*/1)).ok());
  ASSERT_TRUE(engine.OnEvent(Event(1, 1, /*subject=*/1)).ok());
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (!blocked.load() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_TRUE(blocked.load()) << "worker never reached the callback";

  // Flood a stalled shard. Under kShedOldest every OnEvent returns OK
  // immediately — overload becomes shedding, not ingest latency.
  constexpr size_t kFlood = 2000;
  for (size_t i = 0; i < kFlood; ++i) {
    ASSERT_TRUE(
        engine.OnEvent(Event(2, static_cast<Timestamp>(2 + i), 1)).ok());
  }
  // The stalled shard can hold at most queue + pending events; everything
  // beyond that bound must have been shed already.
  EXPECT_GE(engine.events_shed(),
            kFlood - options.queue_capacity - options.overload.pending_capacity -
                1);

  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  ASSERT_TRUE(engine.Drain().ok());

  // Exact conservation: every offered event was either admitted (and
  // processed) or counted as shed — nothing vanishes.
  const uint64_t offered = 2 + kFlood;
  const SheddingStats stats = engine.shedding_stats();
  EXPECT_EQ(stats.offered(), offered);
  EXPECT_EQ(stats.admitted, engine.events_processed());
  EXPECT_GT(stats.shed, 0u);
  EXPECT_LT(stats.RecallLowerBound(), 1.0);
  EXPECT_GT(stats.RecallLowerBound(), 0.0);
  EXPECT_EQ(engine.DetectionsOf(0).value().size(), 1u);
  ASSERT_TRUE(engine.Stop().ok());
}

// --- PipelineBuilder surface ----------------------------------------------

TEST(AdmissionBuilderTest, OverloadPolicyRidesThroughTheBuilder) {
  const EventStream stream = SubjectStream(4, 5000, /*seed=*/23);
  // A 1-shard budget is a one-worker runtime with a queue like any other,
  // so the policy rides through there too.
  for (size_t shards : {1u, 2u}) {
    PipelineBuilder builder;
    QueryHandle q = builder.AddQuery(
        MakePattern("seq", {0, 1, 2}, DetectionMode::kSequence), kWindow);
    auto pipeline_or = builder.WithShards(shards)
                           .WithOverloadPolicy(OverloadPolicy::kShedOldest,
                                               /*pending_capacity=*/64)
                           .Build();
    ASSERT_TRUE(pipeline_or.ok()) << pipeline_or.status().ToString();
    Pipeline& pipeline = *pipeline_or.value();
    EXPECT_EQ(pipeline.plan().overload_policy, OverloadPolicy::kShedOldest);
    EXPECT_NE(pipeline.plan().Describe().find("shed-oldest"),
              std::string::npos);

    // Paced feed (see RunWithPolicy): this run must be lossless so the
    // recall floor below can certify exactly that.
    const std::vector<Event>& events = stream.events();
    for (size_t i = 0; i < events.size(); i += 64) {
      const size_t n = std::min<size_t>(64, events.size() - i);
      ASSERT_TRUE(
          pipeline.OnEventBatch(EventSpan(events.data() + i, n)).ok());
      ASSERT_TRUE(pipeline.Drain().ok());
    }
    auto finished_or = pipeline.Finish();
    ASSERT_TRUE(finished_or.ok());
    ASSERT_TRUE(finished_or.value().Detections(q).ok());

    // Ample capacity: a lossless run, certified by the recall floor.
    EXPECT_EQ(pipeline.events_shed(), 0u) << "shards=" << shards;
    EXPECT_EQ(pipeline.shedding_stats().RecallLowerBound(), 1.0)
        << "shards=" << shards;
  }
}

TEST(AdmissionBuilderTest, MixedPipelineShedsEachEventOnce) {
  // Plain, cross, and private lanes on one stalled stage-1 shard: a plain
  // detection callback blocks the worker, the queue and the pending buffer
  // fill, and kShedOldest drops. One admission layer serves every lane, so
  // each offered event is admitted or shed exactly once.
  PipelineBuilder builder;
  for (size_t t = 0; t < 3; ++t) {
    (void)builder.InternEventType("t" + std::to_string(t));
  }
  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  std::atomic<bool> blocked{false};
  builder.AddQuery(MakePattern("seq", {0, 1}, DetectionMode::kSequence),
                   kWindow)
      .OnDetection([&](Timestamp) {
        std::unique_lock<std::mutex> lock(mu);
        blocked.store(true);
        cv.wait(lock, [&] { return release; });
      });
  (void)builder.AddCrossQuery(
      MakePattern("cross", {0, 2}, DetectionMode::kConjunction), kWindow,
      CorrelationKey::Global());
  builder.AddPrivatePattern(
      MakePattern("private", {0, 1}, DetectionMode::kConjunction));
  (void)builder.AddPrivateQuery(
      "q", MakePattern("target", {1, 2}, DetectionMode::kConjunction));
  auto pipeline_or = builder.WithShards(1)
                         .WithQueueCapacity(8)
                         .WithOverloadPolicy(OverloadPolicy::kShedOldest,
                                             /*pending_capacity=*/4)
                         .WithPrivacyWindow(5)
                         .WithMechanism("uniform")
                         .WithEpsilon(1.0)
                         .Build();
  ASSERT_TRUE(pipeline_or.ok()) << pipeline_or.status().ToString();
  Pipeline& pipeline = *pipeline_or.value();

  // Trigger the detection, then wait until the worker is provably stuck.
  ASSERT_TRUE(pipeline.OnEvent(Event(0, 0, /*subject=*/1)).ok());
  ASSERT_TRUE(pipeline.OnEvent(Event(1, 1, /*subject=*/1)).ok());
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (!blocked.load() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_TRUE(blocked.load()) << "worker never reached the callback";

  constexpr size_t kFlood = 2000;
  for (size_t i = 0; i < kFlood; ++i) {
    ASSERT_TRUE(
        pipeline.OnEvent(Event(2, static_cast<Timestamp>(2 + i), 1)).ok());
  }
  EXPECT_GT(pipeline.events_shed(), 0u);
  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  ASSERT_TRUE(pipeline.Drain().ok());

  const SheddingStats stats = pipeline.shedding_stats();
  EXPECT_EQ(stats.offered(), 2 + kFlood);
  size_t processed = 0;
  for (const ShardStats& s : pipeline.ShardStatsSnapshot()) {
    processed += s.events_processed;
  }
  EXPECT_EQ(stats.admitted, processed);
  ASSERT_TRUE(pipeline.Finish().ok());
}

}  // namespace
}  // namespace pldp
