// Copyright 2026 The PLDP Authors.
//
// Tests for the exchange's lane-capacity flow control (runtime/exchange.h)
// and the in-place merge over the lanes (runtime/merge_shard.h) —
// docs/ARCHITECTURE.md, "Lane-capacity flow control".
//
// What is pinned here:
//   - a lane's capacity is the in-flight budget: emitting a full lane
//     never waits, one more does, and a blocked producer holds at most
//     capacity-many events in its lane;
//   - a stalled or absent consumer BACKPRESSURES its producers — the
//     blocked producer spins allocation-free (alloc-hook-verified) instead
//     of buffering without bound;
//   - a watermark that finds its lane full still reaches the merge once the
//     lane drains;
//   - input-lane saturation drives the /healthz degraded rule;
//   - under permanent starvation (tiny lanes) the two-stage pipeline still
//     drains, finishes, and produces detections positionally identical to
//     a sequential engine — flow control changes latency, never results.

#define PLDP_ENABLE_ALLOC_HOOK
#include "bench/bench_util.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cep/correlation_key.h"
#include "cep/streaming_engine.h"
#include "common/random.h"
#include "obs/health.h"
#include "runtime/exchange.h"
#include "runtime/merge_shard.h"
#include "runtime/parallel_engine.h"
#include "stream/event_stream.h"
#include "stream/replay.h"

namespace pldp {
namespace {

constexpr size_t kTypesPerGroup = 3;
constexpr Timestamp kWindow = 6;

Pattern MakePattern(const char* name, std::vector<EventTypeId> elems,
                    DetectionMode mode) {
  return Pattern::Create(name, std::move(elems), mode).value();
}

bool PollUntil(const std::function<bool()>& done,
               std::chrono::seconds deadline = std::chrono::seconds(30)) {
  const auto until = std::chrono::steady_clock::now() + deadline;
  while (std::chrono::steady_clock::now() < until) {
    if (done()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return done();
}

// --- Raw fabric: the lane is the budget -------------------------------------

TEST(FlowControlTest, LaneCapacityIsTheInFlightBudget) {
  ExchangeFabric fabric(/*producers=*/1, /*consumers=*/1,
                        /*lane_capacity=*/4);
  MergeShard merge(0, fabric.Column(0));
  EXPECT_EQ(merge.input_capacity(), 4u);
  ExchangeEmitter emitter(fabric.Row(0), /*key_fn=*/nullptr, &fabric);

  // Emitting exactly the lane's capacity never waits.
  for (uint64_t seq = 0; seq < 4; ++seq) {
    emitter.BeginTrigger(seq);
    ASSERT_TRUE(emitter.Emit(Event(0, static_cast<Timestamp>(seq), 1)).ok());
  }
  EXPECT_EQ(merge.input_depth(), 4u);
  EXPECT_EQ(emitter.stats().backpressure_waits, 0u);
  EXPECT_EQ(emitter.stats().forwarded, 4u);

  // The terminal watermark finds the lane full and skips it; the merge
  // still learns the bound once it has drained the lane.
  ASSERT_TRUE(emitter.Broadcast(kExchangeSeqEnd).ok());
  EXPECT_EQ(merge.input_depth(), 4u);
  ASSERT_TRUE(merge.Start().ok());
  ASSERT_TRUE(merge.WaitSafe(kExchangeSeqEnd).ok());
  EXPECT_EQ(merge.stats().events_processed, 4u);
  EXPECT_EQ(merge.input_depth(), 0u);
  ASSERT_TRUE(merge.Stop().ok());
}

TEST(FlowControlTest, AbsentConsumerBackpressuresTheProducerBoundedly) {
  // No merge shard at all: nobody ever frees a slot. The producer must
  // stop once the lane is full — blocked, bounded, and allocation-free —
  // and fail fast once the fabric aborts.
  ExchangeFabric fabric(/*producers=*/1, /*consumers=*/1,
                        /*lane_capacity=*/4);
  ExchangeEmitter emitter(fabric.Row(0), /*key_fn=*/nullptr, &fabric);

  std::atomic<size_t> emitted{0};
  Status blocked_status = Status::OK();
  std::thread producer([&] {
    for (uint64_t seq = 0; seq < 10000; ++seq) {
      emitter.BeginTrigger(seq);
      Status s = emitter.Emit(Event(0, static_cast<Timestamp>(seq), 1));
      if (!s.ok()) {
        blocked_status = s;
        return;
      }
      emitted.fetch_add(1, std::memory_order_relaxed);
    }
  });

  ASSERT_TRUE(
      PollUntil([&] { return emitter.stats().backpressure_waits >= 1; }))
      << "producer never hit the full lane";
  EXPECT_EQ(emitted.load(), 4u);
  // In flight: exactly the lane's slots. The frontier the blocked producer
  // broadcast found no room, so it waits in the lane's skipped bound.
  EXPECT_EQ(fabric.lane(0, 0).queue.ApproxSize(), 4u);

  if (bench::kAllocHookActive) {
    // A blocked producer spins with backoff; it must not allocate.
    bench::ResetAllocCounters();
    bench::SetAllocCounting(true);
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    bench::SetAllocCounting(false);
    EXPECT_EQ(bench::GetAllocCounters().allocs, 0u)
        << "blocked producer allocated while waiting for a slot";
  }

  fabric.Abort();
  producer.join();
  EXPECT_FALSE(blocked_status.ok());
  EXPECT_EQ(emitter.stats().forwarded, 4u);
  EXPECT_EQ(emitted.load(), 4u);
}

TEST(FlowControlTest, SilentLaneHoldsReleasesAndSaturationReadsDegraded) {
  // Two producers, one consumer. A fills its lane; B stays silent, so
  // nothing is provably safe to release: A's events wait in their slots,
  // A's lane stays full, and the health rule sees the saturation.
  ExchangeFabric fabric(/*producers=*/2, /*consumers=*/1,
                        /*lane_capacity=*/4);
  MergeShard merge(0, fabric.Column(0));
  EXPECT_EQ(merge.input_capacity(), 8u);  // 2 lanes x 4 slots
  ExchangeEmitter emitter_a(fabric.Row(0), nullptr, &fabric);
  ExchangeEmitter emitter_b(fabric.Row(1), nullptr, &fabric);

  for (uint64_t seq = 0; seq < 4; ++seq) {
    emitter_a.BeginTrigger(seq);
    ASSERT_TRUE(
        emitter_a.Emit(Event(0, static_cast<Timestamp>(seq), 1)).ok());
  }
  ASSERT_TRUE(merge.Start().ok());

  // The merge releases nothing — lane B's bound proves nothing yet — so
  // every slot of lane A stays taken. A park proves the merge has looked
  // at the lanes and gone idle.
  ASSERT_TRUE(PollUntil([&] { return merge.stats().parks >= 1; }))
      << "merge never parked";
  EXPECT_EQ(merge.stats().events_processed, 0u);
  EXPECT_EQ(merge.input_depth(), 4u);
  EXPECT_EQ(fabric.lane(0, 0).queue.ApproxSize(), 4u)
      << "slots must be freed on release, not on receipt";

  // The saturation feeds the /healthz degraded rule (engines fill the row
  // from exactly these two accessors).
  obs::PipelineHealth health;
  obs::PipelineHealth::GroupRow row;
  row.lane = "plain";
  row.group = "default";
  row.merge_shard = 0;
  row.reorder_depth = merge.input_depth();
  row.reorder_capacity = merge.input_capacity();
  health.groups.push_back(row);
  obs::HealthThresholds thresholds;
  thresholds.degraded_saturation = 0.5;  // 4/8 trips it
  obs::FinalizeHealth(&health, thresholds);
  EXPECT_EQ(health.state, obs::PipelineHealth::State::kDegraded);
  ASSERT_EQ(health.issues.size(), 1u);
  EXPECT_NE(health.issues[0].find("input lanes"), std::string::npos);
  EXPECT_NE(obs::RenderHealthJson(health).find("\"reorder_capacity\":8"),
            std::string::npos);

  // B's terminal watermark unblocks every release; the slots come free.
  ASSERT_TRUE(emitter_b.Broadcast(kExchangeSeqEnd).ok());
  ASSERT_TRUE(emitter_a.Broadcast(kExchangeSeqEnd).ok());
  ASSERT_TRUE(merge.WaitSafe(kExchangeSeqEnd).ok());
  EXPECT_EQ(merge.stats().events_processed, 4u);
  EXPECT_EQ(merge.input_depth(), 0u);
  ASSERT_TRUE(merge.Stop().ok());
}

TEST(FlowControlTest, DegradedRuleUsesTheDefaultSaturationThreshold) {
  obs::PipelineHealth health;
  obs::PipelineHealth::GroupRow row;
  row.lane = "plain";
  row.group = "default";
  row.reorder_depth = 9;
  row.reorder_capacity = 10;  // 0.9 == the default threshold
  health.groups.push_back(row);
  obs::FinalizeHealth(&health, obs::HealthThresholds{});
  EXPECT_EQ(health.state, obs::PipelineHealth::State::kDegraded);

  // Below the threshold, and on pre-flow-control rows (capacity 0), the
  // rule stays quiet.
  obs::PipelineHealth quiet;
  row.reorder_depth = 5;
  quiet.groups.push_back(row);
  row.reorder_depth = 1000;
  row.reorder_capacity = 0;
  quiet.groups.push_back(row);
  obs::FinalizeHealth(&quiet, obs::HealthThresholds{});
  EXPECT_EQ(quiet.state, obs::PipelineHealth::State::kHealthy);
  EXPECT_TRUE(quiet.issues.empty());
}

// --- Engine-level: starvation changes latency, never results ---------------

/// Cross-subject stream over per-group alphabets (see
/// runtime_exchange_test.cc): matches span subjects but stay key-local.
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

TEST(FlowControlTest, DrainUnderCreditStarvationMatchesSequentialEngine) {
  constexpr size_t kGroups = 4;
  const EventStream stream =
      CrossSubjectStream(kGroups, /*subjects=*/32, 20000, /*seed=*/7);
  StreamingCepEngine reference;
  RegisterGroupQueries(
      [&reference](Pattern p, Timestamp w) {
        return reference.AddQuery(std::move(p), w);
      },
      kGroups);
  for (const Event& e : stream) ASSERT_TRUE(reference.OnEvent(e).ok());
  ASSERT_GT(reference.total_detections(), 0u);

  // A plain array, not a vector: the alloc-hook TU replaces operator
  // new/delete with malloc/free wrappers, and GCC's inliner would flag the
  // (correctly paired) replacement as a mismatched new/delete.
  constexpr std::pair<size_t, size_t> kTopologies[] = {{1, 1}, {2, 2}, {4, 4}};
  for (const auto& [stage1, stage2] : kTopologies) {
    ParallelEngineOptions options;
    options.shard_count = stage1;
    options.queue_capacity = 128;
    options.exchange.shard_count = stage2;
    // Starvation-sized lanes: every producer finds its lanes full
    // constantly, so the whole run exercises the slow path + liveness.
    options.exchange.lane_capacity = 4;
    const CorrelationKeyFn key =
        MakeCorrelationKeyFn(CorrelationKeySpec::ByAttribute("grp")).value();
    ParallelStreamingEngine engine(options);
    RegisterGroupQueries(
        [&engine, &key](Pattern p, Timestamp w) {
          return engine.AddCrossQuery(std::move(p), w, "grp", key,
                                      /*forward_raw_events=*/true);
        },
        kGroups);
    ASSERT_TRUE(engine.Start().ok());

    StreamReplayer replayer;
    replayer.Subscribe(&engine);
    ASSERT_TRUE(replayer.Run(stream, stage1 % 2 == 0
                                         ? ReplayMode::kBatchPerTick
                                         : ReplayMode::kPerEvent)
                    .ok());

    for (size_t q = 0; q < engine.cross_query_count(); ++q) {
      EXPECT_EQ(engine.CrossDetectionsOf(q).value(),
                reference.DetectionsOf(q).value())
          << "stage1=" << stage1 << " stage2=" << stage2 << " query=" << q;
    }
    ASSERT_TRUE(engine.Stop().ok());
  }
}

TEST(FlowControlTest, FinishUnderCreditStarvationSealsThePipeline) {
  // The harshest finalize topology: four producers funneling into ONE
  // merge shard on two slots per lane. Finish() must post end-of-stream
  // to every shard before waiting on any (one shard's finalize emissions
  // are only releasable once the others' terminal watermarks are in
  // flight) — a per-shard wait would deadlock here.
  const EventStream stream =
      CrossSubjectStream(/*groups=*/1, /*subjects=*/32, 5000, /*seed=*/13);
  StreamingCepEngine reference;
  RegisterGroupQueries(
      [&reference](Pattern p, Timestamp w) {
        return reference.AddQuery(std::move(p), w);
      },
      1);
  for (const Event& e : stream) ASSERT_TRUE(reference.OnEvent(e).ok());

  ParallelEngineOptions options;
  options.shard_count = 4;
  options.queue_capacity = 128;
  options.exchange.shard_count = 1;
  options.exchange.lane_capacity = 2;
  const CorrelationKeyFn key =
      MakeCorrelationKeyFn(CorrelationKeySpec::Global()).value();
  ParallelStreamingEngine engine(options);
  RegisterGroupQueries(
      [&engine, &key](Pattern p, Timestamp w) {
        return engine.AddCrossQuery(std::move(p), w, "global", key,
                                    /*forward_raw_events=*/true);
      },
      1);
  ASSERT_TRUE(engine.Start().ok());
  for (const Event& e : stream) ASSERT_TRUE(engine.OnEvent(e).ok());

  ASSERT_TRUE(engine.Finish().ok());
  for (size_t q = 0; q < engine.cross_query_count(); ++q) {
    EXPECT_EQ(engine.CrossDetectionsOf(q).value(),
              reference.DetectionsOf(q).value())
        << "query=" << q;
  }
  ASSERT_TRUE(engine.Finish().ok());  // latched: idempotent
  ASSERT_TRUE(engine.Stop().ok());
}

TEST(FlowControlTest, StalledMergeShardBackpressuresIngestNotMemory) {
  // A stage-2 consumer blocked inside a detection callback: its lane
  // fills, the stage-1 worker blocks in Emit, the shard queue fills, and the
  // ingest thread finally blocks in the queue push — bounded in-flight
  // events end to end, zero allocations while stalled, and full recovery
  // once the consumer resumes.
  ParallelEngineOptions options;
  options.shard_count = 1;
  options.queue_capacity = 8;
  options.exchange.shard_count = 1;
  options.exchange.lane_capacity = 4;
  ParallelStreamingEngine engine(options);
  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  std::atomic<bool> stalled{false};
  ASSERT_TRUE(
      engine
          .AddCrossQuery(MakePattern("seq", {0, 1}, DetectionMode::kSequence),
                         kWindow, "global",
                         MakeCorrelationKeyFn(CorrelationKeySpec::Global())
                             .value(),
                         /*forward_raw_events=*/true,
                         [&](Timestamp) {
                           std::unique_lock<std::mutex> lock(mu);
                           stalled.store(true);
                           cv.wait(lock, [&] { return release; });
                         })
          .ok());
  ASSERT_TRUE(engine.Start().ok());

  // CollectHealth must report the input bound (1 lane x 4 slots).
  obs::PipelineHealth wired;
  engine.CollectHealth(&wired);
  ASSERT_EQ(wired.groups.size(), 1u);
  EXPECT_EQ(wired.groups[0].reorder_capacity, 4u);

  constexpr size_t kFlood = 1000;
  std::atomic<size_t> pushed{0};
  std::atomic<bool> done{false};
  std::thread ingest([&] {
    // Seq 0/1 complete the pattern: the merge worker blocks on detection.
    for (size_t i = 0; i < 2 + kFlood; ++i) {
      const auto type = static_cast<EventTypeId>(i < 2 ? i : 2);
      if (!engine.OnEvent(Event(type, static_cast<Timestamp>(i), 1)).ok()) {
        break;
      }
      pushed.fetch_add(1, std::memory_order_relaxed);
    }
    done.store(true);
  });

  ASSERT_TRUE(PollUntil([&] { return stalled.load(); }))
      << "merge worker never reached the callback";
  // Wait for the pipeline to wedge: the pushed count plateaus once every
  // bounded buffer between ingest and the stalled consumer is full.
  size_t last = pushed.load();
  int stable_rounds = 0;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (stable_rounds < 5 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    const size_t now = pushed.load();
    stable_rounds = now == last ? stable_rounds + 1 : 0;
    last = now;
  }
  ASSERT_EQ(stable_rounds, 5) << "ingest never plateaued";
  EXPECT_FALSE(done.load()) << "ingest was never backpressured";
  // Bounded end to end: queue (8) + lane (4) + the handful in worker
  // hands — nowhere near the flood size.
  EXPECT_LT(pushed.load(), 100u);

  if (bench::kAllocHookActive) {
    bench::ResetAllocCounters();
    bench::SetAllocCounting(true);
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    bench::SetAllocCounting(false);
    EXPECT_EQ(bench::GetAllocCounters().allocs, 0u)
        << "stalled pipeline allocated while backpressured";
  }

  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  ingest.join();
  ASSERT_TRUE(engine.Drain().ok());
  EXPECT_EQ(pushed.load(), 2 + kFlood);
  EXPECT_EQ(engine.events_processed(), 2 + kFlood);
  EXPECT_EQ(engine.CrossDetectionsOf(0).value().size(), 1u);
  ASSERT_TRUE(engine.Stop().ok());
}

}  // namespace
}  // namespace pldp
