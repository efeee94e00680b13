// Copyright 2026 The PLDP Authors.
//
// Liveness tests for the adaptive backoff → parking layer
// (runtime/backoff.h): idle workers escalate spin → yield → park on a
// Doorbell, skip the yields after a long park, and every work publication
// (SPSC push, producer floor, flush-watermark command, terminal seal)
// rings the consumer's bell. The properties pinned here:
//
//   * the yield budget follows the last park: full at start and after a
//     short park, none after a long one (fed durations, no clock);
//   * a parked worker wakes on the next push — no lost wakeup, including
//     under the rapid park/ring interleavings of the stress test (the CI
//     TSan job runs this file too, checking the fence protocol's memory
//     ordering, not just its logic);
//   * drain barriers and Finish complete from a fully parked pipeline —
//     the barrier paths ring the bells they gate on;
//   * barrier waits park on the worker's progress doorbell, two at once:
//     a Drain on a second thread and the ingest thread blocked on a full
//     ring both wake when the worker moves on;
//   * workers a slow stream has put in spin-only mode still wake on
//     every source;
//   * parks/wakes surface through ShardStats and the
//     pldp_shard_parks_total / pldp_shard_wakes_total counters.
//
// Timing discipline: tests assert "eventually parked / eventually woke"
// by polling with a generous deadline, never by asserting exact counts —
// parking is a performance escalation, not a scheduling guarantee.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "runtime/backoff.h"
#include "runtime/parallel_engine.h"
#include "runtime/shard.h"
#include "stream/event_stream.h"
#include "test_util.h"

namespace pldp {
namespace {

constexpr auto kDeadline = std::chrono::seconds(20);

/// Polls `pred` until it holds or the deadline passes.
template <typename Pred>
bool Eventually(Pred&& pred) {
  const auto start = std::chrono::steady_clock::now();
  while (!pred()) {
    if (std::chrono::steady_clock::now() - start > kDeadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

size_t TotalParks(const ParallelStreamingEngine& engine) {
  size_t parks = 0;
  for (const ShardStats& s : engine.ShardStatsSnapshot()) parks += s.parks;
  return parks;
}

size_t TotalMerged(const ParallelStreamingEngine& engine) {
  size_t merged = 0;
  for (const ShardStats& s : engine.CrossShardStatsSnapshot()) {
    merged += s.events_processed;
  }
  return merged;
}

/// Waits `backoff` through one idle episode (as a worker loop would,
/// without the park) and returns how many Waits it took to reach
/// ShouldPark.
int WaitsUntilPark(Backoff& backoff) {
  int waits = 0;
  while (!backoff.ShouldPark()) {
    backoff.Wait();
    ++waits;
  }
  backoff.Reset();
  return waits;
}

TEST(BackoffTest, YieldBudgetFollowsTheLastPark) {
  Backoff fixed;  // A producer's schedule: never adapts.
  const int full = WaitsUntilPark(fixed);

  Atomic<uint64_t> idle_yields{0};
  Backoff backoff(&idle_yields);
  // A fresh worker starts on the full budget.
  EXPECT_EQ(WaitsUntilPark(backoff), full);
  const uint64_t yields_per_episode = idle_yields.load();
  ASSERT_GT(yields_per_episode, 0u);

  // After a long park: spin only, so no yields, in every episode until
  // the next park.
  backoff.NoteParkNs(Backoff::kLongParkNs + 1);
  const int spin_only = WaitsUntilPark(backoff);
  EXPECT_EQ(static_cast<uint64_t>(full - spin_only), yields_per_episode);
  EXPECT_EQ(WaitsUntilPark(backoff), spin_only);
  EXPECT_EQ(idle_yields.load(), yields_per_episode);

  // After a short park (the bound itself counts as short): full again.
  backoff.NoteParkNs(Backoff::kLongParkNs);
  EXPECT_EQ(WaitsUntilPark(backoff), full);
  EXPECT_EQ(idle_yields.load(), 2 * yields_per_episode);

  // The producer's schedule never changed.
  EXPECT_EQ(WaitsUntilPark(fixed), full);
}

TEST(BackoffTest, ParkTimesTheDoorbellWait) {
  Doorbell bell;
  Backoff backoff;
  const int full = WaitsUntilPark(backoff);

  // A park rung only after 5 ms lasted longer than kLongParkNs.
  std::atomic<bool> work{false};
  std::thread consumer([&] {
    (void)backoff.Park(bell,
                       [&] { return work.load(std::memory_order_acquire); });
  });
  ASSERT_TRUE(Eventually([&] { return bell.parks() == 1; }));
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  work.store(true, std::memory_order_release);
  bell.Ring();
  consumer.join();
  EXPECT_LT(WaitsUntilPark(backoff), full);
}

TEST(DoorbellTest, ParkedConsumerWakesOnRing) {
  Doorbell bell;
  std::atomic<bool> work{false};
  std::atomic<bool> woke{false};
  std::thread consumer([&] {
    // No work yet: this must actually park...
    const bool parked =
        bell.ParkUnless([&] { return work.load(std::memory_order_acquire); });
    if (parked) woke.store(true);
  });
  ASSERT_TRUE(Eventually([&] { return bell.parks() == 1; }));
  work.store(true, std::memory_order_release);
  bell.Ring();  // ...and this must wake it.
  consumer.join();
  EXPECT_TRUE(woke.load());
  EXPECT_GE(bell.wakes(), 1u);
}

TEST(DoorbellTest, PublishedWorkPreemptsThePark) {
  Doorbell bell;
  std::atomic<bool> work{true};
  // Work already visible: ParkUnless must return without blocking.
  EXPECT_FALSE(
      bell.ParkUnless([&] { return work.load(std::memory_order_acquire); }));
  EXPECT_EQ(bell.parks(), 0u);
}

// The lost-wakeup stress: a producer publishes items and rings while the
// consumer oscillates between draining and parking. If any ring landing
// between the consumer's empty check and its cv wait were lost, the
// consumer would park forever with work pending and the test would hang
// (and fail the deadline assert). Under the TSan job this also verifies
// the fence pairing, not just the logic.
TEST(DoorbellTest, NoLostWakeupUnderStress) {
  constexpr uint64_t kItems = 200000;
  Doorbell bell;
  std::atomic<uint64_t> published{0};
  std::atomic<uint64_t> consumed{0};
  std::atomic<bool> done{false};

  std::thread consumer([&] {
    while (true) {
      if (consumed.load(std::memory_order_relaxed) <
          published.load(std::memory_order_acquire)) {
        consumed.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      if (done.load(std::memory_order_acquire) &&
          consumed.load(std::memory_order_relaxed) ==
              published.load(std::memory_order_acquire)) {
        return;
      }
      bell.ParkUnless([&] {
        return consumed.load(std::memory_order_relaxed) <
                   published.load(std::memory_order_acquire) ||
               done.load(std::memory_order_acquire);
      });
    }
  });

  for (uint64_t i = 0; i < kItems; ++i) {
    published.fetch_add(1, std::memory_order_release);
    bell.Ring();
  }
  done.store(true, std::memory_order_release);
  bell.Ring();
  consumer.join();
  EXPECT_EQ(consumed.load(), kItems);
}

/// Holds the shard worker inside its first event until `open` is set.
class GateSink : public ShardEventSink {
 public:
  explicit GateSink(const std::atomic<bool>* open) : open_(open) {}
  void OnShardEvent(const Event& /*event*/) override {
    while (!open_->load()) {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  }

 private:
  const std::atomic<bool>* open_;
};

// Two waiters on one progress doorbell: the ingest thread parks in
// AwaitSlot on a full ring while a second thread parks in Drain. Once the
// worker moves on, Drain must return with every event pushed before it
// processed, and the blocked push must complete.
TEST(ParkingTest, DrainAndBlockedProducerShareTheProgressDoorbell) {
  Shard shard(0, /*queue_capacity=*/4);
  std::atomic<bool> open{false};
  ASSERT_TRUE(shard.SetEventSink(std::make_unique<GateSink>(&open)).ok());
  ASSERT_TRUE(shard.Start().ok());
  std::vector<StampedEvent> events;
  for (uint64_t i = 0; i < 32; ++i) {
    events.push_back(StampedEvent{i, Event(0, static_cast<Timestamp>(i))});
  }
  testing_util::RunWithWatchdog(
      [&] {
        std::thread producer([&] {
          EXPECT_TRUE(shard.PushStampedN(events.data(), events.size()).ok());
        });
        // The worker holds its first burst in the sink; the producer fills
        // the ring behind it and parks.
        ASSERT_TRUE(Eventually([&] {
          return shard.queue_depth() == shard.queue_capacity() &&
                 shard.barrier_parks() >= 1;
        })) << "the producer never parked on the full ring";
        // Everything pushed so far is the full ring: the drain's target.
        const uint64_t pushed_before_drain = shard.queue_capacity();
        uint64_t processed_at_return = 0;
        std::thread drainer([&] {
          EXPECT_TRUE(shard.Drain().ok());
          processed_at_return = shard.events_processed();
        });
        ASSERT_TRUE(Eventually([&] { return shard.barrier_parks() >= 2; }))
            << "the drain never parked";
        EXPECT_EQ(shard.events_processed(), 0u);
        open.store(true);
        drainer.join();
        producer.join();
        EXPECT_GE(processed_at_return, pushed_before_drain);
        ASSERT_TRUE(shard.Drain().ok());
        EXPECT_EQ(shard.events_processed(), events.size());
      },
      std::chrono::seconds(60));
  ASSERT_TRUE(shard.Stop().ok());
}

TEST(ParkingTest, IdleWorkersParkAndWakeOnPush) {
  ParallelEngineOptions options;
  options.shard_count = 2;
  options.queue_capacity = 256;
  ParallelStreamingEngine engine(options);
  auto pattern = Pattern::Create("p", {0, 1}, DetectionMode::kSequence);
  ASSERT_TRUE(pattern.ok());
  ASSERT_TRUE(engine.AddQuery(std::move(pattern).value(), 10).ok());
  ASSERT_TRUE(engine.Start().ok());

  // Idle pipeline: every worker exhausts its spin/yield budget and parks.
  ASSERT_TRUE(Eventually([&] { return TotalParks(engine) >= 2; }))
      << "idle workers never parked";

  // A push into a parked pipeline must ring the worker awake; Drain then
  // proves the event was actually processed (a lost wakeup would leave
  // pushed > processed and Drain would hang past the ctest timeout). The
  // park count is read before the push: the woken worker may re-park
  // before Drain returns, and a count read after that would wait for a
  // park that never comes.
  const size_t parks_before = TotalParks(engine);
  ASSERT_TRUE(engine.OnEvent(Event(0, 0, 7)).ok());
  ASSERT_TRUE(engine.Drain().ok());
  EXPECT_EQ(engine.events_processed(), 1u);

  // Park again, wake again — the escalation must re-arm after work.
  ASSERT_TRUE(Eventually([&] { return TotalParks(engine) > parks_before; }))
      << "workers never re-parked after the first wake";
  ASSERT_TRUE(engine.OnEvent(Event(1, 1, 7)).ok());
  ASSERT_TRUE(engine.Drain().ok());
  EXPECT_EQ(engine.events_processed(), 2u);

  // Finish from a parked pipeline: the terminal seal rings every bell.
  ASSERT_TRUE(engine.Finish().ok());
  ASSERT_TRUE(engine.Stop().ok());
}

// Same liveness through the two-stage exchange pipeline: stage-2 merge
// workers park on their own doorbells (gated on lanes AND watermark
// floors), and the drain barrier's flush-watermark command must wake
// them. A missing ring on the command path would hang the first Drain.
TEST(ParkingTest, ExchangePipelineBarriersCompleteFromParkedState) {
  ParallelEngineOptions options;
  options.shard_count = 2;
  options.queue_capacity = 256;
  options.exchange.shard_count = 2;
  options.exchange.lane_capacity = 64;
  ParallelStreamingEngine engine(options);
  auto pattern = Pattern::Create("p", {0, 1}, DetectionMode::kSequence);
  ASSERT_TRUE(pattern.ok());
  ASSERT_TRUE(engine
                  .AddCrossQuery(std::move(pattern).value(), 10, "event-type",
                                 MakeCorrelationKeyFn(
                                     CorrelationKeySpec::ByEventType())
                                     .value(),
                                 /*forward_raw_events=*/true)
                  .ok());
  ASSERT_TRUE(engine.Start().ok());

  // Let both stages go fully idle (parked), then run the barrier.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  ASSERT_TRUE(engine.Drain().ok());

  for (int round = 0; round < 3; ++round) {
    for (uint64_t i = 0; i < 100; ++i) {
      ASSERT_TRUE(engine.OnEvent(Event(static_cast<EventTypeId>(i % 2),
                                       static_cast<Timestamp>(i), 3))
                      .ok());
    }
    ASSERT_TRUE(engine.Drain().ok());
  }
  EXPECT_EQ(engine.events_processed(), 300u);
  ASSERT_TRUE(engine.Finish().ok());
  ASSERT_TRUE(engine.Stop().ok());
}

// A slow stream (gaps well over kLongParkNs) puts the stage-1 workers in
// spin-only mode; there they must still wake on a push (the shard that
// gets the events), a producer floor (the shard that gets none — without
// its idle watermark the merge could not release anything), a
// flush-watermark command (Drain) and Stop. A lost wakeup on any of them
// hangs the test past its deadline.
TEST(ParkingTest, SpinOnlyWorkersWakeOnEverySource) {
  ParallelEngineOptions options;
  options.shard_count = 2;
  options.queue_capacity = 256;
  options.exchange.shard_count = 1;
  options.exchange.lane_capacity = 64;
  ParallelStreamingEngine engine(options);
  auto pattern = Pattern::Create("p", {0, 1}, DetectionMode::kSequence);
  ASSERT_TRUE(pattern.ok());
  ASSERT_TRUE(engine
                  .AddCrossQuery(std::move(pattern).value(), 10, "event-type",
                                 MakeCorrelationKeyFn(
                                     CorrelationKeySpec::ByEventType())
                                     .value(),
                                 /*forward_raw_events=*/true)
                  .ok());
  ASSERT_TRUE(engine.Start().ok());
  ASSERT_TRUE(Eventually([&] { return TotalParks(engine) >= 2; }));

  // One subject, so one shard gets every event and the other only the
  // producer floor a two-event batch publishes.
  Timestamp ts = 0;
  size_t sent = 0;
  const auto slow_round = [&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    const std::vector<ShardStats> before = engine.ShardStatsSnapshot();
    const Event batch[] = {Event(0, ts, 7), Event(1, ts + 1, 7)};
    ts += 2;
    sent += 2;
    EXPECT_TRUE(engine.OnEventBatch(EventSpan(batch, 2)).ok());
    EXPECT_TRUE(Eventually([&] { return TotalMerged(engine) == sent; }));
    // Spin-only: every shard parked again without spending a yield.
    const std::vector<ShardStats> after = engine.ShardStatsSnapshot();
    for (size_t i = 0; i < after.size(); ++i) {
      if (after[i].parks == before[i].parks ||
          after[i].idle_yields != before[i].idle_yields) {
        return false;
      }
    }
    return true;
  };
  ASSERT_TRUE(Eventually(slow_round)) << "workers never went spin-only";
  ASSERT_FALSE(HasFailure());

  // Flush-watermark commands from a spin-only parked pipeline.
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  ASSERT_TRUE(engine.Drain().ok());
  EXPECT_EQ(TotalMerged(engine), sent);

  // Finish, then Stop from the parked state: the stop flag rings.
  ASSERT_TRUE(engine.Finish().ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  ASSERT_TRUE(engine.Stop().ok());
}

TEST(ParkingTest, ParkAndWakeCountersSurfaceThroughMetrics) {
  ParallelEngineOptions options;
  options.shard_count = 2;
  options.queue_capacity = 256;
  ParallelStreamingEngine engine(options);
  auto pattern = Pattern::Create("p", {0, 1}, DetectionMode::kSequence);
  ASSERT_TRUE(pattern.ok());
  ASSERT_TRUE(engine.AddQuery(std::move(pattern).value(), 10).ok());
  obs::MetricsRegistry registry;
  ASSERT_TRUE(engine.EnableMetrics(&registry).ok());
  ASSERT_TRUE(engine.Start().ok());

  ASSERT_TRUE(Eventually([&] { return TotalParks(engine) >= 2; }));
  ASSERT_TRUE(engine.OnEvent(Event(0, 0, 7)).ok());
  ASSERT_TRUE(engine.Drain().ok());

  const obs::MetricsSnapshot snapshot = registry.Snapshot();
  EXPECT_GT(obs::SumSamples(snapshot.Find("pldp_shard_parks_total")), 0.0);
  EXPECT_GT(obs::SumSamples(snapshot.Find("pldp_shard_wakes_total")), 0.0);
  // The first idle episode of a fresh worker runs the full budget.
  EXPECT_GT(obs::SumSamples(snapshot.Find("pldp_shard_idle_yields_total")),
            0.0);
  ASSERT_TRUE(engine.Stop().ok());
}

}  // namespace
}  // namespace pldp
