// Copyright 2026 The PLDP Authors.
//
// Pins the Shard exchange-hook registration race: AddExchange (orchestrator,
// pre-Start) grows the hook vector while stats() / exchange_emitter()
// scrapes may run from any thread at any time. The fix routes every hook-list read
// through `reg_mu_` and hands the worker a one-time snapshot at startup
// (src/runtime/shard.h, `SnapshotHooks`). Before the fix, a scrape racing a
// registration read a std::vector mid-growth — undefined behavior that TSan
// flags reliably; this test is the regression pin (it runs in the TSan CI
// job like every other test).

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "runtime/exchange.h"
#include "runtime/shard.h"

namespace pldp {
namespace {

TEST(ShardRaceTest, StatsScrapeRacingExchangeRegistration) {
  constexpr size_t kRounds = 32;
  constexpr size_t kHooks = 4;

  for (size_t round = 0; round < kRounds; ++round) {
    Shard shard(0, 64);
    std::vector<std::unique_ptr<ExchangeFabric>> fabrics;
    const auto add_hook = [&] {
      fabrics.push_back(std::make_unique<ExchangeFabric>(1, 1, 64));
      auto emitter = std::make_unique<ExchangeEmitter>(
          fabrics.back()->Row(0), nullptr, fabrics.back().get());
      return shard.AddExchange(std::move(emitter),
                               /*forward_raw_events=*/false);
    };

    // Hook 0 exists before the scraper starts, so the scraper can read it
    // while the later registrations reallocate the vector under it.
    ASSERT_TRUE(add_hook().ok());
    const ExchangeEmitter* first = shard.exchange_emitter(0);
    ASSERT_NE(first, nullptr);

    std::atomic<bool> stop{false};
    std::atomic<size_t> scrapes{0};
    std::thread scraper([&] {
      while (!stop.load(std::memory_order_acquire)) {
        const ShardStats stats = shard.stats();
        ASSERT_EQ(stats.shard_index, 0u);
        ASSERT_EQ(shard.exchange_emitter(0), first);
        scrapes.fetch_add(1, std::memory_order_relaxed);
      }
    });

    // Registrations are microseconds of work; without this the scraper may
    // not even be scheduled before they finish and the round tests nothing.
    while (scrapes.load(std::memory_order_relaxed) == 0) {
      std::this_thread::yield();
    }

    for (size_t i = 1; i < kHooks; ++i) {
      ASSERT_TRUE(add_hook().ok());
    }

    stop.store(true, std::memory_order_release);
    scraper.join();

    for (size_t i = 0; i < kHooks; ++i) {
      EXPECT_NE(shard.exchange_emitter(i), nullptr);
    }
    EXPECT_GT(scrapes.load(), 0u);
  }
}

TEST(ShardRaceTest, WorkerSnapshotSurvivesConcurrentScrapes) {
  // A running worker iterates its startup snapshot of the hook list while
  // scrape threads take the registration mutex and wait on Drain — none of
  // them may contend or race. Sink-driven hooks only, and nothing drains
  // the lane: the idle worker still broadcasts one watermark per distinct
  // idle bound (at most one per event, so <= kEvents), and the lane must
  // hold them all or the worker blocks on it and the test hangs.
  constexpr uint64_t kEvents = 512;
  Shard shard(0, 64);
  ExchangeFabric fabric(1, 1, /*lane_capacity=*/2 * kEvents);
  auto emitter =
      std::make_unique<ExchangeEmitter>(fabric.Row(0), nullptr, &fabric);
  ASSERT_TRUE(
      shard.AddExchange(std::move(emitter), /*forward_raw_events=*/false)
          .ok());
  ASSERT_TRUE(shard.Start().ok());

  std::atomic<bool> stop{false};
  std::thread scraper([&] {
    while (!stop.load(std::memory_order_acquire)) {
      (void)shard.stats();
      (void)shard.exchange_emitter(0);
      ASSERT_TRUE(shard.Drain().ok());
    }
  });

  for (uint64_t i = 0; i < kEvents; ++i) {
    StampedEvent stamped{i, Event(/*type=*/0, static_cast<Timestamp>(i))};
    ASSERT_TRUE(shard.PushStampedN(&stamped, 1).ok());
  }
  ASSERT_TRUE(shard.Drain().ok());

  stop.store(true, std::memory_order_release);
  scraper.join();

  EXPECT_EQ(shard.stats().events_processed, kEvents);
  ASSERT_TRUE(shard.Stop().ok());
}

}  // namespace
}  // namespace pldp
