// Copyright 2026 The PLDP Authors.
//
// Pins the MetricsRegistry registration/snapshot race: Snapshot() (scrape
// thread) walks the entry list and calls the read functions while Add*
// (topology build) grows it. The registry's contract is that registration
// happens under `mu_` and every Snapshot/instrument_count read takes the
// same mutex — histograms live in stable heap slots, so handed-out
// pointers stay valid across later registrations, and read functions see
// the owner's live atomics. Before entries were created fully under the
// lock, a scrape racing a registration could observe a half-constructed
// Entry or a vector mid-growth. These loops exercise exactly that window;
// the TSan CI job turns any regression into a hard failure.

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"

namespace pldp {
namespace obs {
namespace {

TEST(MetricsRaceTest, SnapshotRacingRegistration) {
  MetricsRegistry registry;

  std::atomic<bool> stop{false};
  std::atomic<size_t> snapshots{0};
  std::thread scraper([&] {
    while (!stop.load(std::memory_order_acquire)) {
      const MetricsSnapshot snapshot = registry.Snapshot();
      // Families appear atomically: a visible family always has >= 1
      // fully-formed sample.
      for (const MetricFamily& family : snapshot.families) {
        ASSERT_FALSE(family.name.empty());
        ASSERT_FALSE(family.samples.empty());
      }
      (void)registry.instrument_count();
      snapshots.fetch_add(1, std::memory_order_relaxed);
    }
  });

  // Registration is fast; make sure the scraper is actually running before
  // the window this test exists to exercise opens.
  while (snapshots.load(std::memory_order_relaxed) == 0) {
    std::this_thread::yield();
  }

  constexpr size_t kPerType = 64;
  // The values the read functions observe, owned outside the registry the
  // way a stage owns its counters.
  std::vector<std::atomic<uint64_t>> events(kPerType);
  std::vector<std::atomic<uint64_t>> depths(kPerType);
  for (size_t i = 0; i < kPerType; ++i) {
    const std::string label = std::to_string(i);
    ASSERT_TRUE(registry.AddCounter(
        "race_events_total", "events", {{"shard", label}}, [&events, i] {
          return events[i].load(std::memory_order_relaxed);
        }));
    events[i].store(i, std::memory_order_relaxed);

    ASSERT_TRUE(registry.AddGauge(
        "race_depth", "queue depth", {{"shard", label}}, [&depths, i] {
          return depths[i].load(std::memory_order_relaxed);
        }));
    depths[i].store(i, std::memory_order_relaxed);

    Histogram* histogram = registry.AddHistogram(
        "race_latency_ns", "latency", {{"shard", label}});
    ASSERT_NE(histogram, nullptr);
    histogram->Record(i + 1);
  }

  stop.store(true, std::memory_order_release);
  scraper.join();

  EXPECT_GT(snapshots.load(), 0u);
  EXPECT_EQ(registry.instrument_count(), 3 * kPerType);

  // Read functions registered during the race stay live and exact.
  const MetricsSnapshot final_snapshot = registry.Snapshot();
  const MetricFamily* event_family = final_snapshot.Find("race_events_total");
  const MetricFamily* depth_family = final_snapshot.Find("race_depth");
  ASSERT_NE(event_family, nullptr);
  ASSERT_NE(depth_family, nullptr);
  ASSERT_EQ(event_family->samples.size(), kPerType);
  ASSERT_EQ(depth_family->samples.size(), kPerType);
  for (size_t i = 0; i < kPerType; ++i) {
    EXPECT_EQ(event_family->samples[i].value, static_cast<double>(i));
    EXPECT_EQ(depth_family->samples[i].value, static_cast<double>(i));
  }
}

TEST(MetricsRaceTest, HotUpdatesRacingSnapshots) {
  // The wait-free half of the split: the owner's counter updates and the
  // histogram records never take the registry mutex, so a tight update
  // loop must coexist with a tight snapshot loop that reads the counter
  // through its read function (and the final values must reconcile
  // exactly once the writer is done).
  MetricsRegistry registry;
  std::atomic<uint64_t> counter{0};
  ASSERT_TRUE(registry.AddCounter("hot_total", "hot counter", {}, [&counter] {
    return counter.load(std::memory_order_relaxed);
  }));
  Histogram* histogram = registry.AddHistogram("hot_ns", "hot histogram");
  ASSERT_NE(histogram, nullptr);

  std::atomic<bool> stop{false};
  std::thread scraper([&] {
    while (!stop.load(std::memory_order_acquire)) {
      (void)registry.Snapshot();
    }
  });

  constexpr uint64_t kUpdates = 200000;
  for (uint64_t i = 0; i < kUpdates; ++i) {
    counter.fetch_add(1, std::memory_order_relaxed);
    histogram->Record(i & 1023);
  }

  stop.store(true, std::memory_order_release);
  scraper.join();

  const MetricsSnapshot snapshot = registry.Snapshot();
  EXPECT_EQ(SumSamples(snapshot.Find("hot_total")),
            static_cast<double>(kUpdates));
  EXPECT_EQ(histogram->TotalCount(), kUpdates);
}

}  // namespace
}  // namespace obs
}  // namespace pldp
