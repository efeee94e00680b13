// Copyright 2026 The PLDP Authors.
//
// Model-checks the progress doorbell (src/runtime/backoff.h,
// AwaitProgress) with two waiters parked on one bell, the shape of a
// shard whose ingest thread waits for a free ring slot while another
// thread drains it:
//
//   - a worker publishes a processed count in two bursts and rings the
//     bell after each (Shard::ProcessBurst);
//   - a blocked producer waits for the first burst (Shard::AwaitSlot) and
//     a drain waits for the second (Shard::Drain); each spins, yields,
//     then parks until the count reaches its target.
//
// Every interleaving within the preemption bound is explored, so a clean
// run machine-checks point 4 of the lost-wakeup argument in backoff.h:
// several parked waiters each keep the Dekker fence pair and the epoch
// re-check, and a ring that completes only one wait parks the other again.
//
// The PLDP_CHECK_NEGATIVE_PROGRESS twin rings before it stores each
// count: a waiter whose predicate missed the store can park after the
// ring, with no ring left to wake it — the checker must report the lost
// wakeup as a deadlock.

#include <cstdint>
#include <memory>

#include "check/model.h"
#include "gtest/gtest.h"
#include "runtime/backoff.h"

namespace pldp {
namespace {

using check::ModelConfig;
using check::ModelJoin;
using check::ModelResult;
using check::ModelSpawn;
using check::RunModel;

ModelResult RunTwoWaitersHarness(ModelConfig cfg) {
  return RunModel(cfg, [] {
    auto progress = std::make_unique<Doorbell>();
    auto processed = std::make_unique<Atomic<uint64_t>>(0);
    auto producer_done = std::make_unique<bool>(false);
    auto drain_done = std::make_unique<bool>(false);

    const auto reached = [&](uint64_t target) {
      return [&processed, target] {
        // order: acquire pairs with the worker's release publication.
        return processed->load(std::memory_order_acquire) >= target;
      };
    };

    int worker = ModelSpawn("worker", [&] {
      for (uint64_t burst = 1; burst <= 2; ++burst) {
#ifdef PLDP_CHECK_NEGATIVE_PROGRESS
        progress->Ring();
        // order: release — published after the ring: the seeded bug.
        processed->store(burst, std::memory_order_release);
#else
        // order: release — the publication Ring's contract requires
        // before the ring itself.
        processed->store(burst, std::memory_order_release);
        progress->Ring();
#endif
      }
    });
    int producer = ModelSpawn("producer", [&] {
      AwaitProgress(*progress, reached(1));
      *producer_done = true;
    });
    int drain = ModelSpawn("drain", [&] {
      AwaitProgress(*progress, reached(2));
      *drain_done = true;
    });

    ModelJoin(worker);
    ModelJoin(producer);
    ModelJoin(drain);
    PLDP_MODEL_ASSERT(*producer_done && *drain_done);
  });
}

#ifndef PLDP_CHECK_NEGATIVE_PROGRESS

// Bound 1 exhausts in ~3 s; bound 2 takes ~3 minutes (three threads, a
// mutex and a condition variable), too long for the model job.
TEST(ProgressDoorbellModel, TwoWaitersExhaustClean) {
  ModelConfig cfg;
  cfg.name = "progress-two-waiters";
  cfg.preemption_bound = 1;
  ModelResult r = RunTwoWaitersHarness(cfg);
  EXPECT_FALSE(r.failed) << r.report;
  EXPECT_TRUE(r.exhausted);
}

// Random-walk soak past the DFS bound (CI deepens via
// PLDP_MODEL_RANDOM_ITERS).
TEST(ProgressDoorbellModel, RandomWalkClean) {
  ModelConfig cfg;
  cfg.name = "progress-random";
  cfg.random = true;
  cfg.random_iterations = 400;
  cfg.seed = 5;
  ModelResult r = RunTwoWaitersHarness(cfg);
  EXPECT_FALSE(r.failed) << r.report;
}

#else  // PLDP_CHECK_NEGATIVE_PROGRESS

TEST(ProgressDoorbellModelNegative, CheckerCatchesRingBeforeStore) {
  ModelConfig cfg;
  cfg.name = "progress-ring-before-store";
  cfg.preemption_bound = 1;
  ModelResult r = RunTwoWaitersHarness(cfg);
  EXPECT_TRUE(r.failed)
      << "seeded ring-before-store was NOT caught by the checker";
  EXPECT_FALSE(r.replay.empty());
}

#endif  // PLDP_CHECK_NEGATIVE_PROGRESS

}  // namespace
}  // namespace pldp
