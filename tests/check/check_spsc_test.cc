// Copyright 2026 The PLDP Authors.
//
// Model-checks the SPSC ring (src/runtime/spsc_queue.h): one producer and
// one consumer racing push against pop through the real TryPush/TryPop /
// TryPushN/TryPopN code and the claim/publish + peek/release primitives
// they are built on, with the checker branching over every stale
// index read coherence allows. The properties: no data race on the
// payload slots (RaceCell vector-clock check), values arrive in order,
// and nothing is lost or duplicated.
//
// Compiled twice by CMake: the plain binary asserts the checker exhausts
// the schedule space with zero findings; the PLDP_CHECK_NEGATIVE_SPSC
// twin weakens the tail publication to relaxed (kTailPublishOrder in
// spsc_queue.h) and asserts the checker CATCHES the resulting payload
// race — the machine-checked version of the release/acquire pairing
// argument in the header's protocol comment.

#include <cstdint>
#include <memory>

#include "check/model.h"
#include "gtest/gtest.h"
#include "runtime/spsc_queue.h"

namespace pldp {
namespace {

using check::ModelConfig;
using check::ModelJoin;
using check::ModelResult;
using check::ModelSpawn;
using check::ModelYieldSpin;
using check::RunModel;

// Push kItems through a capacity-2 ring one element at a time. Small on
// purpose: every extra element multiplies the DFS schedule space.
constexpr int kItems = 3;

ModelResult RunSingleElementHarness(ModelConfig cfg) {
  return RunModel(cfg, [] {
    auto q = std::make_unique<SpscQueue<int>>(2);
    auto sum = std::make_unique<int>(0);
    int producer = ModelSpawn("producer", [&] {
      for (int v = 1; v <= kItems; ++v) {
        int item = v;
        while (!q->TryPush(std::move(item))) ModelYieldSpin();
      }
    });
    int consumer = ModelSpawn("consumer", [&] {
      for (int i = 1; i <= kItems; ++i) {
        int out = 0;
        while (!q->TryPop(out)) ModelYieldSpin();
        PLDP_MODEL_ASSERT(out == i);  // FIFO, no loss, no duplication
        *sum += out;
      }
    });
    ModelJoin(producer);
    ModelJoin(consumer);
    PLDP_MODEL_ASSERT(*sum == kItems * (kItems + 1) / 2);
    PLDP_MODEL_ASSERT(q->ApproxEmpty());
  });
}

// Same race surface through the batch entry points the shard hot path
// actually uses (TryPushN / TryPopN).
ModelResult RunBatchHarness(ModelConfig cfg) {
  return RunModel(cfg, [] {
    auto q = std::make_unique<SpscQueue<int>>(2);
    int producer = ModelSpawn("producer", [&] {
      int batch[2] = {1, 2};
      while (q->TryPushN(batch, 2) == 0) ModelYieldSpin();
      int tail[1] = {3};
      while (q->TryPushN(tail, 1) == 0) ModelYieldSpin();
    });
    int consumer = ModelSpawn("consumer", [&] {
      int out[2] = {0, 0};
      int seen = 0;
      int expect = 1;
      while (seen < kItems) {
        size_t n = q->TryPopN(out, 2);
        if (n == 0) {
          ModelYieldSpin();
          continue;
        }
        for (size_t i = 0; i < n; ++i) {
          PLDP_MODEL_ASSERT(out[i] == expect);
          ++expect;
        }
        seen += static_cast<int>(n);
      }
    });
    ModelJoin(producer);
    ModelJoin(consumer);
  });
}

// The in-place primitives the shard ingest path is built on: the producer
// claims slots, writes them where they lie and publishes; the consumer
// peeks, reads the slots in place and releases them. Same ring, same
// items, so the race surface is the one the move-based harnesses cover,
// minus the moves.
ModelResult RunClaimPeekHarness(ModelConfig cfg) {
  return RunModel(cfg, [] {
    auto q = std::make_unique<SpscQueue<int>>(2);
    int producer = ModelSpawn("producer", [&] {
      int next = 1;
      while (next <= kItems) {
        const size_t n = q->Claim(next < kItems ? 2 : 1);
        if (n == 0) {
          ModelYieldSpin();
          continue;
        }
        for (size_t i = 0; i < n; ++i) q->ClaimedSlot(i) = next++;
        q->Publish(n);
      }
    });
    int consumer = ModelSpawn("consumer", [&] {
      int expect = 1;
      while (expect <= kItems) {
        const size_t n = q->Peek(2);
        if (n == 0) {
          ModelYieldSpin();
          continue;
        }
        for (size_t i = 0; i < n; ++i) {
          PLDP_MODEL_ASSERT(q->PeekedSlot(i) == expect);
          ++expect;
        }
        q->Release(n);
      }
    });
    ModelJoin(producer);
    ModelJoin(consumer);
    PLDP_MODEL_ASSERT(q->ApproxEmpty());
  });
}

#ifndef PLDP_CHECK_NEGATIVE_SPSC

TEST(SpscModel, SingleElementExhaustsClean) {
  ModelConfig cfg;
  cfg.name = "spsc-single";
  cfg.preemption_bound = 2;
  ModelResult r = RunSingleElementHarness(cfg);
  EXPECT_FALSE(r.failed) << r.report;
  EXPECT_TRUE(r.exhausted) << "DFS did not exhaust; executions="
                           << r.executions;
}

TEST(SpscModel, BatchExhaustsClean) {
  ModelConfig cfg;
  cfg.name = "spsc-batch";
  cfg.preemption_bound = 2;
  ModelResult r = RunBatchHarness(cfg);
  EXPECT_FALSE(r.failed) << r.report;
  EXPECT_TRUE(r.exhausted);
}

TEST(SpscModel, ClaimPeekExhaustsClean) {
  ModelConfig cfg;
  cfg.name = "spsc-claim-peek";
  cfg.preemption_bound = 2;
  ModelResult r = RunClaimPeekHarness(cfg);
  EXPECT_FALSE(r.failed) << r.report;
  EXPECT_TRUE(r.exhausted);
}

// Random-walk soak beyond the DFS preemption bound; CI deepens this via
// PLDP_MODEL_RANDOM_ITERS without a recompile.
TEST(SpscModel, RandomWalkClean) {
  ModelConfig cfg;
  cfg.name = "spsc-random";
  cfg.random = true;
  cfg.random_iterations = 300;
  cfg.seed = 7;
  ModelResult r = RunSingleElementHarness(cfg);
  EXPECT_FALSE(r.failed) << r.report;
}

#else  // PLDP_CHECK_NEGATIVE_SPSC

// With the tail publication weakened to relaxed, the consumer can observe
// the advanced tail index without the slot write ordered before it — the
// checker must report the payload race (and print a replayable schedule).
TEST(SpscModelNegative, CheckerCatchesWeakTailPublish) {
  ModelConfig cfg;
  cfg.name = "spsc-weak-tail";
  cfg.preemption_bound = 2;
  ModelResult r = RunSingleElementHarness(cfg);
  EXPECT_TRUE(r.failed)
      << "seeded relaxed tail publish was NOT caught by the checker";
  EXPECT_FALSE(r.replay.empty());
}

// The batch path publishes through the same constant — the checker must
// catch it there too.
TEST(SpscModelNegative, CheckerCatchesWeakTailPublishBatch) {
  ModelConfig cfg;
  cfg.name = "spsc-weak-tail-batch";
  cfg.preemption_bound = 2;
  ModelResult r = RunBatchHarness(cfg);
  EXPECT_TRUE(r.failed)
      << "seeded relaxed tail publish (batch) was NOT caught";
}

// Publish is the in-place path's tail store too.
TEST(SpscModelNegative, CheckerCatchesWeakTailPublishClaim) {
  ModelConfig cfg;
  cfg.name = "spsc-weak-tail-claim";
  cfg.preemption_bound = 2;
  ModelResult r = RunClaimPeekHarness(cfg);
  EXPECT_TRUE(r.failed)
      << "seeded relaxed tail publish (claim/publish) was NOT caught";
}

#endif  // PLDP_CHECK_NEGATIVE_SPSC

}  // namespace
}  // namespace pldp
