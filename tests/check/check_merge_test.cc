// Copyright 2026 The PLDP Authors.
//
// Model-checks the in-place merge over the exchange lanes end to end
// through the REAL pipeline objects: ExchangeEmitter::Emit writing into a
// claimed lane slot (and waiting in AwaitRoom, frontier broadcast first,
// when the lane is full), Broadcast skipping a full lane through its
// skipped bound, and MergeShard's worker loop applying watermarks at the
// lane heads, gating on the bounds, handing each event to the engine in
// place and only then freeing its slot (src/runtime/exchange.{h,cc},
// merge_shard.{h,cc}). The worker runs on a model thread through the
// ModelRunWorker seam — Start()/Stop() would spawn a std::thread the
// cooperative scheduler cannot see.
//
// Properties: the engine sees every event in key order (the sequential
// order), every event is merged, and the merge reaches the terminal
// bound with no deadlock or livelock in any explored schedule — also when
// the terminal watermark found its lane full.
//
// The PLDP_CHECK_NEGATIVE_MERGE twin (merge_shard.cc) frees an event's
// slot before the engine reads it: the producer waiting on the full lane
// can then refill the slot under the read, and the checker must report
// the race. The PLDP_CHECK_NEGATIVE_LANE_RING twin (spsc_queue.h) deletes
// the fence between an emitter's push and its read of the merge's head,
// which decides whether the push rings the merge: the checker must find
// the merge parked on a push it never hears of.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cep/pattern.h"
#include "check/model.h"
#include "event/event.h"
#include "gtest/gtest.h"
#include "runtime/exchange.h"
#include "runtime/merge_shard.h"

namespace pldp {
namespace {

using check::ModelConfig;
using check::ModelJoin;
using check::ModelResult;
using check::ModelSpawn;
using check::ModelYieldSpin;
using check::RunModel;

// 2 producers x 1 consumer, lanes of capacity 2 — the smallest shape in
// which a lane fills: the third event of row 0 waits for the merge to free
// a slot, and row 0's terminal watermark may find its lane holding events.
// Row 1 only watermarks, so the merge is genuinely gated on it.
struct Harness {
  Harness()
      : fabric(2, 1, /*lane_capacity=*/2),
        shard(0, fabric.Column(0)),
        emitter_a(fabric.Row(0), nullptr, &fabric),
        emitter_b(fabric.Row(1), nullptr, &fabric) {
    // One single-type query: each merged event is a detection at its own
    // timestamp, so the engine's detections list its input order.
    PLDP_MODEL_ASSERT(
        shard
            .AddQuery(Pattern::Create("e", {0}, DetectionMode::kSequence)
                          .value(),
                      /*window=*/1000)
            .ok());
  }
  ExchangeFabric fabric;
  MergeShard shard;
  ExchangeEmitter emitter_a;
  ExchangeEmitter emitter_b;
};

/// Emits one event of trigger `seq`, timestamped `seq`.
void EmitAt(ExchangeEmitter& emitter, uint64_t seq) {
  emitter.BeginTrigger(seq);
  PLDP_MODEL_ASSERT(
      emitter.Emit(Event(0, static_cast<Timestamp>(seq), 0)).ok());
}

/// `await_seal`: the producer waits for the merge to publish the terminal
/// bound on its own before stopping it — a lost bound then spins forever,
/// which the checker reports as a livelock. Without it the producer stops
/// the merge at once and the post-join absorption drains the rest.
ModelResult RunMergeHarness(ModelConfig cfg, bool await_seal) {
  return RunModel(cfg, [await_seal] {
    auto h = std::make_unique<Harness>();

    int worker = ModelSpawn("merge", [&] { h->shard.ModelRunWorker(); });
    int producer = ModelSpawn("producer", [&] {
      EmitAt(h->emitter_a, 1);
      EmitAt(h->emitter_a, 3);
      // Row 1 only seals its lane: the merge may now release everything.
      PLDP_MODEL_ASSERT(h->emitter_b.Broadcast(kExchangeSeqEnd).ok());
      // Lane 0 holds events 1 and 3: full until the merge releases 1.
      EmitAt(h->emitter_a, 5);
      // Lane 0 may still hold events: the bound then waits in the lane's
      // skipped bound instead of a slot.
      PLDP_MODEL_ASSERT(h->emitter_a.Broadcast(kExchangeSeqEnd).ok());
      if (await_seal) {
        while (h->shard.safe_primary() != kExchangeSeqEnd) ModelYieldSpin();
      }
      h->shard.ModelRequestStop();
    });

    ModelJoin(producer);
    ModelJoin(worker);
    h->shard.ModelFinalize();

#ifndef PLDP_CHECK_NEGATIVE_MERGE
    PLDP_MODEL_ASSERT(h->shard.safe_primary() == kExchangeSeqEnd);
    PLDP_MODEL_ASSERT(h->shard.stats().events_processed == 3);
    PLDP_MODEL_ASSERT(h->shard.input_depth() == 0);
    const std::vector<Timestamp> order =
        h->shard.engine().DetectionsOf(0).value();
    PLDP_MODEL_ASSERT(order == std::vector<Timestamp>({1, 3, 5}));
#endif
  });
}

#if !defined(PLDP_CHECK_NEGATIVE_MERGE) && \
    !defined(PLDP_CHECK_NEGATIVE_LANE_RING)

// Bounded-DFS exploration of every schedule without preemptions: threads
// switch at blocking and spin points, and every load reads every store
// the memory model allows. (A preemption bound of 1 does not exhaust in
// 400 s on this harness.) Once with the merge stopped as soon as the
// script ran, the rest absorbed after the join; once with the producer
// waiting for the merge to seal on its own — a lost terminal bound then
// spins forever, which the checker reports as a livelock.
TEST(MergeModel, InPlaceMergeClean) {
  for (const bool await_seal : {false, true}) {
    ModelConfig cfg;
    cfg.name = await_seal ? "merge-seal" : "merge";
    cfg.preemption_bound = 0;
    cfg.max_steps_per_exec = 20000;
    ModelResult r = RunMergeHarness(cfg, await_seal);
    EXPECT_FALSE(r.failed) << r.report;
    EXPECT_TRUE(r.exhausted) << "DFS did not exhaust; executions="
                             << r.executions;
  }
}

// Random-walk soak with unbounded preemptions (CI deepens via
// PLDP_MODEL_RANDOM_ITERS).
TEST(MergeModel, RandomWalkClean) {
  ModelConfig cfg;
  cfg.name = "merge-random";
  cfg.random = true;
  cfg.random_iterations = 100;
  cfg.seed = 23;
  ModelResult r = RunMergeHarness(cfg, /*await_seal=*/true);
  EXPECT_FALSE(r.failed) << r.report;
}

#elif defined(PLDP_CHECK_NEGATIVE_MERGE)

// With the slot freed before the engine reads it, the producer blocked on
// lane 0 can write event 5 into the slot of event 1 while the merge still
// reads it — the checker must report the payload race.
TEST(MergeModelNegative, CheckerCatchesSlotFreedBeforeRead) {
  ModelConfig cfg;
  cfg.name = "merge-early-release";
  cfg.preemption_bound = 0;
  cfg.max_steps_per_exec = 20000;
  ModelResult r = RunMergeHarness(cfg, /*await_seal=*/false);
  EXPECT_TRUE(r.failed)
      << "seeded early slot release was NOT caught by the checker";
  EXPECT_NE(r.report.find("race"), std::string::npos) << r.report;
  EXPECT_FALSE(r.replay.empty());
}

#else  // PLDP_CHECK_NEGATIVE_LANE_RING

// Without the fence the emitter may read the merge's head from before its
// last release while the merge's park predicate reads the lane's tail from
// before the push: neither sees the other, the push does not ring, and the
// merge stays parked while the producer waits for the seal.
TEST(MergeModelNegative, CheckerCatchesUnfencedLaneRing) {
  ModelConfig cfg;
  cfg.name = "merge-unfenced-ring";
  cfg.preemption_bound = 0;
  cfg.max_steps_per_exec = 20000;
  ModelResult r = RunMergeHarness(cfg, /*await_seal=*/true);
  EXPECT_TRUE(r.failed)
      << "seeded unfenced lane ring was NOT caught by the checker";
  EXPECT_NE(r.report.find("lost-wakeup"), std::string::npos) << r.report;
  EXPECT_FALSE(r.replay.empty());
}

#endif

}  // namespace
}  // namespace pldp
