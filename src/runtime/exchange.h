// Copyright 2026 The PLDP Authors.
//
// The repartition/exchange fabric between the two shard stages.
//
// Stage-1 shards partition by data subject; a pattern that correlates
// events *across* subjects needs its events re-keyed by a correlation key
// (cep/correlation_key.h) and re-partitioned so all participants of one
// potential match meet on one stage-2 shard. The fabric is the classic
// dataflow exchange: an N1×N2 matrix of the runtime's bounded SPSC queues,
// where lane (p, c) is written only by stage-1 worker p and read only by
// stage-2 worker c — every lane keeps the proven single-producer /
// single-consumer discipline, and the matrix as a whole is the
// multi-producer primitive the stage-2 side needs.
//
//   stage-1 shard p ──ExchangeEmitter── lane(p,0) ──► merge shard 0
//                  │                    lane(p,1) ──► merge shard 1
//                  │                       ...
//                  └─ BeginTrigger(seq) stamps every emission with an
//                     ExchangeKey; Broadcast(bound) sends watermarks.
//
// Ordering is restored downstream by merging on `ExchangeKey`, a global
// sequence stamp: (primary, sub) where `primary` is the ingest-order
// sequence number of the event whose processing caused the emission and
// `sub` counts emissions within that trigger. Each lane carries strictly
// increasing keys, so a stage-2 k-way merge by key reproduces exactly the
// order a sequential engine would have seen — detection equivalence holds
// bit-for-bit, not just as a multiset.
//
// Watermarks solve the empty-lane problem: a merge cannot release an event
// until every other lane is known to be past its key. A producer therefore
// broadcasts `watermark(b)` ("every future item on this lane has key >=
// (b, 0)") when idle and at drain barriers; `kExchangeSeqEnd` is the
// terminal watermark closing a lane at end of stream.
//
// Flow control: each lane carries a credit counter initialized to the
// consumer's reorder-buffer capacity. An Emit consumes one credit; the
// merge returns it when the event is released to the engine. Events
// in flight on a lane (queue + reorder buffer) therefore never exceed
// the credit budget, which caps the reorder buffer — a stalled merge
// shard backpressures its producers (and transitively the ingest
// thread) instead of buffering without bound. Watermarks are credit-free:
// they carry no payload and the merge consumes them immediately, so flow
// control can never silence the progress protocol. A credit-blocked
// producer broadcasts its exact frontier before spinning, which lets the
// merge release everything below it and return credits — the liveness
// argument is spelled out in docs/ARCHITECTURE.md ("Credit-based flow
// control").
//
// The credit protocol (consume on Emit, return on release, buffer never
// exceeding the budget) is machine-checked by
// tests/check/check_credits_test.cc; its negative twin
// (PLDP_CHECK_NEGATIVE_CREDITS in merge_shard.cc, which returns the
// credit at receipt instead of at release) trips the reorder buffer's
// capacity assert under the model checker.

#ifndef PLDP_RUNTIME_EXCHANGE_H_
#define PLDP_RUNTIME_EXCHANGE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/atomic.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "event/event.h"
#include "runtime/router.h"
#include "runtime/spsc_queue.h"

namespace pldp {

/// Terminal watermark bound: no item ever carries a primary this large, so
/// a lane whose bound reached it is closed forever.
inline constexpr uint64_t kExchangeSeqEnd = ~uint64_t{0};

/// Global merge stamp: lexicographic (primary, sub). `primary` is the
/// ingest sequence number of the triggering event; `sub` disambiguates
/// multiple emissions of one trigger (and, at finalize time, one producer
/// from another — see ExchangeEmitter::BeginTrigger's sub_base overload).
struct ExchangeKey {
  uint64_t primary = 0;
  uint64_t sub = 0;

  bool operator<(const ExchangeKey& o) const {
    return primary != o.primary ? primary < o.primary : sub < o.sub;
  }
  bool operator<=(const ExchangeKey& o) const { return !(o < *this); }
  bool operator==(const ExchangeKey& o) const {
    return primary == o.primary && sub == o.sub;
  }
};

/// One slot of an exchange lane: a keyed event, or a watermark whose key
/// lower-bounds every later item on the lane.
struct ExchangeItem {
  ExchangeKey key;
  bool watermark = false;
  Event event;
};

/// Default per-lane credit budget (== the consumer's per-lane reorder
/// capacity) when the caller does not size it explicitly.
inline constexpr size_t kDefaultExchangeReorderCapacity = 1024;

/// One SPSC lane of the matrix, plus its flow-control credit counter.
struct ExchangeLane {
  ExchangeLane(size_t capacity, size_t credit_budget)
      : queue(capacity),
        initial_credits(credit_budget),
        credits(credit_budget) {}
  SpscQueue<ExchangeItem> queue;
  /// The lane's credit budget — also the hard capacity of the consumer's
  /// per-lane reorder buffer (see MergeShard). Fixed at construction.
  const size_t initial_credits;
  /// Remaining credits. Decremented by the producer (one per Emit),
  /// incremented by the consumer (one per event released to its engine).
  /// Watermarks bypass it entirely.
  Atomic<uint64_t> credits;
};

/// The N1×N2 lane matrix. Constructed before the shards on either side and
/// destroyed after them (it owns the queues both sides touch).
class ExchangeFabric {
 public:
  /// `producers`/`consumers` must be >= 1; `lane_capacity` bounds each lane
  /// like any runtime queue (rounded up to a power of two, clamped).
  /// `reorder_capacity` is each lane's credit budget == the hard capacity
  /// of the consumer-side reorder buffer fed by that lane (0 = the
  /// default, kDefaultExchangeReorderCapacity).
  ExchangeFabric(size_t producers, size_t consumers, size_t lane_capacity,
                 size_t reorder_capacity = 0);

  ExchangeLane& lane(size_t producer, size_t consumer) {
    return *lanes_[producer * consumers_ + consumer];
  }

  /// All lanes written by one producer, indexed by consumer.
  std::vector<ExchangeLane*> Row(size_t producer);
  /// All lanes read by one consumer, indexed by producer.
  std::vector<ExchangeLane*> Column(size_t consumer);

  /// Emergency brake: makes every blocked or future Emit fail fast instead
  /// of spinning on a lane nobody will ever drain (torn-down consumers).
  void Abort() {
    // order: release so whatever state motivated the abort is visible to
    // an emitter that observes it and bails out.
    abort_.store(true, std::memory_order_release);
  }
  bool aborted() const {
    // order: acquire pairs with Abort's release store.
    return abort_.load(std::memory_order_acquire);
  }

 private:
  size_t producers_;
  size_t consumers_;
  std::vector<std::unique_ptr<ExchangeLane>> lanes_;
  Atomic<bool> abort_{false};
};

/// Counters one emitter exposes (readable from any thread).
struct ExchangeEmitterStats {
  /// Events emitted into the fabric.
  size_t forwarded = 0;
  /// Watermark broadcasts (each reaches every lane of the row).
  size_t watermarks = 0;
  /// Times a full lane made the producer wait.
  size_t backpressure_waits = 0;
  /// Times an exhausted credit budget made the producer wait for the
  /// consumer to release buffered events (one per wait episode).
  size_t credit_exhausted_waits = 0;
};

/// The stage-1 side of the fabric: owned by one shard, driven only by that
/// shard's worker thread (single producer per lane). Routes each emitted
/// event to its consumer lane by correlation key and stamps it with the
/// current trigger's ExchangeKey.
class ExchangeEmitter {
 public:
  /// `row` is the producer's lane row (one lane per consumer); `key_fn`
  /// extracts the correlation key (nullptr = the subject, Event::stream()).
  ExchangeEmitter(std::vector<ExchangeLane*> row, ShardKeyFn key_fn,
                  ExchangeFabric* fabric);

  ExchangeEmitter(const ExchangeEmitter&) = delete;
  ExchangeEmitter& operator=(const ExchangeEmitter&) = delete;

  /// Opens the emission scope of one trigger: subsequent Emit calls stamp
  /// (primary, sub_base + n) for n = 0, 1, ... Keys must be opened in
  /// strictly increasing order per emitter; the worker opens one scope per
  /// processed event (primary = the event's ingest sequence number).
  PLDP_HOT void BeginTrigger(uint64_t primary, uint64_t sub_base = 0) {
    driver_role_.Assert();
    trigger_ = primary;
    sub_next_ = sub_base;
  }

  /// Routes `event` to its consumer lane, blocking (with backoff) while
  /// the lane is full or its credit budget is exhausted (i.e. the
  /// consumer's reorder buffer holds the whole budget). Fails fast when
  /// the fabric was aborted.
  PLDP_HOT Status Emit(const Event& event);

  /// Sends `watermark(bound)` — every future item on this row has key >=
  /// (bound, 0) — to all lanes. Monotone: bounds at or below the last
  /// broadcast are skipped. Watermarks consume no credits; blocking/abort
  /// behavior on a full queue is the same as Emit's.
  Status Broadcast(uint64_t bound);

  ExchangeEmitterStats stats() const;

  /// Instantaneous sum of this row's lane occupancies — safe from any
  /// thread (SPSC indices are atomics); the lane-depth gauge source.
  size_t RowDepth() const {
    size_t depth = 0;
    for (const ExchangeLane* lane : row_) depth += lane->queue.ApproxSize();
    return depth;
  }

 private:
  PLDP_HOT Status PushToLane(size_t consumer, ExchangeItem item)
      PLDP_REQUIRES(driver_role_);

  /// Full-key watermark: every future item on this row has key >= `bound`.
  /// Broadcast(b) is BroadcastKey({b, 0}); the credit slow path uses the
  /// exact frontier (trigger_, sub_next_) so consumers can release
  /// everything strictly below the item the producer is blocked on.
  Status BroadcastKey(ExchangeKey bound) PLDP_REQUIRES(driver_role_);

  /// Credit-exhaustion wait: counts the episode, publishes the frontier
  /// watermark (without it a cycle of credit-blocked producers could
  /// deadlock the merge), then spins until the consumer returns a credit
  /// or the fabric aborts.
  Status AcquireCreditSlow(ExchangeLane& lane) PLDP_REQUIRES(driver_role_);

  std::vector<ExchangeLane*> row_;
  EventRouter router_;
  ShardKeyFn key_fn_;
  ExchangeFabric* fabric_;

  /// Single-driver contract: BeginTrigger/Emit/Broadcast are driven by one
  /// thread at a time — the owning shard's worker while it runs, the
  /// orchestrator absorbing leftovers after the join. Asserted (not
  /// acquired) at each entry point so the capability documents the caller
  /// contract without a handoff protocol of its own.
  ThreadRole driver_role_;

  // Worker-local emission state.
  uint64_t trigger_ PLDP_GUARDED_BY(driver_role_) = 0;
  uint64_t sub_next_ PLDP_GUARDED_BY(driver_role_) = 0;
  ExchangeKey last_broadcast_ PLDP_GUARDED_BY(driver_role_) = {0, 0};
  bool broadcast_any_ PLDP_GUARDED_BY(driver_role_) = false;

  // Stats written by the worker (relaxed), read from any thread.
  Atomic<uint64_t> forwarded_{0};
  Atomic<uint64_t> watermarks_{0};
  Atomic<uint64_t> backpressure_waits_{0};
  Atomic<uint64_t> credit_exhausted_waits_{0};
};

}  // namespace pldp

#endif  // PLDP_RUNTIME_EXCHANGE_H_
