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
// Flow control: the lane ring is the budget. The merge frees a slot only
// once its engine consumed the event, so a stalled merge shard fills its
// lanes and backpressures its producers instead of buffering without
// bound. Watermarks never wait and never queue behind events: a lane with
// items in flight is bounded by its head, so the bound goes to the lane's
// `skipped_bound` instead. A producer blocked on a full lane broadcasts
// its exact frontier first — the liveness argument is in
// docs/ARCHITECTURE.md ("Lane-capacity flow control"). The protocol is
// machine-checked by tests/check/check_merge_test.cc.

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
/// lower-bounds every later item on the lane. Events travel as what stage 2
/// reads of them — type, timestamp and subject; attributes stay on stage 1,
/// where the correlation key was computed.
struct ExchangeItem {
  ExchangeKey key;
  Timestamp timestamp = 0;
  EventTypeId type = kInvalidEventType;
  StreamId stream = kDefaultStream;
  bool watermark = false;
};
static_assert(sizeof(ExchangeItem) <= 40, "lane slots stay compact");

/// One SPSC lane of the matrix.
struct ExchangeLane {
  explicit ExchangeLane(size_t capacity) : queue(capacity) {}
  SpscQueue<ExchangeItem> queue;
  /// Primary of the highest watermark a broadcast did not queue because
  /// the lane held items: every item pushed after it has key >=
  /// (skipped_bound, 0). Written by the producer, read by the merge once it
  /// has drained the lane.
  Atomic<uint64_t> skipped_bound{0};
};

/// The N1×N2 lane matrix. Constructed before the shards on either side and
/// destroyed after them (it owns the queues both sides touch).
class ExchangeFabric {
 public:
  /// `producers`/`consumers` must be >= 1; `lane_capacity` bounds each lane
  /// like any runtime queue (rounded up to a power of two, clamped) and is
  /// the lane's whole flow-control budget.
  ExchangeFabric(size_t producers, size_t consumers, size_t lane_capacity);

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
  /// Times a full lane made the producer wait (one per wait episode).
  size_t backpressure_waits = 0;
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
  /// the lane is full. Fails fast once the fabric was aborted.
  PLDP_HOT Status Emit(const Event& event);

  /// Links an emitter driven by the same thread (another lane-group of the
  /// same shard): a wait on a full lane of this row broadcasts the peer's
  /// frontier too. Must precede the first Emit.
  void AddPeer(ExchangeEmitter* peer) { peers_.push_back(peer); }

  /// Sends `watermark(bound)` — every future item on this row has key >=
  /// (bound, 0) — to all lanes. Never waits: a lane with items in flight
  /// gets the bound through its `skipped_bound` instead. Monotone per
  /// lane: bounds at or below what a lane already has are skipped. Always
  /// OK, also on an aborted fabric, so drain barriers complete after an
  /// abort.
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
  /// Full-lane wait: counts the episode, then, until `lane` has room or
  /// the fabric aborts, broadcasts the exact frontier (trigger_,
  /// sub_next_) of this row and of every peer's — without it a cycle of
  /// producers blocked on each other's unreleased items, in this
  /// lane-group or across the groups of one shard, could deadlock the
  /// merges.
  Status AwaitRoom(ExchangeLane& lane) PLDP_REQUIRES(driver_role_);

  /// BroadcastKey of the current frontier; entered from a peer's wait.
  void BroadcastFrontier();

  /// Full-key watermark: every future item on this row has key >= `bound`.
  /// Broadcast(b) is BroadcastKey({b, 0}); the full-lane wait uses the
  /// exact frontier so consumers can release everything strictly below the
  /// item the producer is blocked on.
  void BroadcastKey(ExchangeKey bound) PLDP_REQUIRES(driver_role_);

  std::vector<ExchangeLane*> row_;
  std::vector<ExchangeEmitter*> peers_;
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
  /// Per lane, the highest bound it has been sent — as a watermark item,
  /// or as (skipped_bound, 0) when it held items.
  std::vector<ExchangeKey> sent_ PLDP_GUARDED_BY(driver_role_);

  // Stats written by the worker (relaxed), read from any thread.
  Atomic<uint64_t> forwarded_{0};
  Atomic<uint64_t> watermarks_{0};
  Atomic<uint64_t> backpressure_waits_{0};
};

}  // namespace pldp

#endif  // PLDP_RUNTIME_EXCHANGE_H_
