// Copyright 2026 The PLDP Authors.
//
// Ingest admission control for the sharded runtime: the layer between the
// router and the shard queues that decides what happens when a queue is
// full (runtime/overload.h picks the policy).
//
// Under the shedding policies every shard gets a small pending FIFO in
// front of its queue. Admission always flushes the FIFO before pushing a
// new event, so admitted events reach the shard in exact ingest order —
// the policies only ever DROP, never reorder, which is what makes a run
// that sheds nothing bit-identical to the blocking default. When both the
// queue and the FIFO are full:
//
//   kShedOldest     the oldest parked event is dropped to admit the newest
//   kShedBySubject  the incoming event's subject joins a sticky shed set
//                   and the event is dropped pre-stamping; the set clears
//                   when every pending FIFO drains (episode end)
//
// Every drop is counted (per shard, exposed through the
// `pldp_shed_events_total` metric family and the engine's
// quality::SheddingStats roll-up).
//
// Parked events interact with the exchange watermark protocol: a parked
// event's sequence number must never fall below a published producer
// floor, or a late flush would violate watermark monotonicity and corrupt
// the stage-2 merge order. ClampFloor() is that guard — the engine runs
// every floor it publishes through it.
//
// Threading: single-threaded by design — every mutating call happens on
// the one ingest thread (the same contract as Shard's producer side);
// the ThreadRole token makes the analysis check it. The counters are
// atomics so stats/metrics scrapes from other threads are race-free.

#ifndef PLDP_RUNTIME_ADMISSION_H_
#define PLDP_RUNTIME_ADMISSION_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <unordered_set>
#include <vector>

#include "common/status.h"
#include "common/thread_annotations.h"
#include "event/event.h"
#include "runtime/overload.h"
#include "runtime/ring_buffer.h"
#include "runtime/shard.h"

namespace pldp {

/// Per-shard pending FIFOs + shed policy state, owned by the ingest
/// thread. Constructed only for the shedding policies (the blocking
/// default needs no layer at all).
class AdmissionQueue {
 public:
  /// `shards` are borrowed and must outlive this object. `pushed_counter`
  /// (optional) is incremented for every event that actually enters a
  /// shard queue — the engine points it at its ingested-events counter so
  /// parked events are counted when they land, not when they park.
  AdmissionQueue(OverloadOptions options, std::vector<Shard*> shards,
                 std::atomic<uint64_t>* pushed_counter);

  AdmissionQueue(const AdmissionQueue&) = delete;
  AdmissionQueue& operator=(const AdmissionQueue&) = delete;

  OverloadPolicy policy() const { return options_.policy; }

  /// Pre-stamping shed check (kShedBySubject only, false otherwise): true
  /// when the event's subject is in the active shed set and the event must
  /// be dropped before a sequence number is assigned. Counts the drop
  /// against `shard_index`.
  bool ShouldShedBeforeStamp(size_t shard_index, const Event& event);

  /// Admits one stamped event destined for `shard_index`: flushes that
  /// shard's pending FIFO as far as the queue allows, then pushes the
  /// event, parks it, or sheds per policy. Returns true when the event was
  /// admitted (queued or parked), false when it was shed. Never blocks.
  bool Offer(size_t shard_index, StampedEvent stamped);

  /// Opportunistic non-blocking flush of every pending FIFO. Cheap when
  /// everything is empty; call it once per ingest batch.
  void Pump();

  /// Blocking flush of every pending FIFO, oldest sequence number first
  /// across shards — the drain/finish barrier path. Before a push waits on
  /// a full ring it calls `vouch(seq)` (if set) with that event's sequence
  /// number: every event below it has landed, so the engine may publish
  /// it as the producer floor. Fails fast (like Shard::PushStampedN) when
  /// a shard stops.
  Status FlushBlocking(
      const std::function<void(uint64_t)>& vouch = nullptr);

  /// min(floor, oldest parked sequence number across shards): the value
  /// that is actually safe to publish as a producer floor.
  uint64_t ClampFloor(uint64_t floor) const;

  /// Events parked across all shards right now (atomic; any thread).
  // order: relaxed; telemetry reads of ingest-thread-owned counters.
  size_t pending_total() const {
    return static_cast<size_t>(
        pending_total_.load(std::memory_order_relaxed));
  }

  /// Events deliberately dropped so far (atomic; any thread).
  // order: relaxed; see pending_total().
  uint64_t shed_total() const {
    return shed_total_.load(std::memory_order_relaxed);
  }

  /// Events dropped on one shard so far (atomic; any thread) — the source
  /// of pldp_shed_events_total.
  uint64_t shed(size_t shard_index) const {
    // order: relaxed; see pending_total().
    return state_[shard_index].shed.load(std::memory_order_relaxed);
  }

 private:
  struct PerShard {
    Shard* shard = nullptr;
    RingBuffer<StampedEvent> pending;
    std::atomic<uint64_t> shed{0};
    /// Oldest parked sequence number (~0 when nothing is parked),
    /// mirrored into an atomic so ClampFloor and scrapes stay
    /// annotation-clean.
    std::atomic<uint64_t> oldest_pending_seq{~uint64_t{0}};
  };

  size_t PendingCapacity(const PerShard& ps) const;
  /// Non-blocking: pushes parked events until the queue refuses or the
  /// FIFO empties. Returns true when the FIFO is empty afterwards.
  bool FlushShard(PerShard& ps) PLDP_REQUIRES(ingest_role_);
  void NoteShed(PerShard& ps, size_t count) PLDP_REQUIRES(ingest_role_);
  void SyncPendingSeq(PerShard& ps) PLDP_REQUIRES(ingest_role_);
  /// Ends a kShedBySubject episode when every FIFO drained.
  void MaybeClearShedSet() PLDP_REQUIRES(ingest_role_);

  const OverloadOptions options_;
  /// Single ingest thread drives every mutating entry point (asserted).
  ThreadRole ingest_role_;
  std::vector<PerShard> state_;
  std::unordered_set<StreamId> shed_subjects_ PLDP_GUARDED_BY(ingest_role_);
  std::atomic<uint64_t>* pushed_counter_;
  std::atomic<uint64_t> pending_total_{0};
  std::atomic<uint64_t> shed_total_{0};
};

}  // namespace pldp

#endif  // PLDP_RUNTIME_ADMISSION_H_
