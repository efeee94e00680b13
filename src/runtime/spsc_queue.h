// Copyright 2026 The PLDP Authors.
//
// Bounded lock-free single-producer / single-consumer ring buffer.
//
// This is the channel between the runtime's ingest thread and a shard
// worker (runtime/shard.h), and every exchange lane (runtime/exchange.h):
// exactly one thread produces and exactly one consumes, which lets the
// queue get away with two atomic indices and no CAS loops. Capacity is
// fixed at construction (rounded up to a power of two) so a slow consumer
// exerts backpressure on its producer instead of growing without bound.
//
// The primitives work on the slots in place, the claim/publish discipline
// of a pre-allocated ring (the LMAX Disruptor's): the producer claims free
// slots, writes them and publishes; the consumer peeks, reads them where
// they lie and releases them.
//
// Memory ordering: Publish makes slots visible with a release store of
// `tail_`; the consumer observes it with an acquire load, and vice versa for
// `head_` when Release frees slots. Each side keeps a plain copy of its own
// index and caches the other side's, so the common fast path touches only
// its own cache line (the classic Lamport queue + cached-index refinement).
//
// The index handoff (push/pop vs pop-empty/push-full races, including the
// slot payload's visibility through the release/acquire pair) is
// machine-checked by tests/check/check_spsc_test.cc; its negative twin
// (PLDP_CHECK_NEGATIVE_SPSC, which weakens the tail publication below to
// relaxed) proves the checker sees the resulting payload race.

#ifndef PLDP_RUNTIME_SPSC_QUEUE_H_
#define PLDP_RUNTIME_SPSC_QUEUE_H_

#include <cstddef>
#include <utility>
#include <vector>

#include "common/atomic.h"
#include "common/thread_annotations.h"
#include "runtime/backoff.h"

namespace pldp {

/// Rounds `n` up to the next power of two (minimum 2). Inputs above the
/// highest representable power of two cannot round up; they saturate there
/// instead of looping forever on `p <<= 1` overflowing to zero.
constexpr size_t NextPowerOfTwo(size_t n) {
  constexpr size_t kHighBit = size_t{1} << (8 * sizeof(size_t) - 1);
  if (n >= kHighBit) return kHighBit;
  size_t p = 2;
  while (p < n) p <<= 1;
  return p;
}

/// Upper bound on SpscQueue capacity (slots). A bounded queue exists to
/// exert backpressure; requests beyond this are treated as configuration
/// errors and clamped so a bogus capacity cannot demand a near-2^64
/// allocation.
inline constexpr size_t kMaxSpscCapacity = size_t{1} << 20;

/// Fixed-capacity wait-free SPSC queue. `T` must be default-constructible
/// and movable. Not safe for more than one producer or consumer thread.
template <typename T>
class SpscQueue {
 public:
  /// Usable capacity is `NextPowerOfTwo(capacity)` (the implementation
  /// keeps one index lap in reserve via the full/empty test, not a slot,
  /// so all slots are usable), clamped to `kMaxSpscCapacity`.
  explicit SpscQueue(size_t capacity)
      : mask_(NextPowerOfTwo(capacity < kMaxSpscCapacity ? capacity
                                                         : kMaxSpscCapacity) -
              1),
        slots_(mask_ + 1) {}

  SpscQueue(const SpscQueue&) = delete;
  SpscQueue& operator=(const SpscQueue&) = delete;

  PLDP_HOT size_t capacity() const { return mask_ + 1; }

  // Producer: Claim -> write the slots in place -> Publish, its one
  // publication point; TryPush/TryPushN wrap the three around a move.

  /// Free slots past the published tail, up to `want` (0 when full). With
  /// one producer a grant stays valid until published. Refreshes the
  /// cached consumer index only when fewer than `want` look free.
  PLDP_HOT size_t Claim(size_t want) {
    size_t free = capacity() - (tail_local_ - cached_head_);
    if (free < want) {
      // order: acquire pairs with the consumer's release store of head_ —
      // the slots it freed must be read out before we overwrite them.
      cached_head_ = head_.load(std::memory_order_acquire);
      free = capacity() - (tail_local_ - cached_head_);
    }
    return want < free ? want : free;
  }

  /// Claimed slot `offset` past the published tail (below the grant); it
  /// may hold a stale item, which the caller's write replaces.
  PLDP_HOT T& ClaimedSlot(size_t offset) {
    return RaceCellWrite(slots_[(tail_local_ + offset) & mask_]);
  }

  /// Makes the first `n` claimed slots visible with one release store and,
  /// if `ring`, one waker ring. Publish(0) is a no-op.
  PLDP_HOT void Publish(size_t n, bool ring = true) {
    if (n == 0) return;
    tail_local_ += n;
    // order: release publishes the slot writes before it to the
    // consumer's acquire load of tail_.
    tail_.store(tail_local_, kTailPublishOrder);
    if (ring && waker_ != nullptr) waker_->Ring();
  }

  /// Publish that rings only when the items land at the head (the consumer
  /// had released every earlier slot): a consumer that parks watching only
  /// the queues it found empty (the merge shard) waits on no other push.
  /// With `n` = 0 it rings a consumer that drained the queue, after a store
  /// that consumer reads only once the queue is empty.
  PLDP_HOT void PublishAtHead(size_t n) {
    const size_t head_before = tail_local_;
    Publish(n, /*ring=*/false);
    if (ConsumerReached(head_before)) waker_->Ring();
  }

  /// Returns false when the queue is full.
  PLDP_HOT bool TryPush(T&& value) {
    if (Claim(1) == 0) return false;
    ClaimedSlot(0) = std::move(value);
    Publish(1);
    return true;
  }

  /// Moves up to `count` leading items in under one release store and
  /// returns how many (0 when full); the rest are left untouched.
  PLDP_HOT size_t TryPushN(T* items, size_t count) {
    const size_t n = Claim(count);
    for (size_t i = 0; i < n; ++i) ClaimedSlot(i) = std::move(items[i]);
    Publish(n);
    return n;
  }

  // Consumer: Peek -> read the slots in place -> Release, its one
  // publication point; TryPop/TryPopN wrap the three around a move.

  /// Published slots past the head, up to `want` (0 when empty).
  /// Refreshes the cached producer index only when fewer look ready.
  PLDP_HOT size_t Peek(size_t want) {
    size_t ready = cached_tail_ - head_local_;
    if (ready < want) {
      // order: acquire pairs with the producer's release store of tail_ —
      // the slot contents must be visible before we read them.
      cached_tail_ = tail_.load(std::memory_order_acquire);
      ready = cached_tail_ - head_local_;
    }
    return want < ready ? want : ready;
  }

  /// Ready slot `offset` past the head (below the Peek count), read in
  /// place; valid until released.
  PLDP_HOT const T& PeekedSlot(size_t offset) const {
    return slots_[(head_local_ + offset) & mask_];
  }

  /// Frees the first `n` ready slots with one release store. Release(0)
  /// is a no-op.
  PLDP_HOT void Release(size_t n) {
    if (n == 0) return;
    head_local_ += n;
    // order: release frees the slots to the producer's acquire load of
    // head_ — our reads of them must complete before it reuses them.
    head_.store(head_local_, std::memory_order_release);
  }

  /// Returns false when the queue is empty.
  PLDP_HOT bool TryPop(T& out) {
    if (Peek(1) == 0) return false;
    out = RaceCellMove(slots_[head_local_ & mask_]);
    Release(1);
    return true;
  }

  /// Moves up to `max_count` items out under one release store and
  /// returns how many (0 when empty).
  PLDP_HOT size_t TryPopN(T* out, size_t max_count) {
    const size_t n = Peek(max_count);
    for (size_t i = 0; i < n; ++i) {
      out[i] = RaceCellMove(slots_[(head_local_ + i) & mask_]);
    }
    Release(n);
    return n;
  }

  /// Racy size estimate — exact only when both sides are quiescent.
  size_t ApproxSize() const {
    // order: acquire on both indices — callers use the estimate to decide
    // "nothing below X is pending", which must not run ahead of the
    // publication the index advance covered.
    const size_t tail = tail_.load(std::memory_order_acquire);
    // order: acquire (see above).
    const size_t head = head_.load(std::memory_order_acquire);
    return tail - head;
  }

  bool ApproxEmpty() const { return ApproxSize() == 0; }

  /// Attaches a doorbell rung after every successful push, so a consumer
  /// parked on it (runtime/backoff.h) wakes when work arrives. Must be set
  /// before the producer starts pushing; the queue does not own the bell.
  void SetWaker(Doorbell* waker) { waker_ = waker; }

 private:
  static constexpr size_t kCacheLine = 64;

  /// Producer side: a waker is set and the consumer has released every
  /// slot below `index`. The fence pairs with the one a parking consumer
  /// issues after its last release (Doorbell::ParkUnless), with head_ in
  /// the role of the waiter count: either this load sees the release (and
  /// the caller rings) or the consumer's predicate sees the producer's
  /// store.
  PLDP_HOT bool ConsumerReached(size_t index) {
    if (waker_ == nullptr) return false;
#ifndef PLDP_CHECK_NEGATIVE_LANE_RING  // check_lane_ring_negative_test
    // order: seq_cst fence (see above).
    AtomicFence(std::memory_order_seq_cst);
#endif
    // order: acquire, as in Claim: the refreshed cache also gates reuse of
    // the slots the consumer freed.
    cached_head_ = head_.load(std::memory_order_acquire);
    return cached_head_ == index;
  }

#ifdef PLDP_CHECK_NEGATIVE_SPSC
  // Seeded mutation for the model checker's negative suite: publishing
  // the tail with relaxed ordering lets the consumer observe the new
  // index before the slot contents — the payload race the release store
  // exists to prevent.
  static constexpr std::memory_order kTailPublishOrder =
      std::memory_order_relaxed;
#else
  static constexpr std::memory_order kTailPublishOrder =
      std::memory_order_release;
#endif

  const size_t mask_;
  // RaceCell is plain T in normal builds; under PLDP_MODEL_CHECK every
  // slot access is vector-clock checked against the chosen schedule.
  std::vector<RaceCell<T>> slots_;

  // Producer-owned line: its published index, the producer's own copy of
  // it (read without an atomic load), and a cache of the consumer's.
  alignas(kCacheLine) Atomic<size_t> tail_{0};
  size_t tail_local_ = 0;
  size_t cached_head_ = 0;
  Doorbell* waker_ = nullptr;

  // Consumer-owned line, mirrored the same way.
  alignas(kCacheLine) Atomic<size_t> head_{0};
  size_t head_local_ = 0;
  size_t cached_tail_ = 0;
};

}  // namespace pldp

#endif  // PLDP_RUNTIME_SPSC_QUEUE_H_
