// Copyright 2026 The PLDP Authors.
//
// Escalating wait shared by every spin site of the runtime: producers on a
// full queue, workers on an empty queue, drain barriers on a lagging
// counter. Burn a few iterations, then yield, then sleep — low latency
// under load without pinning a core when idle.
//
// Workers additionally escalate past the yield phase into a real park on a
// `Doorbell` (condition-variable wait): once ShouldPark() reports that the
// spin and yield budgets are exhausted, the worker re-checks its work
// predicate under the doorbell's protocol and blocks until a producer
// rings. Producers never park — their wait is always bounded by a live
// consumer draining the queue.
//
// A worker's yield budget adapts to its last park (Backoff::Park times
// it): after a park longer than kLongParkNs the next idle episode parks as
// soon as the spin phase ends and skips the yields; after a shorter park
// (or a park that work preempted) it gets the full spin + yield budget
// again. This is the adaptive form of spin-then-block (Karlin et al.,
// "Empirical Studies of Competitive Spinning for a Shared-Memory
// Multiprocessor", SOSP 1991; Lim & Agarwal, "Waiting Algorithms for
// Synchronization in Large-Scale Multiprocessors", TOCS 1993): a long
// park says work arrives sparsely, so yielding before the next park only
// burns CPU, while a short one says the next item is close and is worth
// waiting for awake. Producer and barrier waits keep the fixed schedule:
// the full-lane ping-pong between exchange producers and merge shards (most
// of it in a pipeline's warm-up) needs both sides to keep polling through
// short gaps, and a producer that sleeps early stretches every such
// exchange.
//
// Under PLDP_MODEL_CHECK a Backoff::Wait is a model-scheduler yield, the
// budgets collapse to one iteration and Park takes no clock reads, so spin
// loops become explicit schedule points instead of wall-clock burns. The
// Doorbell protocol is machine-checked by tests/check/check_doorbell_test.cc
// (the lost-wakeup argument below, explored exhaustively).

#ifndef PLDP_RUNTIME_BACKOFF_H_
#define PLDP_RUNTIME_BACKOFF_H_

#include <chrono>
#include <cstdint>
#include <mutex>
#include <thread>
#include <utility>

#include "common/atomic.h"
#include "common/thread_annotations.h"

#ifdef PLDP_MODEL_CHECK
#include "check/model.h"
#endif

namespace pldp {

class Doorbell;

class Backoff {
 public:
  /// A producer or barrier wait: the fixed spin → yield → sleep schedule.
  Backoff() = default;
  /// The idle wait of a worker that parks on a Doorbell: `idle_yields`
  /// accumulates the yields of each idle episode, one relaxed add when the
  /// episode ends (Reset or Park).
  explicit Backoff(Atomic<uint64_t>* idle_yields)
      : idle_yields_(idle_yields) {}

  void Wait() {
#ifdef PLDP_MODEL_CHECK
    ++spins_;
    check::ModelYieldSpin();
#else
    if (spins_ < kSpinLimit) {
      ++spins_;
    } else if (spins_ < kSpinLimit + yield_limit_) {
      ++spins_;
      std::this_thread::yield();
    } else {
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
#endif
  }

  /// True once the spin and yield budgets are exhausted — the point where a
  /// worker that owns a Doorbell should park instead of sleep-polling.
  bool ShouldPark() const { return spins_ >= kSpinLimit + yield_limit_; }

  /// Ends the wait episode: the next Wait starts the spin phase afresh.
  void Reset() {
    if (idle_yields_ != nullptr && spins_ > kSpinLimit) {
      // order: relaxed; telemetry only.
      idle_yields_->fetch_add(static_cast<uint64_t>(spins_ - kSpinLimit),
                              std::memory_order_relaxed);
    }
    spins_ = 0;
  }

  /// Worker side: ends the idle episode, parks on `bell` unless `has_work`
  /// (Doorbell::ParkUnless), and sizes the next episode's yield budget
  /// from how long that took. Returns ParkUnless's result.
  template <typename HasWork>
  bool Park(Doorbell& bell, HasWork&& has_work);

  /// Sets the yield budget from the duration of the last park: none after
  /// a long park, the full one otherwise. Park calls it; tests feed it
  /// durations directly.
  void NoteParkNs(uint64_t park_ns) {
    yield_limit_ = park_ns > kLongParkNs ? 0 : kYieldLimit;
  }

  /// A park longer than this switches the next idle episode to spin-only.
  /// 200 µs, measured on perfbench's open-loop `paced` workload (4-thread
  /// VM, one 32-event batch every 533 µs): 97% of the stage-1 parks and
  /// 90% of the merge parks between batches last longer, most 400–550 µs,
  /// while half of the few parks in its closed-loop warm-up are shorter
  /// and keep the full budget there.
  static constexpr uint64_t kLongParkNs = 200000;

 private:
#ifdef PLDP_MODEL_CHECK
  // One model yield is a full "budget": parks and stall hooks become
  // reachable within a handful of schedule points instead of 128.
  static constexpr int kSpinLimit = 1;
  static constexpr int kYieldLimit = 0;
#else
  static constexpr int kSpinLimit = 64;
  static constexpr int kYieldLimit = 64;
#endif
  int spins_ = 0;
  /// kYieldLimit, or 0 after a long park (NoteParkNs).
  int yield_limit_ = kYieldLimit;
  Atomic<uint64_t>* idle_yields_ = nullptr;
};

/// Wake-on-work doorbell: one parked consumer, any number of ringers.
///
/// The consumer calls `ParkUnless(has_work)` when its queues look empty;
/// producers call `Ring()` after publishing work (an SpscQueue push, a
/// command post, a producer-floor store, a stop flag). The fast path of
/// Ring() is a fence plus one relaxed load — no lock, no allocation — so
/// ringing with no one parked (the common case under load) is nearly free.
///
/// Lost-wakeup argument (why a Ring between the consumer's last empty
/// check and its cv wait cannot strand it):
///
///   1. Producer order:  publish work (atomic store) → seq_cst fence
///      [inside Ring] → load waiters_. Consumer order: increment waiters_
///      → seq_cst fence → has_work() (atomic loads). These fences form the
///      classic Dekker/store-buffering pair: in the single total order of
///      seq_cst fences, one executes first. If the consumer's fence is
///      first, the producer's waiters_ load sees the increment and Ring
///      takes the slow path (notify). If the producer's fence is first,
///      the consumer's has_work() is guaranteed to observe the published
///      work and the consumer does not park. Either way: no lost wakeup
///      at the predicate check.
///   2. Between has_work() returning false and the cv wait actually
///      blocking there is still a window. It is closed by the epoch: the
///      consumer reads epoch_ BEFORE advertising itself as a waiter, and
///      RingSlow() bumps epoch_ under the mutex before notifying. The cv
///      wait's predicate is `epoch_ != observed` and is evaluated under
///      that same mutex, so a bump from any concurrent ring — even one
///      that fired before the consumer reached the wait — is seen there
///      and the wait returns immediately.
///   3. A bump from an unrelated ring at worst causes a spurious return;
///      the consumer re-polls its queues, which is always correct.
///
/// Both halves of the argument are machine-checked: the model suite
/// tests/check/check_doorbell_test.cc explores every schedule of
/// park-vs-ring within the preemption bound, and its negative twin
/// (PLDP_CHECK_NEGATIVE_DOORBELL, which deletes the Ring fence below)
/// proves the checker sees the resulting lost wakeup as a deadlock.
///
/// The mutex is pldp::SyncMutex (std::mutex in normal builds, the model
/// mutex under PLDP_MODEL_CHECK) because the condition variable needs it;
/// nothing else is guarded by it — epoch_ is bumped under it purely to
/// order the bump against the wait predicate.
class Doorbell {
 public:
  /// Producer side: call after publishing work with at least one atomic
  /// release store (queue tail, command generation, stop flag, floor).
  /// Nearly free when no one is parked.
  PLDP_HOT void Ring() {
#ifndef PLDP_CHECK_NEGATIVE_DOORBELL
    // order: seq_cst fence pairs with the one in ParkUnless — the Dekker
    // pair of the lost-wakeup argument (file comment, point 1).
    AtomicFence(std::memory_order_seq_cst);
#endif
    // order: relaxed is enough — the fence above orders this load after
    // the caller's work publication in the SC order.
    if (waiters_.load(std::memory_order_relaxed) != 0) {
      RingSlow();  // hotpath-allow: cold half — runs only with a parked consumer
    }
  }

  /// Consumer side: parks until the next Ring unless `has_work` already
  /// holds. `has_work` must read only atomics (it runs on this thread but
  /// races producers by design) and must be monotone under the producers'
  /// publications: once work is published, it returns true until the
  /// consumer itself consumes it. Returns true when the thread actually
  /// parked (and was woken), false when has_work() preempted the park.
  /// At most one thread may park on a doorbell at a time.
  template <typename HasWork>
  bool ParkUnless(HasWork&& has_work) {
    // order: acquire so the epoch observed here is no older than any ring
    // whose work publication we have already seen (file comment, point 2).
    const uint64_t observed = epoch_.load(std::memory_order_acquire);
    // order: relaxed; ordering against has_work() comes from the fence.
    waiters_.fetch_add(1, std::memory_order_relaxed);
    // order: seq_cst fence pairs with the one in Ring (point 1).
    AtomicFence(std::memory_order_seq_cst);
    if (has_work()) {
      // order: relaxed; no payload is published by de-advertising.
      waiters_.fetch_sub(1, std::memory_order_relaxed);
      return false;
    }
    // order: relaxed; telemetry only.
    parks_.fetch_add(1, std::memory_order_relaxed);
    {
      std::unique_lock<SyncMutex> lock(mu_);
      cv_.wait(lock, [&] {
        // order: relaxed; the mutex orders this read against RingSlow's
        // bump (point 2).
        return epoch_.load(std::memory_order_relaxed) != observed;
      });
    }
    // order: relaxed; no payload is published by de-advertising.
    waiters_.fetch_sub(1, std::memory_order_relaxed);
    return true;
  }

  /// Park/wake counts, readable from any thread: the source of ShardStats,
  /// the parking tests and the metrics registry's park/wake families.
  uint64_t parks() const {
    // order: relaxed; monotonic telemetry counter.
    return parks_.load(std::memory_order_relaxed);
  }
  uint64_t wakes() const {
    // order: relaxed; monotonic telemetry counter.
    return wakes_.load(std::memory_order_relaxed);
  }

 private:
  void RingSlow() {
    {
      std::lock_guard<SyncMutex> lock(mu_);
      // order: relaxed; bumped under mu_ so the cv predicate orders
      // against it without further fences (file comment, point 2).
      epoch_.fetch_add(1, std::memory_order_relaxed);
    }
    cv_.notify_all();
    // order: relaxed; telemetry only.
    wakes_.fetch_add(1, std::memory_order_relaxed);
  }

  SyncMutex mu_;
  SyncCondVar cv_;
  /// Number of threads past the park decision (0 or 1 in practice).
  Atomic<int> waiters_{0};
  /// Ring generation; bumped under mu_ so the cv predicate orders against
  /// it without further fences.
  Atomic<uint64_t> epoch_{0};
  Atomic<uint64_t> parks_{0};
  Atomic<uint64_t> wakes_{0};
};

template <typename HasWork>
bool Backoff::Park(Doorbell& bell, HasWork&& has_work) {
  Reset();
#ifdef PLDP_MODEL_CHECK
  return bell.ParkUnless(std::forward<HasWork>(has_work));
#else
  const auto start = std::chrono::steady_clock::now();
  const bool parked = bell.ParkUnless(std::forward<HasWork>(has_work));
  NoteParkNs(static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start)
          .count()));
  return parked;
#endif
}

}  // namespace pldp

#endif  // PLDP_RUNTIME_BACKOFF_H_
