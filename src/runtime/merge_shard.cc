// Copyright 2026 The PLDP Authors.

#include "runtime/merge_shard.h"

#include <utility>

#include "runtime/affinity.h"
#include "runtime/backoff.h"

namespace pldp {

MergeShard::MergeShard(size_t index, std::vector<ExchangeLane*> inputs)
    : index_(index), inputs_(std::move(inputs)) {
  lanes_.reserve(inputs_.size());
  for (ExchangeLane* lane : inputs_) {
    lanes_.emplace_back(lane);
    // This shard's worker is the lane queue's sole consumer: route the
    // lane's doorbell to it (the emitter rings it for pushes at the head,
    // SpscQueue::PublishAtHead).
    lane->queue.SetWaker(&doorbell_);
  }
  engine_.SetCallback([this](const StreamingDetection& d) {
    // order: relaxed; telemetry only.
    detections_.fetch_add(1, std::memory_order_relaxed);
    if (callbacks_[d.query_index]) callbacks_[d.query_index](d.at);
  });
}

MergeShard::~MergeShard() { (void)Stop(); }

StatusOr<size_t> MergeShard::AddQuery(
    Pattern pattern, Timestamp window,
    std::function<void(Timestamp)> callback) {
  // order: relaxed; pre-start guard, orchestrator-serialized.
  if (running_.load(std::memory_order_relaxed)) {
    return Status::FailedPrecondition(
        "MergeShard::AddQuery must precede Start()");
  }
  PLDP_ASSIGN_OR_RETURN(size_t index,
                        engine_.AddQuery(std::move(pattern), window));
  callbacks_.push_back(std::move(callback));
  return index;
}

Status MergeShard::SetInstruments(const obs::MergeInstruments& instruments) {
  // order: relaxed; pre-start guard, orchestrator-serialized.
  if (running_.load(std::memory_order_relaxed)) {
    return Status::FailedPrecondition(
        "MergeShard::SetInstruments must precede Start()");
  }
  obs_ = instruments;
  return Status::OK();
}

Status MergeShard::Start() {
  // order: relaxed; orchestrator-serialized (one thread calls Start/Stop).
  if (running_.load(std::memory_order_relaxed)) {
    return Status::FailedPrecondition("merge shard already running");
  }
  // Pre-launch the orchestrator owns the worker role; it hands it over by
  // the thread launch (the lambda acquires it on entry).
  worker_role_.Acquire();
  const bool no_lanes = lanes_.empty();
  worker_role_.Release();
  if (no_lanes) {
    return Status::FailedPrecondition("merge shard has no input lanes");
  }
  // order: relaxed; the thread launch below is the synchronization edge.
  stop_requested_.store(false, std::memory_order_relaxed);
  worker_ = std::thread([this] {
    if (affinity_core_ >= 0) (void)PinCurrentThreadToCore(affinity_core_);
    worker_role_.Acquire();
    RunLoop();
    worker_role_.Release();
  });
  // order: relaxed; advisory flag for running() observers.
  running_.store(true, std::memory_order_relaxed);
  return Status::OK();
}

Status MergeShard::WaitSafe(uint64_t bound) {
  Backoff backoff;
  // order: acquire pairs with the worker's release publication (the
  // caller reads the engine after this returns).
  while (safe_primary_.load(std::memory_order_acquire) < bound) {
    backoff.Wait();
  }
  return Status::OK();
}

Status MergeShard::Stop() {
  // order: relaxed; orchestrator-serialized (one thread calls Start/Stop).
  if (!running_.load(std::memory_order_relaxed)) return Status::OK();
  // order: release so work published before the stop request is visible
  // to the worker that observes it (acquire in RunLoop).
  stop_requested_.store(true, std::memory_order_release);
  doorbell_.Ring();  // A parked worker must observe the stop flag.
  if (worker_.joinable()) worker_.join();
  // The worker is gone and (by the orchestrator's teardown order) so are
  // the producers; this thread is the sole owner now — take the worker
  // role back. Absorb anything a skipped barrier left behind, still in
  // key order so the result is a deterministic function of what arrived.
  worker_role_.Acquire();
  (void)MergePass(/*force=*/true);
  worker_role_.Release();
  // order: release publishes the absorbed leftovers to WaitSafe callers.
  safe_primary_.store(kExchangeSeqEnd, std::memory_order_release);
  // order: relaxed; advisory flag for running() observers.
  running_.store(false, std::memory_order_relaxed);
  return Status::OK();
}

ShardStats MergeShard::stats() const {
  ShardStats s;
  s.shard_index = index_;
  // order: acquire pairs with the worker's release in MergePass, so a
  // reader that saw N processed also sees the engine effects of those N.
  s.events_processed =
      static_cast<size_t>(merged_.load(std::memory_order_acquire));
  // order: relaxed; telemetry only.
  s.detections =
      static_cast<size_t>(detections_.load(std::memory_order_relaxed));
  s.parks = static_cast<size_t>(doorbell_.parks());
  s.wakes = static_cast<size_t>(doorbell_.wakes());
  s.idle_yields = static_cast<size_t>(idle_yields());
  return s;
}

const ExchangeItem* MergeShard::Head(LaneState& lane) {
  SpscQueue<ExchangeItem>& queue = lane.lane->queue;
  for (;;) {
    if (queue.Peek(1) == 0) {
      // order: acquire pairs with the emitter's release store: every item
      // pushed before the skipped broadcast is visible to the re-peek, so
      // an empty lane after it has delivered all of them.
      const uint64_t skipped =
          lane.lane->skipped_bound.load(std::memory_order_acquire);
      if (skipped <= lane.bound.primary) return nullptr;
      if (queue.Peek(1) == 0) {
        lane.bound = ExchangeKey{skipped, 0};
        return nullptr;
      }
    }
    const ExchangeItem& item = queue.PeekedSlot(0);
    if (!item.watermark) {
      // The producer kept its promises: no event below a bound it sent.
      PLDP_PROTOCOL_ASSERT(lane.bound <= item.key);
      return &item;
    }
    // Watermarks only advance the lane's future lower bound.
    if (lane.bound < item.key) lane.bound = item.key;
    queue.Release(1);
  }
}

bool MergeShard::MergePass(bool force) {
  size_t released = 0;
  // Chained clock reads: one MonotonicNowNs per released event.
  uint64_t t_prev = obs_.merge_latency_ns ? obs::MonotonicNowNs() : 0;
  for (;;) {
    // Candidate: the globally smallest event head; gate: the smallest
    // bound of an empty lane.
    LaneState* best = nullptr;
    ExchangeKey key;
    const ExchangeKey* silent = nullptr;
    for (LaneState& lane : lanes_) {
      const ExchangeItem* head = Head(lane);
      lane.empty = head == nullptr;
      if (lane.empty) {
        if (silent == nullptr || lane.bound < *silent) silent = &lane.bound;
      } else if (best == nullptr || head->key < key) {
        best = &lane;
        key = head->key;
      }
    }
    // Release only when every silent lane provably passed the candidate.
    if (best == nullptr || (!force && silent != nullptr && *silent <= key)) {
      // Everything below the smallest head or empty-lane bound is done.
      uint64_t frontier = best == nullptr ? kExchangeSeqEnd : key.primary;
      if (silent != nullptr && silent->primary < frontier) {
        frontier = silent->primary;
      }
      // order: relaxed; this thread is the only writer, so its own last
      // store is always visible to it.
      if (frontier > safe_primary_.load(std::memory_order_relaxed)) {
        // order: release publishes the merged engine state to WaitSafe.
        safe_primary_.store(frontier, std::memory_order_release);
      }
      break;
    }
    SpscQueue<ExchangeItem>& queue = best->lane->queue;
#ifdef PLDP_CHECK_NEGATIVE_MERGE
    // Seeded mutation for the model checker's negative suite: freeing the
    // slot before the engine reads it (offset -1 wraps to the slot just
    // released) lets the producer refill it under the read.
    queue.Release(1);
    const ExchangeItem& item = queue.PeekedSlot(~size_t{0});
#else
    const ExchangeItem& item = queue.PeekedSlot(0);
#endif
    // The engine's status is always OK today (see Shard::RunLoop); a future
    // failing engine would latch the error for the drain barrier.
    (void)engine_.OnEvent(Event(item.type, item.timestamp, item.stream));
    // Events bound the future strictly: later keys exceed this one.
    best->bound = ExchangeKey{key.primary, key.sub + 1};
#ifndef PLDP_CHECK_NEGATIVE_MERGE
    // The engine is done with the slot: its producer may refill it.
    queue.Release(1);
#endif
    ++released;
    if (obs_.merge_latency_ns) {
      const uint64_t t_now = obs::MonotonicNowNs();
      obs_.merge_latency_ns->Record(t_now - t_prev);
      t_prev = t_now;
    }
  }
  if (released > 0) {
    // order: release publishes the engine effects to stats() readers.
    merged_.fetch_add(released, std::memory_order_release);
  }
  return released > 0;
}

void MergeShard::RunLoop() {
  Backoff backoff(&idle_yields_);
  // The park predicate watches each lane the last pass found empty for a
  // push or a skipped bound above the one applied; kExchangeSeqEnd marks a
  // lane held by its head, which a push behind it cannot change. It reads
  // only this unguarded local, refreshed before each park, as the analysis
  // treats it as unannotated.
  std::vector<uint64_t> applied(inputs_.size(), 0);
  for (;;) {
    if (MergePass(/*force=*/false)) {
      backoff.Reset();
      continue;
    }
    // order: acquire pairs with Stop()'s release store.
    if (stop_requested_.load(std::memory_order_acquire)) return;
    if (backoff.ShouldPark()) {
      for (size_t i = 0; i < applied.size(); ++i) {
        applied[i] =
            lanes_[i].empty ? lanes_[i].bound.primary : kExchangeSeqEnd;
      }
      // Each watched source rings this doorbell: a push at a lane's head, a
      // skipped bound on a drained lane (SpscQueue::PublishAtHead) and
      // Stop(). Merge progress is driven by lane input alone; see
      // runtime/backoff.h for the lost-wakeup argument.
      (void)backoff.Park(doorbell_, [this, &applied] {
        for (size_t i = 0; i < applied.size(); ++i) {
          if (applied[i] == kExchangeSeqEnd) continue;
          if (!inputs_[i]->queue.ApproxEmpty()) return true;
          // order: acquire pairs with the emitter's release store.
          if (inputs_[i]->skipped_bound.load(std::memory_order_acquire) >
              applied[i]) {
            return true;
          }
        }
        // order: acquire (same pairing as the loop check above).
        return stop_requested_.load(std::memory_order_acquire);
      });
      continue;
    }
    backoff.Wait();
  }
}

}  // namespace pldp
