// Copyright 2026 The PLDP Authors.

#include "runtime/admission.h"

#include <functional>
#include <utility>

namespace pldp {

AdmissionQueue::AdmissionQueue(OverloadOptions options,
                               std::vector<Shard*> shards,
                               std::atomic<uint64_t>* pushed_counter)
    : options_(options),
      state_(shards.size()),
      pushed_counter_(pushed_counter) {
  for (size_t i = 0; i < shards.size(); ++i) state_[i].shard = shards[i];
}

size_t AdmissionQueue::PendingCapacity(const PerShard& ps) const {
  if (options_.pending_capacity > 0) return options_.pending_capacity;
  return ps.shard->queue_capacity();
}

bool AdmissionQueue::ShouldShedBeforeStamp(size_t shard_index,
                                           const Event& event) {
  ingest_role_.Assert();
  if (options_.policy != OverloadPolicy::kShedBySubject) return false;
  if (shed_subjects_.empty()) return false;
  if (shed_subjects_.count(event.stream()) == 0) return false;
  NoteShed(state_[shard_index], 1);
  return true;
}

bool AdmissionQueue::FlushShard(PerShard& ps) {
  bool emptied = true;
  while (!ps.pending.empty()) {
    if (ps.shard->TryPushStampedN(&ps.pending.front(), 1) != 1) {
      emptied = false;
      break;
    }
    ps.pending.pop_front();
    // order: relaxed; both counters are written only by the ingest
    // thread (ingest_role_) and read elsewhere as telemetry hints.
    pending_total_.fetch_sub(1, std::memory_order_relaxed);
    if (pushed_counter_ != nullptr) {
      pushed_counter_->fetch_add(1, std::memory_order_relaxed);
    }
  }
  SyncPendingSeq(ps);
  return emptied;
}

void AdmissionQueue::NoteShed(PerShard& ps, size_t count) {
  // order: relaxed; shed tallies are standalone telemetry counters.
  ps.shed.fetch_add(count, std::memory_order_relaxed);
  shed_total_.fetch_add(count, std::memory_order_relaxed);
}

void AdmissionQueue::SyncPendingSeq(PerShard& ps) {
  // order: relaxed; a cross-thread ClampFloor reader needs only an
  // eventually-current hint — the queue push itself publishes events.
  ps.oldest_pending_seq.store(
      ps.pending.empty() ? ~uint64_t{0} : ps.pending.front().seq,
      std::memory_order_relaxed);
}

void AdmissionQueue::MaybeClearShedSet() {
  if (options_.policy != OverloadPolicy::kShedBySubject) return;
  if (shed_subjects_.empty()) return;
  // order: relaxed; same-thread read of an ingest-thread-owned counter.
  if (pending_total_.load(std::memory_order_relaxed) == 0) {
    // Episode over: every parked event landed, the queues have room again.
    shed_subjects_.clear();
  }
}

bool AdmissionQueue::Offer(size_t shard_index, StampedEvent stamped) {
  ingest_role_.Assert();
  PerShard& ps = state_[shard_index];
  // Order preservation: parked events always leave before new ones enter.
  if (FlushShard(ps)) {
    if (ps.shard->TryPushStampedN(&stamped, 1) == 1) {
      if (pushed_counter_ != nullptr) {
        // order: relaxed; standalone telemetry counter.
        pushed_counter_->fetch_add(1, std::memory_order_relaxed);
      }
      MaybeClearShedSet();
      return true;
    }
  }
  // Queue full (or older events still parked): park or shed.
  if (ps.pending.size() >= PendingCapacity(ps)) {
    switch (options_.policy) {
      case OverloadPolicy::kShedOldest:
        // Freshness wins: the oldest parked event makes room for this one.
        ps.pending.pop_front();
        // order: relaxed; ingest-thread-owned counter (telemetry hint).
        pending_total_.fetch_sub(1, std::memory_order_relaxed);
        NoteShed(ps, 1);
        break;
      case OverloadPolicy::kShedBySubject:
        // This subject overflowed the buffer: drop the event and keep
        // dropping the subject (pre-stamping) until the episode ends.
        shed_subjects_.insert(stamped.event.stream());
        NoteShed(ps, 1);
        return false;
      case OverloadPolicy::kBlock:
        // The engine never routes through AdmissionQueue under kBlock;
        // tolerate it anyway by parking without a cap.
        break;
    }
  }
  ps.pending.push_back(std::move(stamped));
  // order: relaxed; ingest-thread-owned counter (telemetry hint).
  pending_total_.fetch_add(1, std::memory_order_relaxed);
  SyncPendingSeq(ps);
  return true;
}

void AdmissionQueue::Pump() {
  ingest_role_.Assert();
  // order: relaxed; same-thread read of an ingest-thread-owned counter.
  if (pending_total_.load(std::memory_order_relaxed) == 0) return;
  for (PerShard& ps : state_) FlushShard(ps);
  MaybeClearShedSet();
}

Status AdmissionQueue::FlushBlocking(
    const std::function<void(uint64_t)>& vouch) {
  ingest_role_.Assert();
  // Oldest parked event first, across shards: when its ring is full,
  // every event below it has landed, so the floor vouches for exactly
  // that before the push waits. A worker whose exchange output waits on
  // an idle peer's watermark is freed by it; shard by shard, the push
  // could wait on a worker that waits on events parked for a later shard.
  for (;;) {
    PerShard* oldest = nullptr;
    for (PerShard& ps : state_) {
      if (!ps.pending.empty() &&
          (oldest == nullptr ||
           ps.pending.front().seq < oldest->pending.front().seq)) {
        oldest = &ps;
      }
    }
    if (oldest == nullptr) break;
    StampedEvent& front = oldest->pending.front();
    if (oldest->shard->TryPushStampedN(&front, 1) != 1) {
      if (vouch) vouch(front.seq);
      PLDP_RETURN_IF_ERROR(oldest->shard->PushStampedN(&front, 1));
    }
    oldest->pending.pop_front();
    // order: relaxed; ingest-thread-owned counters (telemetry hints).
    pending_total_.fetch_sub(1, std::memory_order_relaxed);
    if (pushed_counter_ != nullptr) {
      pushed_counter_->fetch_add(1, std::memory_order_relaxed);
    }
    SyncPendingSeq(*oldest);
  }
  MaybeClearShedSet();
  return Status::OK();
}

uint64_t AdmissionQueue::ClampFloor(uint64_t floor) const {
  uint64_t clamped = floor;
  for (const PerShard& ps : state_) {
    // order: relaxed; a stale hint only makes the clamp conservative —
    // the floor never overtakes events still parked here.
    const uint64_t oldest =
        ps.oldest_pending_seq.load(std::memory_order_relaxed);
    if (oldest < clamped) clamped = oldest;
  }
  return clamped;
}

}  // namespace pldp
