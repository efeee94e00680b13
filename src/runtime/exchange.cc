// Copyright 2026 The PLDP Authors.

#include "runtime/exchange.h"

#include <utility>

#include "runtime/backoff.h"

namespace pldp {
namespace {

uint64_t SubjectKey(const Event& event) {
  return static_cast<uint64_t>(event.stream());
}

}  // namespace

ExchangeFabric::ExchangeFabric(size_t producers, size_t consumers,
                               size_t lane_capacity)
    : producers_(producers < 1 ? 1 : producers),
      consumers_(consumers < 1 ? 1 : consumers) {
  lanes_.reserve(producers_ * consumers_);
  for (size_t i = 0; i < producers_ * consumers_; ++i) {
    lanes_.push_back(std::make_unique<ExchangeLane>(lane_capacity));
  }
}

std::vector<ExchangeLane*> ExchangeFabric::Row(size_t producer) {
  std::vector<ExchangeLane*> row;
  row.reserve(consumers_);
  for (size_t c = 0; c < consumers_; ++c) row.push_back(&lane(producer, c));
  return row;
}

std::vector<ExchangeLane*> ExchangeFabric::Column(size_t consumer) {
  std::vector<ExchangeLane*> column;
  column.reserve(producers_);
  for (size_t p = 0; p < producers_; ++p) {
    column.push_back(&lane(p, consumer));
  }
  return column;
}

ExchangeEmitter::ExchangeEmitter(std::vector<ExchangeLane*> row,
                                 ShardKeyFn key_fn, ExchangeFabric* fabric)
    : row_(std::move(row)),
      router_(row_.size()),
      key_fn_(key_fn ? std::move(key_fn) : ShardKeyFn(SubjectKey)),
      fabric_(fabric),
      sent_(row_.size()) {}

Status ExchangeEmitter::AwaitRoom(ExchangeLane& lane) {
  // order: relaxed; telemetry only.
  backpressure_waits_.fetch_add(1, std::memory_order_relaxed);
  Backoff backoff;
  while (lane.queue.Claim(1) == 0) {
    if (fabric_->aborted()) {
      return Status::FailedPrecondition("exchange fabric aborted");
    }
    // Every future item of this row has key >= (trigger_, sub_next_),
    // including the one waiting for this lane, and so has every peer row
    // at its own frontier. Repeats only reach lanes that have emptied
    // since (the per-lane dedup), so the exact frontier lands on every lane
    // a merge may be waiting on.
    BroadcastFrontier();
    for (ExchangeEmitter* peer : peers_) peer->BroadcastFrontier();
    backoff.Wait();
  }
  return Status::OK();
}

Status ExchangeEmitter::Emit(const Event& event) {
  driver_role_.Assert();
  if (fabric_->aborted()) {
    return Status::FailedPrecondition("exchange fabric aborted");
  }
  ExchangeLane& lane = *row_[router_.ShardOfKey(key_fn_(event))];
  if (lane.queue.Claim(1) == 0) {
    PLDP_RETURN_IF_ERROR(AwaitRoom(lane));  // hotpath-allow: full lanes only
  }
  ExchangeItem& item = lane.queue.ClaimedSlot(0);
  item.key = ExchangeKey{trigger_, sub_next_++};
  item.timestamp = event.timestamp();
  item.type = event.type();
  item.stream = event.stream();
  item.watermark = false;
  lane.queue.PublishAtHead(1);
  // order: relaxed; telemetry only.
  forwarded_.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

void ExchangeEmitter::BroadcastKey(ExchangeKey bound) {
  bool sent_any = false;
  for (size_t c = 0; c < row_.size(); ++c) {
    if (bound <= sent_[c]) continue;
    ExchangeLane& lane = *row_[c];
    SpscQueue<ExchangeItem>& queue = lane.queue;
    if (queue.Claim(queue.capacity()) == queue.capacity()) {
      // Empty lane: the watermark becomes its head at once.
      ExchangeItem& item = queue.ClaimedSlot(0);
      item.key = bound;
      item.watermark = true;
      queue.PublishAtHead(1);
      sent_[c] = bound;
      sent_any = true;
    } else if (bound.primary > sent_[c].primary) {
      // Items in flight bound the lane: leave the primary for the merge to
      // apply once it has drained the lane, and ring it only if it already
      // has. A later broadcast brings the exact key to the empty lane.
      // order: release pairs with the merge's acquire load: the items
      // pushed before the bound are visible to its re-peek.
      lane.skipped_bound.store(bound.primary, std::memory_order_release);
      queue.PublishAtHead(0);
      sent_[c] = ExchangeKey{bound.primary, 0};
      sent_any = true;
    }
  }
  if (sent_any) {
    // order: relaxed; telemetry only.
    watermarks_.fetch_add(1, std::memory_order_relaxed);
  }
}

void ExchangeEmitter::BroadcastFrontier() {
  driver_role_.Assert();
  BroadcastKey(ExchangeKey{trigger_, sub_next_});
}

Status ExchangeEmitter::Broadcast(uint64_t bound) {
  driver_role_.Assert();
  BroadcastKey(ExchangeKey{bound, 0});
  return Status::OK();
}

ExchangeEmitterStats ExchangeEmitter::stats() const {
  ExchangeEmitterStats s;
  // order: relaxed on all three; independent monotonic telemetry counters.
  s.forwarded =
      static_cast<size_t>(forwarded_.load(std::memory_order_relaxed));
  s.watermarks =
      static_cast<size_t>(watermarks_.load(std::memory_order_relaxed));
  // order: relaxed; see above.
  s.backpressure_waits = static_cast<size_t>(
      backpressure_waits_.load(std::memory_order_relaxed));
  return s;
}

}  // namespace pldp
