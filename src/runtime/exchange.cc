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
                               size_t lane_capacity,
                               size_t reorder_capacity)
    : producers_(producers < 1 ? 1 : producers),
      consumers_(consumers < 1 ? 1 : consumers) {
  const size_t credits = reorder_capacity == 0
                             ? kDefaultExchangeReorderCapacity
                             : reorder_capacity;
  lanes_.reserve(producers_ * consumers_);
  for (size_t i = 0; i < producers_ * consumers_; ++i) {
    lanes_.push_back(std::make_unique<ExchangeLane>(lane_capacity, credits));
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
      fabric_(fabric) {}

Status ExchangeEmitter::PushToLane(size_t consumer, ExchangeItem item) {
  Backoff backoff;
  bool waited = false;
  while (!row_[consumer]->queue.TryPush(std::move(item))) {
    if (fabric_->aborted()) {
      return Status::FailedPrecondition("exchange fabric aborted");
    }
    waited = true;
    backoff.Wait();
  }
  if (waited) {
    // order: relaxed; telemetry only.
    backpressure_waits_.fetch_add(1, std::memory_order_relaxed);
  }
  return Status::OK();
}

Status ExchangeEmitter::AcquireCreditSlow(ExchangeLane& lane) {
  // One count per wait episode (mirrors the backpressure-wait accounting).
  // order: relaxed; telemetry only.
  credit_exhausted_waits_.fetch_add(1, std::memory_order_relaxed);
  // Publish the exact frontier before blocking: every future item of this
  // row has key >= (trigger_, sub_next_) — including the one we are about
  // to emit. This lets the merge release every buffered item strictly
  // below the frontier even though this row has gone quiet, which returns
  // the credits we are waiting for. Without it, two producers blocked on
  // each other's unreleased items would deadlock the merge.
  PLDP_RETURN_IF_ERROR(BroadcastKey(ExchangeKey{trigger_, sub_next_}));
  Backoff backoff;
  // order: acquire pairs with the consumer's release credit return — the
  // buffer slot it freed must be visible before we fill it again.
  while (lane.credits.load(std::memory_order_acquire) == 0) {
    if (fabric_->aborted()) {
      return Status::FailedPrecondition("exchange fabric aborted");
    }
    backoff.Wait();
  }
  return Status::OK();
}

Status ExchangeEmitter::Emit(const Event& event) {
  driver_role_.Assert();
  ExchangeItem item;
  item.key = ExchangeKey{trigger_, sub_next_++};
  item.event = event;
  const size_t consumer = router_.ShardOfKey(key_fn_(item.event));
  ExchangeLane& lane = *row_[consumer];
  // One credit per event. Only this thread decrements (single producer
  // per lane), so a non-zero read cannot underflow on the fetch_sub.
  // order: acquire pairs with the consumer's release credit return.
  if (lane.credits.load(std::memory_order_acquire) == 0) {
    PLDP_RETURN_IF_ERROR(AcquireCreditSlow(lane));
  }
  // order: acq_rel; the RMW joins the release sequence on the counter so
  // the consumer's next return composes with ours, and the acquire half
  // covers a consume that raced past the load above.
  lane.credits.fetch_sub(1, std::memory_order_acq_rel);
  PLDP_RETURN_IF_ERROR(PushToLane(consumer, std::move(item)));
  // order: relaxed; telemetry only.
  forwarded_.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

Status ExchangeEmitter::BroadcastKey(ExchangeKey bound) {
  if (broadcast_any_ && bound <= last_broadcast_) return Status::OK();
  for (size_t c = 0; c < row_.size(); ++c) {
    ExchangeItem item;
    item.key = bound;
    item.watermark = true;
    PLDP_RETURN_IF_ERROR(PushToLane(c, std::move(item)));
  }
  last_broadcast_ = bound;
  broadcast_any_ = true;
  // order: relaxed; telemetry only.
  watermarks_.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

Status ExchangeEmitter::Broadcast(uint64_t bound) {
  driver_role_.Assert();
  return BroadcastKey(ExchangeKey{bound, 0});
}

ExchangeEmitterStats ExchangeEmitter::stats() const {
  ExchangeEmitterStats s;
  // order: relaxed on all four; independent monotonic telemetry counters.
  s.forwarded =
      static_cast<size_t>(forwarded_.load(std::memory_order_relaxed));
  s.watermarks =
      static_cast<size_t>(watermarks_.load(std::memory_order_relaxed));
  // order: relaxed; see above.
  s.backpressure_waits = static_cast<size_t>(
      backpressure_waits_.load(std::memory_order_relaxed));
  s.credit_exhausted_waits = static_cast<size_t>(
      credit_exhausted_waits_.load(std::memory_order_relaxed));
  return s;
}

}  // namespace pldp
