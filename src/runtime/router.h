// Copyright 2026 The PLDP Authors.
//
// Subject-key routing for the sharded runtime.
//
// The paper's system model (Fig. 2) has the trusted CEP middleware ingest
// one event stream per data subject; private patterns are properties of an
// individual subject's stream. That makes the subject key (Event::stream())
// the natural partition axis: all events of one subject land on one shard,
// so a shard-local matcher sees exactly the substream it needs and
// per-subject event order is preserved end-to-end.
//
// Assignment is a pure function of (key, shard_count) — deterministic
// across runs and platforms — so replaying a stream reproduces the exact
// same placement, and tests can pin it.

#ifndef PLDP_RUNTIME_ROUTER_H_
#define PLDP_RUNTIME_ROUTER_H_

#include <cstdint>
#include <functional>

#include "common/thread_annotations.h"
#include "event/event.h"

namespace pldp {

/// Extracts a routing key from an event — the correlation key an exchange
/// emitter re-partitions stage-1 output by (runtime/exchange.h).
using ShardKeyFn = std::function<uint64_t(const Event&)>;

/// Hash-partitions events onto `shard_count` shards by subject key.
class EventRouter {
 public:
  /// `shard_count` must be >= 1 (clamped).
  explicit EventRouter(size_t shard_count);

  size_t shard_count() const { return shard_count_; }

  /// Deterministic shard assignment of the event's subject: ShardOfKey of
  /// Event::stream(). Always the subject — a subject's privacy windows
  /// must never be split across shards.
  PLDP_HOT size_t ShardOf(const Event& event) const;

  /// Shard assignment for a raw key (exposed so tests and capacity planners
  /// can reason about placement without building events).
  PLDP_HOT size_t ShardOfKey(uint64_t key) const;

  /// SplitMix64 — scrambles dense subject ids (0,1,2,...) into well-spread
  /// hashes so range-reduced placement stays balanced.
  static uint64_t MixKey(uint64_t key);

 private:
  size_t shard_count_;
};

}  // namespace pldp

#endif  // PLDP_RUNTIME_ROUTER_H_
