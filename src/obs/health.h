// Copyright 2026 The PLDP Authors.
//
// Pipeline-wide health roll-up computed from live runtime state: per-shard
// queue saturation and per-group merge watermark lag, classified against
// caller thresholds into healthy / degraded / stalled. Engines fill the
// raw rows via `CollectHealth`; `FinalizeHealth` applies the thresholds
// and writes the verdict. Consumers: `Describe()`-style tooling, the
// `/healthz` endpoint route, and future load-shedding policies.

#ifndef PLDP_OBS_HEALTH_H_
#define PLDP_OBS_HEALTH_H_

#include <cstdint>
#include <string>
#include <vector>

namespace pldp {
namespace obs {

/// Classification knobs. Defaults suit the in-tree examples: a lane is
/// "degraded" when its input queue sits above 90% capacity, "stalled"
/// when a merge group's watermark lags the ingest frontier by more than
/// `stall_lag_events` sequence numbers while events are still buffered.
struct HealthThresholds {
  double degraded_saturation = 0.90;
  uint64_t stall_lag_events = 1u << 20;
};

struct PipelineHealth {
  enum class State { kHealthy, kDegraded, kStalled };

  /// One stage-1 shard (every lane shares them).
  struct ShardRow {
    size_t shard = 0;
    size_t queue_depth = 0;
    size_t queue_capacity = 0;
    double saturation = 0.0;  ///< depth / capacity
  };

  struct GroupRow {
    std::string lane;   ///< "plain" (raw-forwarding) or "private"
    std::string group;  ///< correlation-key id, e.g. "attr:zone"
    size_t merge_shard = 0;
    uint64_t watermark_lag = 0;   ///< ingest frontier − safe watermark
    uint64_t reorder_depth = 0;   ///< events waiting in the reorder buffer
    /// Hard reorder-buffer bound (sum of the input lanes' credit budgets);
    /// 0 when the engine predates flow control.
    uint64_t reorder_capacity = 0;
  };

  State state = State::kHealthy;
  std::vector<ShardRow> shards;
  std::vector<GroupRow> groups;
  /// Human-readable findings (one per threshold breach), empty if healthy.
  std::vector<std::string> issues;

  /// One-line summary, e.g. "healthy (6 shards, 3 merge groups)".
  std::string Describe() const;
};

const char* HealthStateName(PipelineHealth::State state);

/// Applies thresholds to the collected rows: sets `state` and `issues`.
void FinalizeHealth(PipelineHealth* health, const HealthThresholds& t);

/// Stable JSON document for the /healthz endpoint route.
std::string RenderHealthJson(const PipelineHealth& health);

}  // namespace obs
}  // namespace pldp

#endif  // PLDP_OBS_HEALTH_H_
