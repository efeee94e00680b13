// Copyright 2026 The PLDP Authors.

#include "obs/health.h"

#include <cstdio>
#include <sstream>

namespace pldp {
namespace obs {

const char* HealthStateName(PipelineHealth::State state) {
  switch (state) {
    case PipelineHealth::State::kHealthy:
      return "healthy";
    case PipelineHealth::State::kDegraded:
      return "degraded";
    case PipelineHealth::State::kStalled:
      return "stalled";
  }
  return "unknown";
}

std::string PipelineHealth::Describe() const {
  std::ostringstream out;
  out << HealthStateName(state) << " (" << shards.size() << " shards, "
      << groups.size() << " merge groups";
  if (!issues.empty()) {
    out << "; " << issues.size() << " issue" << (issues.size() == 1 ? "" : "s");
  }
  out << ")";
  return out.str();
}

void FinalizeHealth(PipelineHealth* health, const HealthThresholds& t) {
  health->state = PipelineHealth::State::kHealthy;
  health->issues.clear();
  for (const PipelineHealth::ShardRow& row : health->shards) {
    if (row.saturation >= t.degraded_saturation) {
      char buf[160];
      std::snprintf(buf, sizeof(buf),
                    "shard %zu queue at %.0f%% capacity (%zu/%zu)",
                    row.shard, row.saturation * 100.0,
                    row.queue_depth, row.queue_capacity);
      health->issues.push_back(buf);
      if (health->state == PipelineHealth::State::kHealthy) {
        health->state = PipelineHealth::State::kDegraded;
      }
    }
  }
  for (const PipelineHealth::GroupRow& row : health->groups) {
    // Input lanes near full mean producers are (or are about to start)
    // waiting on full lanes: stage 2 is not keeping up and backpressure is
    // propagating upstream.
    if (row.reorder_capacity > 0 &&
        static_cast<double>(row.reorder_depth) /
                static_cast<double>(row.reorder_capacity) >=
            t.degraded_saturation) {
      char buf[200];
      std::snprintf(buf, sizeof(buf),
                    "%s group '%s' merge %zu input lanes at %llu/%llu "
                    "(producers about to wait on full lanes)",
                    row.lane.c_str(), row.group.c_str(), row.merge_shard,
                    static_cast<unsigned long long>(row.reorder_depth),
                    static_cast<unsigned long long>(row.reorder_capacity));
      health->issues.push_back(buf);
      if (health->state == PipelineHealth::State::kHealthy) {
        health->state = PipelineHealth::State::kDegraded;
      }
    }
    // A large lag with empty lanes just means the pipeline is idle; a
    // large lag WITH items waiting means the merge cannot advance — some
    // producer lane stopped delivering watermarks.
    if (row.watermark_lag > t.stall_lag_events && row.reorder_depth > 0) {
      char buf[200];
      std::snprintf(buf, sizeof(buf),
                    "%s group '%s' merge %zu stalled: watermark lag %llu with "
                    "%llu items waiting",
                    row.lane.c_str(), row.group.c_str(), row.merge_shard,
                    static_cast<unsigned long long>(row.watermark_lag),
                    static_cast<unsigned long long>(row.reorder_depth));
      health->issues.push_back(buf);
      health->state = PipelineHealth::State::kStalled;
    }
  }
}

std::string RenderHealthJson(const PipelineHealth& health) {
  std::ostringstream out;
  out << "{\"state\":\"" << HealthStateName(health.state) << "\",\"shards\":[";
  for (size_t i = 0; i < health.shards.size(); ++i) {
    const PipelineHealth::ShardRow& row = health.shards[i];
    if (i != 0) out << ",";
    char sat[32];
    std::snprintf(sat, sizeof(sat), "%.4f", row.saturation);
    out << "{\"shard\":" << row.shard
        << ",\"queue_depth\":" << row.queue_depth
        << ",\"queue_capacity\":" << row.queue_capacity
        << ",\"saturation\":" << sat << "}";
  }
  out << "],\"groups\":[";
  for (size_t i = 0; i < health.groups.size(); ++i) {
    const PipelineHealth::GroupRow& row = health.groups[i];
    if (i != 0) out << ",";
    out << "{\"lane\":\"" << row.lane << "\",\"group\":\"" << row.group
        << "\",\"merge_shard\":" << row.merge_shard
        << ",\"watermark_lag\":" << row.watermark_lag
        << ",\"reorder_depth\":" << row.reorder_depth
        << ",\"reorder_capacity\":" << row.reorder_capacity << "}";
  }
  out << "],\"issues\":[";
  for (size_t i = 0; i < health.issues.size(); ++i) {
    if (i != 0) out << ",";
    std::string escaped;
    for (char c : health.issues[i]) {
      if (c == '"' || c == '\\') escaped += '\\';
      escaped += c;
    }
    out << "\"" << escaped << "\"";
  }
  out << "]}";
  return out.str();
}

}  // namespace obs
}  // namespace pldp
