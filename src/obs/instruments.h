// Copyright 2026 The PLDP Authors.
//
// Hot-path instrument bundles the runtime stages accept at wiring time:
// only the latency and burst-size histograms, the one kind of instrument a
// stage updates while it runs (counts and depths are the stages' own
// atomics, read by the registry at scrape time — see obs/metrics.h). Every
// field is a nullable pointer into a `MetricsRegistry`; a stage guards each
// Record with a null check, so an un-instrumented pipeline pays one
// predictable branch per site and nothing else. Bundles are plain structs
// copied by value — the registry owns the histograms, the stages only
// borrow them, and all wiring happens before `Start()` (no hot-path
// publication races).

#ifndef PLDP_OBS_INSTRUMENTS_H_
#define PLDP_OBS_INSTRUMENTS_H_

#include "obs/metrics.h"

namespace pldp {
namespace obs {

/// Per-shard data-plane histograms (runtime/shard.h).
struct ShardInstruments {
  Histogram* batch_size = nullptr;          ///< events per pop burst
  Histogram* process_latency_ns = nullptr;  ///< per-event engine latency
};

/// Per-merge-shard histograms (runtime/merge_shard.h).
struct MergeInstruments {
  Histogram* merge_latency_ns = nullptr;  ///< per-released-event latency
};

}  // namespace obs
}  // namespace pldp

#endif  // PLDP_OBS_INSTRUMENTS_H_
