// Copyright 2026 The PLDP Authors.
//
// Thread → CPU-core pinning for the multi-core execution layer.
//
// Pinning shard and merge workers to distinct cores removes scheduler
// migrations from the latency tail and keeps each worker's queue and
// engine state warm in its own cache hierarchy. It is strictly opt-in
// (WithCoreAffinity on the builder): the default remains fully
// scheduler-managed, and on platforms without pthread_setaffinity_np
// pinning degrades to a no-op rather than an error, as does asking for
// more workers than cores (assignments wrap round-robin — oversubscribed,
// but deterministic).

#ifndef PLDP_RUNTIME_AFFINITY_H_
#define PLDP_RUNTIME_AFFINITY_H_

#include <cstddef>

namespace pldp {

/// Pins the calling thread to `core` (0-based logical CPU id). Returns
/// true on success, false when the platform does not support affinity or
/// the core id is invalid — callers treat false as graceful degradation,
/// never an error.
bool PinCurrentThreadToCore(int core);

/// Number of logical cores the scheduler reports (>= 1; falls back to 1
/// when detection fails). Used to clamp affinity plans and to warn when a
/// bench run asks for more parallelism than the machine has.
size_t AvailableCoreCount();

}  // namespace pldp

#endif  // PLDP_RUNTIME_AFFINITY_H_
