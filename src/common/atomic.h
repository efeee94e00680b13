// Copyright 2026 The PLDP Authors.
//
// The atomics indirection layer the lock-free protocol files build on.
//
// Normal builds: pure aliases onto the standard library — pldp::Atomic<T>
// IS std::atomic<T>, AtomicFence IS std::atomic_thread_fence, RaceCell<T>
// IS T, SyncMutex/SyncCondVar ARE std::mutex/std::condition_variable.
// Zero code, zero cost: the hot-path lint, the alloc gates, and the bench
// thresholds all hold unchanged (bench-smoke asserts this; see
// .github/workflows/ci.yml).
//
// Model-check builds (-DPLDP_MODEL_CHECK): the same names resolve to the
// shadow types in check/shadow.h, which route every load/store/RMW/fence
// through the model checker's cooperative scheduler as an explicit yield
// point with memory-order-sensitive visibility (relaxed loads can return
// stale values from the per-location store history). See check/model.h.
//
// Protocol code MUST name an explicit std::memory_order on every access
// and carry an adjacent `// order:` rationale — enforced build-free by
// tools/lint_atomics.py (ctest: atomics_lint) and, under PLDP_MODEL_CHECK,
// by the shadow types having no defaulted-order overloads.
//
// PLDP_PROTOCOL_ASSERT states a protocol invariant (e.g. "a merge hands
// its engine keys in increasing order"): plain assert() in
// normal builds, a model-checker failure (with a replayable schedule
// trace) under PLDP_MODEL_CHECK.

#ifndef PLDP_COMMON_ATOMIC_H_
#define PLDP_COMMON_ATOMIC_H_

#include "common/thread_annotations.h"

#ifdef PLDP_MODEL_CHECK

#include "check/shadow.h"

namespace pldp {

template <typename T>
using Atomic = check::ShadowAtomic<T>;
using AtomicFlag = check::ShadowAtomic<bool>;

inline void AtomicFence(std::memory_order order) {
  check::ShadowFence(order);
}

template <typename T>
using RaceCell = check::ShadowRaceCell<T>;

/// Moves the payload out of a RaceCell (race-checked in model builds,
/// plain std::move otherwise). Use at consume sites: `out =
/// RaceCellMove(slot)`.
template <typename T>
inline T&& RaceCellMove(check::ShadowRaceCell<T>& cell) {
  return cell.Take();
}

/// Mutable access to a RaceCell's payload, race-checked as one write. Use
/// where a slot is filled in place instead of assigned.
template <typename T>
PLDP_HOT inline T& RaceCellWrite(check::ShadowRaceCell<T>& cell) {
  return cell.Write();
}

using SyncMutex = check::ModelMutex;
using SyncCondVar = check::ModelCondVar;

}  // namespace pldp

#define PLDP_PROTOCOL_ASSERT(cond)                                      \
  do {                                                                  \
    if (!(cond)) {                                                      \
      ::pldp::check::ProtocolAssertFail(#cond, __FILE__, __LINE__);     \
    }                                                                   \
  } while (0)

#else  // !PLDP_MODEL_CHECK

#include <atomic>
#include <cassert>
#include <condition_variable>
#include <mutex>

namespace pldp {

template <typename T>
using Atomic = std::atomic<T>;
using AtomicFlag = std::atomic<bool>;

inline void AtomicFence(std::memory_order order) {
  // atomics-allow: forwarding wrapper; every call site names the order.
  std::atomic_thread_fence(order);
}

// In normal builds a RaceCell<T> is literally a T: the alias adds no
// wrapper, no padding, no indirection. Under PLDP_MODEL_CHECK it becomes
// a vector-clock-checked cell that reports unsynchronized access.
template <typename T>
using RaceCell = T;

/// Moves the payload out of a RaceCell (plain std::move here; the model
/// build's overload adds the race check).
template <typename T>
inline T&& RaceCellMove(T& cell) {
  return static_cast<T&&>(cell);
}

/// Mutable access to a RaceCell's payload (the cell itself here).
template <typename T>
PLDP_HOT inline T& RaceCellWrite(T& cell) {
  return cell;
}

using SyncMutex = std::mutex;
using SyncCondVar = std::condition_variable;

}  // namespace pldp

#define PLDP_PROTOCOL_ASSERT(cond) assert(cond)

#endif  // PLDP_MODEL_CHECK

#endif  // PLDP_COMMON_ATOMIC_H_
