// Copyright 2026 The PLDP Authors.
//
// Shadow synchronization types used when PLDP_MODEL_CHECK is defined:
// drop-in shapes for the subset of std::atomic / std::mutex /
// std::condition_variable the protocol files use, routed through the
// model checker in src/check/model.{h,cc}. Outside an active RunModel
// the shadows degrade to plain (single-threaded) semantics for atomics
// and to real OS primitives for mutex/condvar, so model-check binaries
// can still construct and tear down runtime objects outside a run.
//
// Normal builds never see this header — common/atomic.h aliases
// pldp::Atomic straight to std::atomic there.

#ifndef PLDP_CHECK_SHADOW_H_
#define PLDP_CHECK_SHADOW_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <cstring>
#include <mutex>
#include <type_traits>
#include <utility>

#include "check/model.h"

namespace pldp {
namespace check {

// Model-checked stand-in for std::atomic<T>. Every operation is a
// scheduler yield point; relaxed loads may observe stale values (the
// checker branches over every store coherence allows). Orders must be
// named explicitly — there are deliberately no defaulted-order overloads,
// so a migration slip fails to compile under PLDP_MODEL_CHECK even
// before tools/lint_atomics.py flags it.
template <typename T>
class ShadowAtomic {
  static_assert(std::is_trivially_copyable<T>::value,
                "ShadowAtomic requires trivially copyable T");
  static_assert(sizeof(T) <= 8, "ShadowAtomic supports at most 8 bytes");

 public:
  ShadowAtomic() : loc_(internal::LocationCreate(ToBits(T{}))) {}
  explicit ShadowAtomic(T v) : loc_(internal::LocationCreate(ToBits(v))) {}
  ~ShadowAtomic() { internal::LocationDestroy(loc_); }
  ShadowAtomic(const ShadowAtomic&) = delete;
  ShadowAtomic& operator=(const ShadowAtomic&) = delete;

  T load(std::memory_order mo) const {
    return FromBits(internal::AtomicLoad(loc_, mo));
  }
  void store(T v, std::memory_order mo) {
    internal::AtomicStore(loc_, ToBits(v), mo);
  }
  T exchange(T v, std::memory_order mo) {
    const uint64_t arg = ToBits(v);
    return FromBits(internal::AtomicRmw(
        loc_, mo,
        [](uint64_t, void* ctx) { return *static_cast<uint64_t*>(ctx); },
        const_cast<uint64_t*>(&arg)));
  }
  template <typename U = T>
  T fetch_add(U delta, std::memory_order mo) {
    RmwCtx<U> ctx{delta};
    return FromBits(internal::AtomicRmw(
        loc_, mo,
        [](uint64_t old, void* c) {
          return ToBits(static_cast<T>(
              FromBits(old) + static_cast<RmwCtx<U>*>(c)->delta));
        },
        &ctx));
  }
  template <typename U = T>
  T fetch_sub(U delta, std::memory_order mo) {
    RmwCtx<U> ctx{delta};
    return FromBits(internal::AtomicRmw(
        loc_, mo,
        [](uint64_t old, void* c) {
          return ToBits(static_cast<T>(
              FromBits(old) - static_cast<RmwCtx<U>*>(c)->delta));
        },
        &ctx));
  }
  bool compare_exchange_weak(T& expected, T desired, std::memory_order succ,
                             std::memory_order fail) {
    return CasImpl(expected, desired, succ, fail);
  }
  bool compare_exchange_strong(T& expected, T desired, std::memory_order succ,
                               std::memory_order fail) {
    return CasImpl(expected, desired, succ, fail);
  }

 private:
  template <typename U>
  struct RmwCtx {
    U delta;
  };
  bool CasImpl(T& expected, T desired, std::memory_order succ,
               std::memory_order fail) {
    uint64_t exp = ToBits(expected);
    const bool ok = internal::AtomicCas(loc_, &exp, ToBits(desired), succ,
                                        fail);
    if (!ok) expected = FromBits(exp);
    return ok;
  }
  static uint64_t ToBits(T v) {
    uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(T));
    return bits;
  }
  static T FromBits(uint64_t bits) {
    T v;
    std::memcpy(&v, &bits, sizeof(T));
    return v;
  }

  internal::Location* loc_;
};

inline void ShadowFence(std::memory_order mo) { internal::ThreadFence(mo); }

// Data-race detector for non-atomic payload cells (queue slots). Reads
// and writes are vector-clock checked against the schedule the checker
// chose: a slot access not ordered by the surrounding atomic protocol is
// reported as a data race, which is how a weakened index store is caught
// even though the index value itself still "looks" right.
template <typename T>
class ShadowRaceCell {
 public:
  ShadowRaceCell() = default;
  explicit ShadowRaceCell(T v) : value_(std::move(v)) {}
  ShadowRaceCell(const ShadowRaceCell&) = delete;
  ShadowRaceCell& operator=(const ShadowRaceCell&) = delete;
  ShadowRaceCell(ShadowRaceCell&& o) : value_(std::move(o.value_)) {}
  ShadowRaceCell& operator=(ShadowRaceCell&& o) {
    internal::RaceWrite(race_);
    value_ = std::move(o.value_);
    return *this;
  }

  ShadowRaceCell& operator=(T&& v) {
    internal::RaceWrite(race_);
    value_ = std::move(v);
    return *this;
  }
  ShadowRaceCell& operator=(const T& v) {
    internal::RaceWrite(race_);
    value_ = v;
    return *this;
  }
  /// Checked move-out (pldp::RaceCellMove routes here in model builds).
  /// A conversion operator would be ambiguous against T's own copy/move
  /// assignment pair, hence the named accessor.
  T&& Take() {
    internal::RaceRead(race_);
    return std::move(value_);
  }
  operator const T&() const& {
    internal::RaceRead(const_cast<internal::RaceState&>(race_));
    return value_;
  }
  /// Checked in-place write (pldp::RaceCellWrite routes here).
  T& Write() {
    internal::RaceWrite(race_);
    return value_;
  }

 private:
  T value_{};
  internal::RaceState race_;
};

// BasicLockable model mutex (works with std::unique_lock /
// std::lock_guard). Inside a run, lock/unlock are schedule points with
// full blocking semantics and clock transfer; outside a run it is a real
// std::mutex.
class ModelMutex {
 public:
  ModelMutex() = default;
  ModelMutex(const ModelMutex&) = delete;
  ModelMutex& operator=(const ModelMutex&) = delete;

  void lock() {
    if (InModelRun()) {
      internal::MutexLockOp(state_);
    } else {
      real_.lock();
    }
  }
  void unlock() {
    if (InModelRun()) {
      internal::MutexUnlockOp(state_);
    } else {
      real_.unlock();
    }
  }

  internal::MutexState& state() { return state_; }

 private:
  internal::MutexState state_;
  std::mutex real_;
};

// Model condition variable over ModelMutex. No spurious wakeups are
// modeled, so callers must use the predicate wait shape (all runtime
// call sites do).
class ModelCondVar {
 public:
  ModelCondVar() = default;
  ModelCondVar(const ModelCondVar&) = delete;
  ModelCondVar& operator=(const ModelCondVar&) = delete;

  void wait(std::unique_lock<ModelMutex>& lk) {
    if (InModelRun()) {
      internal::CondWaitOp(state_, lk.mutex()->state());
    } else {
      real_.wait(lk);
    }
  }
  template <typename Predicate>
  void wait(std::unique_lock<ModelMutex>& lk, Predicate pred) {
    if (InModelRun()) {
      while (!pred()) internal::CondWaitOp(state_, lk.mutex()->state());
    } else {
      real_.wait(lk, std::move(pred));
    }
  }
  void notify_all() {
    if (InModelRun()) {
      internal::CondNotifyAllOp(state_);
    } else {
      real_.notify_all();
    }
  }
  void notify_one() {
    // The model wakes every waiter and lets the scheduler decide who
    // wins the relock race — a sound over-approximation of notify_one.
    if (InModelRun()) {
      internal::CondNotifyAllOp(state_);
    } else {
      real_.notify_one();
    }
  }

 private:
  internal::CondVarState state_;
  std::condition_variable_any real_;
};

}  // namespace check
}  // namespace pldp

#endif  // PLDP_CHECK_SHADOW_H_
