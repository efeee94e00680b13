// Copyright 2026 The PLDP Authors.
//
// Negative-compile fixture for the thread-safety annotation layer.
//
// Compiled two ways by CMake (clang only, `-fsyntax-only -Wthread-safety
// -Werror=thread-safety`):
//
//   * `thread_safety_control` — no defines. Must compile clean: proves the
//     shim macros expand to attributes clang accepts and the locked path
//     below satisfies the analysis.
//   * `thread_safety_negative` — with -DPLDP_SEED_TSA_VIOLATION. Seeds an
//     unlocked read of a PLDP_GUARDED_BY member; the ctest case is marked
//     WILL_FAIL, so the suite goes red if the analysis ever stops flagging
//     it (e.g. the shim silently degrading to no-ops under clang).
//   * `thread_safety_producer_token_negative` — with
//     -DPLDP_SEED_PRODUCER_TOKEN_VIOLATION. Seeds a read of a
//     ThreadRole-confined member without asserting the role first — the
//     exact mistake the single-thread ingest paths (ParallelStreamingEngine,
//     AdmissionQueue) guard against: touching ingest-confined stamping
//     state from a thread that never claimed the ingest token. Also
//     WILL_FAIL.
//
// This file is NOT part of any build target; it is only ever syntax-checked.

#include "common/thread_annotations.h"

namespace pldp {
namespace {

class GuardedCounter {
 public:
  void Increment() {
    MutexLock lock(mu_);
    ++value_;
  }

  int Load() {
    MutexLock lock(mu_);
    return value_;
  }

#if defined(PLDP_SEED_TSA_VIOLATION)
  // Unlocked access to a guarded member: -Wthread-safety must reject this.
  int LoadUnlocked() { return value_; }
#endif

 private:
  Mutex mu_;
  int value_ PLDP_GUARDED_BY(mu_) = 0;
};

/// Miniature of an ingest path: its stamping state is confined to the
/// ingest thread by a ThreadRole token, not a mutex. Every public entry
/// point asserts the role (the caller contract: "I am the single driving
/// thread"), which lets the analysis check
/// the body and its callees against the confinement with zero runtime
/// cost.
class StridedStamper {
 public:
  unsigned long long NextSeq() {
    role_.Assert();
    const unsigned long long seq = seq_next_;
    seq_next_ += stride_;
    return seq;
  }

#if defined(PLDP_SEED_PRODUCER_TOKEN_VIOLATION)
  // Reads producer-confined state without asserting the producer token:
  // -Wthread-safety must reject this — it is exactly the cross-thread
  // misuse the single-thread ingest contract forbids.
  unsigned long long PeekSeq() { return seq_next_; }
#endif

 private:
  ThreadRole role_;
  unsigned long long seq_next_ PLDP_GUARDED_BY(role_) = 0;
  unsigned long long stride_ = 1;
};

// Odr-use the classes so the compiler fully checks them even at
// -fsyntax-only.
int UseCounter() {
  GuardedCounter counter;
  counter.Increment();
  StridedStamper stamper;
  return counter.Load() + static_cast<int>(stamper.NextSeq());
}

}  // namespace
}  // namespace pldp
