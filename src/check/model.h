// Copyright 2026 The PLDP Authors.
//
// A loom-style stateless model checker for the runtime's lock-free
// protocols. `RunModel` executes a test body repeatedly under a
// cooperative scheduler that serializes all model threads (one runnable
// at a time) and explores the tree of scheduling + value decisions:
//
//   - bounded-preemption DFS (default): every schedule with at most
//     `preemption_bound` preemptions is visited exactly once, so a clean
//     result is an exhaustiveness statement, not a sampling statement;
//   - seeded random walk (`random = true`): uniform decisions, unbounded
//     preemptions, for long soak passes beyond the DFS bound.
//
// Threads are real std::threads driven by a baton handoff (exactly one
// holds the baton; everyone else is parked on a condition variable).
// ucontext-style fibers would be ~an order of magnitude faster per
// schedule point, but ucontext is POSIX-obsolescent, breaks ASan/TSan
// stack bookkeeping, and hides the model threads from debuggers; with
// protocol-sized test bodies (tens of schedule points) the baton is fast
// enough and every failing schedule has a real stack per thread.
//
// Memory model: each pldp::Atomic maps to a per-location store history.
// A relaxed load may read any store that coherence and happens-before do
// not forbid (a per-thread read floor per location models coherence; a
// store that happens-before the load hides everything older) — the
// choice of store is itself a DFS decision, so stale values are explored
// systematically rather than left to hardware luck. Acquire loads join
// the release clock of the store they read; release stores snapshot the
// writer's vector clock; RMWs always read the newest store (atomic
// read-modify-write acts on the latest value in modification order) and
// extend its release sequence. seq_cst fences exchange per-location
// visibility floors through a global SC state, which is exactly the
// guarantee the Doorbell's Dekker handshake relies on (see
// docs/ARCHITECTURE.md "Model checking" for what this approximation does
// and does not capture).
//
// Detected failure classes: model assertion failures (PLDP_MODEL_ASSERT
// / PLDP_PROTOCOL_ASSERT), data races on RaceCell payloads (vector-clock
// check on every read/write), deadlocks (no thread can run; a thread
// parked on a condition variable with work pending — the lost-wakeup
// shape — is reported as such), livelocks (every live thread spinning
// with no visible write in between), and step-budget exhaustion. On
// failure the full decision trace is printed together with a
// PLDP_MODEL_REPLAY string that re-runs exactly that schedule with
// per-step logging (see docs/OPERATIONS.md).

#ifndef PLDP_CHECK_MODEL_H_
#define PLDP_CHECK_MODEL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

namespace pldp {
namespace check {

// Hard cap on simultaneously live model threads per execution (slots are
// reused across executions but not within one). Protocol tests use 2-4.
constexpr int kMaxModelThreads = 8;

struct ModelConfig {
  const char* name = "model";
  // DFS: schedules with more than this many preemptions (switching away
  // from a thread that could have kept running) are not explored.
  int preemption_bound = 2;
  // Random walk instead of DFS. Unbounded preemptions, `random_iterations`
  // executions with decision sequences derived from `seed`.
  bool random = false;
  uint64_t seed = 1;
  uint64_t random_iterations = 1024;
  // Safety valves.
  uint64_t max_steps_per_exec = 200000;  // decisions per execution
  uint64_t max_executions = 0;           // 0 = run DFS to exhaustion
  int livelock_rounds = 8;  // all-yielded promotions with no visible write
  size_t trace_tail = 256;  // schedule steps printed on failure
};

struct ModelResult {
  bool failed = false;
  // DFS ran out of schedules within the preemption bound (i.e. the
  // bounded space was explored exhaustively). Always false in random mode.
  bool exhausted = false;
  uint64_t executions = 0;
  uint64_t decisions = 0;  // total decision points taken across executions
  std::string report;      // human-readable failure report (empty if ok)
  std::string replay;      // PLDP_MODEL_REPLAY value for the failure
};

// Runs `body` under the checker. `body` executes as model thread 0 and
// may spawn further threads with ModelSpawn. All shared state exercised
// through pldp::Atomic / RaceCell / SyncMutex must be constructed inside
// `body` so each execution starts from identical initial state.
//
// Environment overrides (picked up here so CI can deepen runs without
// recompiling): PLDP_MODEL_RANDOM_ITERS, PLDP_MODEL_MAX_EXECS,
// PLDP_MODEL_REPLAY (run exactly one execution with the given decision
// string, logging every step to stderr).
ModelResult RunModel(const ModelConfig& config,
                     const std::function<void()>& body);

// ---- In-run API (no-ops / fallbacks outside an active RunModel) ----

// Spawns a cooperative model thread; returns its tid. `name` is used in
// schedule traces.
int ModelSpawn(const char* name, std::function<void()> fn);
// Blocks (in model time) until `tid` finishes; joins its clock.
void ModelJoin(int tid);
// Spin-loop backoff point: deprioritizes the caller until every other
// thread is blocked/yielded or a visible write occurs (loom's yield
// semantics — prevents schedule explosion from spin loops and turns
// never-satisfied spins into livelock reports).
void ModelYieldSpin();
// True while the calling thread is a model thread inside RunModel.
bool InModelRun();
// Records a failure for the current execution and aborts it.
void ModelFailNow(const std::string& what);
// Assertion helpers (used by PLDP_MODEL_ASSERT / PLDP_PROTOCOL_ASSERT).
void ModelAssertFail(const char* expr, const char* file, int line);
void ProtocolAssertFail(const char* expr, const char* file, int line);

#define PLDP_MODEL_ASSERT(cond)                                    \
  do {                                                             \
    if (!(cond)) ::pldp::check::ModelAssertFail(#cond, __FILE__, __LINE__); \
  } while (0)

namespace internal {

// Fixed-size vector clock: no allocation, trivially copyable, cheap to
// snapshot into every store record.
struct VClock {
  uint32_t v[kMaxModelThreads] = {};
  void Join(const VClock& o) {
    for (int i = 0; i < kMaxModelThreads; ++i) {
      if (o.v[i] > v[i]) v[i] = o.v[i];
    }
  }
  bool LeqOf(const VClock& o) const {
    for (int i = 0; i < kMaxModelThreads; ++i) {
      if (v[i] > o.v[i]) return false;
    }
    return true;
  }
};

// Per-atomic-location model state. Owned by the ShadowAtomic that fronts
// it; reset lazily at first touch of each execution.
struct Location;

Location* LocationCreate(uint64_t initial_bits);
void LocationDestroy(Location* loc);

uint64_t AtomicLoad(Location* loc, std::memory_order mo);
void AtomicStore(Location* loc, uint64_t bits, std::memory_order mo);
// Generic RMW: `fn(old_bits, ctx)` computes the new value; returns old.
uint64_t AtomicRmw(Location* loc, std::memory_order mo,
                   uint64_t (*fn)(uint64_t, void*), void* ctx);
// Compare-exchange. On failure writes the observed value to *expected
// (failure order semantics applied). Spurious failures are not modeled.
bool AtomicCas(Location* loc, uint64_t* expected, uint64_t desired,
               std::memory_order success, std::memory_order failure);
void ThreadFence(std::memory_order mo);

// Data-race detection for non-atomic payload cells (queue slots). State
// is embedded by value; reset lazily per execution via `epoch`.
struct RaceState {
  uint64_t epoch = 0;
  int ordinal = -1;
  int last_writer = -1;  // tid, -1 = pristine
  uint32_t write_stamp = 0;
  // (tid, stamp) of reads since the last write.
  std::vector<std::pair<int, uint32_t>> readers;
};
void RaceRead(RaceState& rs);
void RaceWrite(RaceState& rs);

// Model mutex / condvar state (fronted by ModelMutex / ModelCondVar).
struct MutexState {
  uint64_t epoch = 0;
  int ordinal = -1;
  int owner = -1;  // tid
  VClock clock;    // released-at clock, joined by the next owner
};
void MutexLockOp(MutexState& ms);
void MutexUnlockOp(MutexState& ms);

struct CondVarState {
  uint64_t epoch = 0;
  int ordinal = -1;
  std::vector<int> waiters;  // tids parked on this condvar
};
// Atomically unlocks `ms`, parks on `cs`, re-locks `ms` after a notify.
// No spurious wakeups are modeled (document: predicates must be re-read
// under the lock, which the wait(pred) shape enforces anyway).
void CondWaitOp(CondVarState& cs, MutexState& ms);
void CondNotifyAllOp(CondVarState& cs);

}  // namespace internal
}  // namespace check
}  // namespace pldp

#endif  // PLDP_CHECK_MODEL_H_
