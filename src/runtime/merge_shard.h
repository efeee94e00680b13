// Copyright 2026 The PLDP Authors.
//
// Stage-2 worker of the exchange pipeline: one correlation partition.
//
// A merge shard owns a worker thread, one exchange lane per stage-1
// producer (the consumer column of the fabric), and a private
// `StreamingCepEngine` holding the cross-subject queries. The worker
// restores global order with a watermark-gated k-way merge over the lane
// heads, read in place:
//
//   - every lane delivers strictly increasing `ExchangeKey`s; a watermark
//     at a lane's head only advances the lane's lower bound and is
//     released at once;
//   - the smallest event head is handed to the engine exactly when every
//     empty lane is known to be past it (its bound proves it; a non-empty
//     lane's head does) — so the engine sees the events of this
//     correlation partition in precisely the order a sequential engine
//     processing the whole stream would have seen them — and its slot is
//     released only after the engine consumed it;
//   - after each pass the worker publishes `safe_primary`, the sequence
//     number through which everything has been merged and processed, and
//     rings its progress doorbell. Drain barriers wait on it (WaitSafe
//     parks on that doorbell); `kExchangeSeqEnd` means the pipeline is
//     sealed.
//
// There is no second buffer: the lanes are the merge's input and its
// flow-control budget at once (runtime/exchange.h). Every producer keeps
// watermarking its lanes when idle — even one that receives no traffic
// (the router publishes a producer floor for exactly that case).
//
// The in-place merge is machine-checked by tests/check/check_merge_test.cc
// (model seams below), with negative twins for a slot freed before the
// engine read it and for an unfenced lane ring.
//
// Threading contract: AddQuery before Start; exactly one orchestrator
// thread calls Start/Stop; WaitSafe/stats may be called from any thread.
// engine() is safe to read after WaitSafe observed the bound covering
// everything of interest (release/acquire on safe_primary), or after
// Stop().

#ifndef PLDP_RUNTIME_MERGE_SHARD_H_
#define PLDP_RUNTIME_MERGE_SHARD_H_

#include <cstdint>
#include <functional>
#include <thread>
#include <vector>

#include "cep/streaming_engine.h"
#include "common/atomic.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "obs/instruments.h"
#include "runtime/backoff.h"
#include "runtime/exchange.h"
#include "runtime/shard.h"

namespace pldp {

/// Worker thread + lane column + per-partition engine.
class MergeShard {
 public:
  /// `inputs` is the fabric column this shard consumes (one lane per
  /// stage-1 producer), fixed for the shard's lifetime.
  MergeShard(size_t index, std::vector<ExchangeLane*> inputs);
  ~MergeShard();

  MergeShard(const MergeShard&) = delete;
  MergeShard& operator=(const MergeShard&) = delete;

  /// Registers a cross-partition query, with an optional detection
  /// callback invoked on the worker thread with the completion timestamp of
  /// every match. The returned index is the query's position in this
  /// shard's engine (its lane-group-local index). Must precede Start().
  StatusOr<size_t> AddQuery(Pattern pattern, Timestamp window,
                            std::function<void(Timestamp)> callback = nullptr);

  /// Binds the hot-path latency histogram (null is skipped). Must precede
  /// Start().
  Status SetInstruments(const obs::MergeInstruments& instruments);

  /// Pins the worker thread to `core` at startup (no-op when negative or
  /// unsupported). Must precede Start().
  void SetAffinityCore(int core) { affinity_core_ = core; }

  /// Doorbell park/wake counts (parking-liveness tests, metrics; also in
  /// stats()).
  uint64_t parks() const { return doorbell_.parks(); }
  uint64_t wakes() const { return doorbell_.wakes(); }
  /// Idle-episode yields (ShardStats::idle_yields) — safe from any thread.
  uint64_t idle_yields() const {
    // order: relaxed; telemetry only.
    return idle_yields_.load(std::memory_order_relaxed);
  }

  /// Events read from the input lanes and released to the engine in
  /// global order — safe from any thread (atomic); the metrics registry
  /// reads it at scrape time.
  uint64_t events_merged() const {
    // order: relaxed; a scrape-time count, no engine state is read with it.
    return merged_.load(std::memory_order_relaxed);
  }

  /// Launches the worker thread. Returns FailedPrecondition if running.
  Status Start();

  /// Blocks until everything with sequence number < `bound` has been merged
  /// and processed (i.e. safe_primary() >= bound). The caller must have
  /// arranged for every producer to pass `bound` (drain + watermark
  /// broadcast), or this waits (spins, yields, then parks on the progress
  /// doorbell) until they do. Any number of threads may wait at once.
  Status WaitSafe(uint64_t bound);

  /// The published merge frontier (acquire; see file comment).
  uint64_t safe_primary() const {
    // order: acquire pairs with the worker's release publication — engine
    // reads gated on the frontier must see the absorbed events.
    return safe_primary_.load(std::memory_order_acquire);
  }

  /// Stops and joins the worker, then absorbs any leftover lane items in
  /// key order (there are none after a proper drain barrier). Idempotent.
  Status Stop();

  bool running() const {
    // order: relaxed; advisory flag, carries no payload.
    return running_.load(std::memory_order_relaxed);
  }

  /// The partition-local engine. Read-only for the orchestrator; valid
  /// after WaitSafe's bound covers the reads, or after Stop().
  const StreamingCepEngine& engine() const { return engine_; }

  /// Safe from any thread (atomics). events_processed counts events
  /// released to the engine; backpressure_waits stays 0 (producer-side
  /// waits are counted by the emitters).
  ShardStats stats() const;

  /// Instantaneous occupancy of the input lanes (events and watermarks
  /// waiting to be merged) — safe from any thread (SPSC indices are
  /// atomics). Gauge/health source.
  size_t input_depth() const {
    size_t depth = 0;
    for (const ExchangeLane* lane : inputs_) depth += lane->queue.ApproxSize();
    return depth;
  }

  /// Total capacity of the input lanes — the denominator of input
  /// saturation in health/metrics. Constant; safe from any thread.
  size_t input_capacity() const {
    size_t capacity = 0;
    for (const ExchangeLane* lane : inputs_) capacity += lane->queue.capacity();
    return capacity;
  }

#ifdef PLDP_MODEL_CHECK
  /// Model-check seams (tests/check/check_merge_test.cc): run the worker
  /// loop on a model thread instead of a real std::thread, and request
  /// stop without joining. Start()/Stop() are never called in a model
  /// harness — std::thread would escape the cooperative scheduler.
  void ModelRunWorker() {
    worker_role_.Acquire();
    RunLoop();
    worker_role_.Release();
  }
  void ModelRequestStop() {
    // order: release mirrors Stop(); the worker's acquire load pairs.
    stop_requested_.store(true, std::memory_order_release);
    doorbell_.Ring();
  }
  /// Post-join leftover absorption, mirroring the tail of Stop(): the
  /// worker may observe the stop request in the same iteration that its
  /// merge pass ran dry, leaving late pushes in the lanes.
  void ModelFinalize() {
    worker_role_.Acquire();
    (void)MergePass(/*force=*/true);
    worker_role_.Release();
  }
#endif

 private:
  struct LaneState {
    explicit LaneState(ExchangeLane* l) : lane(l) {}
    ExchangeLane* lane;
    /// Lower bound on every future key of this lane (from the last
    /// released item, watermark or skipped broadcast).
    ExchangeKey bound{0, 0};
    /// The last merge pass found no event in the lane.
    bool empty = true;
  };

  void RunLoop() PLDP_REQUIRES(worker_role_);
  /// The lane's first event, read in place, after applying and releasing
  /// the watermarks ahead of it; null when the lane is empty, whose bound
  /// then covers any broadcast that skipped the lane while it was full.
  PLDP_HOT const ExchangeItem* Head(LaneState& lane)
      PLDP_REQUIRES(worker_role_);
  /// Releases every safe event to the engine, in key order, then
  /// publishes the merge frontier. When `force` (only after the producers
  /// are joined), gating by lane bounds is skipped and everything in the
  /// lanes is released.
  PLDP_HOT bool MergePass(bool force) PLDP_REQUIRES(worker_role_);

  const size_t index_;
  /// The fabric column, fixed at construction: read from any thread by the
  /// depth gauge and by the worker's park predicate.
  const std::vector<ExchangeLane*> inputs_;
  /// Worker-thread confinement of the merge state: the orchestrator holds
  /// the role from construction until Start() launches the worker, the
  /// worker holds it for the thread's lifetime, and Stop() takes it back
  /// after the join to absorb leftovers. Zero-size, zero-cost — exists so
  /// the thread-safety analysis can prove the lane bounds are never
  /// touched concurrently.
  ThreadRole worker_role_;
  std::vector<LaneState> lanes_ PLDP_GUARDED_BY(worker_role_);
  /// Wake-on-work doorbell the idle worker parks on; an input lane's queue
  /// rings it when a push (event or watermark) lands at the lane's head or
  /// a skipped broadcast finds the lane drained, Stop() rings it directly.
  Doorbell doorbell_;
  /// Worker thread CPU affinity (-1 = unpinned).
  int affinity_core_ = -1;
  StreamingCepEngine engine_;
  std::thread worker_;
  Atomic<bool> running_{false};
  Atomic<bool> stop_requested_{false};

  /// Merge frontier: everything with primary < safe_primary_ is done.
  /// Published with release after the engine absorbed the events; every
  /// advance rings `progress_`, the doorbell WaitSafe parks on.
  Atomic<uint64_t> safe_primary_{0};
  Doorbell progress_;
  Atomic<uint64_t> merged_{0};
  Atomic<uint64_t> detections_{0};
  /// Worker-side yield count, added once per idle episode
  /// (Backoff::Reset).
  Atomic<uint64_t> idle_yields_{0};

  // Hot-path histogram and per-query detection callbacks (indexed by local
  // query index, empty = none), fixed before Start.
  obs::MergeInstruments obs_;
  std::vector<std::function<void(Timestamp)>> callbacks_;
};

}  // namespace pldp

#endif  // PLDP_RUNTIME_MERGE_SHARD_H_
