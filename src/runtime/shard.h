// Copyright 2026 The PLDP Authors.
//
// One worker shard of the parallel streaming runtime.
//
// A shard owns a worker thread, a bounded SPSC queue feeding it, a private
// `StreamingCepEngine` (never touched by any other thread while running),
// optionally a `ShardEventSink` the worker feeds every event to after the
// engine — the hook the shard-local PLDP perturbation pipeline
// (core/private_lane.h) plugs into — and any number of `ExchangeEmitter`s
// (runtime/exchange.h) through which the worker re-keys its output into
// stage-2 fabrics. Each emitter belongs to one exchange lane-group (one
// correlation key). A raw-forwarding emitter receives every processed
// event; any other emitter is the sink's alone (only the sink emits
// through it), so a pipeline's plain and private lanes share one shard
// without either seeing the other's exchange traffic.
//
// Every queued event carries its global ingest sequence number
// (`StampedEvent`); the worker opens an exchange trigger scope per event so
// everything emitted downstream is stamped with a merge key that restores
// global order on the stage-2 side.
//
// Ingest is claim -> publish -> process in place: the producer stamps each
// event straight into a ring slot (ClaimSlot, Publish), and the worker
// processes it there, releasing slots once per burst.
//
// Threading contract:
//   - Exactly one thread (the ingest thread, ParallelStreamingEngine's
//     caller) may call ClaimSlot / Publish / AwaitSlot / PushStampedN /
//     TryPushStampedN / NoteProducerFloor / Wake at a time; the worker
//     thread is the only consumer.
//   - AddQuery / SetEventSink / AddExchange must happen before Start. Start
//     and Stop must not race each other or a pushing producer (they manage
//     the worker thread), but a push racing a Stop fails fast instead of
//     hanging.
//   - Drain() and stats() may be called from any thread, including while a
//     producer is pushing: the counters (and the running flag) are atomics,
//     so the calls are race-free. A Drain that races a producer waits for
//     the events pushed at the moment it reads `pushed_` (best effort by
//     construction).
//   - PostFlushWatermark / PostFinish + WaitCommandAck are issued by one
//     orchestrator thread after a Drain; the command runs on the worker
//     and WaitCommandAck returns once it acknowledged. The orchestrator's
//     claim that the shard has seen every event below the given bound
//     inherits Drain's best-effort semantics under racing producers.
//   - engine() and the sink's state are safe to read after Drain() or
//     Stop() returned: the worker publishes each processed batch with a
//     release store that Drain observes with an acquire load, which orders
//     all engine/sink mutations before the caller's reads. Command
//     acknowledgements publish the same way.

#ifndef PLDP_RUNTIME_SHARD_H_
#define PLDP_RUNTIME_SHARD_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "cep/streaming_engine.h"
#include "common/atomic.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "event/event.h"
#include "obs/instruments.h"
#include "runtime/backoff.h"
#include "runtime/exchange.h"
#include "runtime/spsc_queue.h"

namespace pldp {

/// Counters one shard exposes to the orchestrator.
struct ShardStats {
  size_t shard_index = 0;
  /// Events delivered to this shard's engine.
  size_t events_processed = 0;
  /// Detections across this shard's queries.
  size_t detections = 0;
  /// Times the producer found the queue full and had to wait — a direct
  /// measure of backpressure on this shard.
  size_t backpressure_waits = 0;
  /// Events this shard emitted into the exchange fabric (0 when the shard
  /// has no emitter).
  size_t forwarded = 0;
  /// Times a full exchange lane made this shard's worker wait — direct
  /// backpressure from stage-2 (0 without an emitter).
  size_t exchange_backpressure_waits = 0;
  /// Times the idle worker parked on its doorbell (runtime/backoff.h) and
  /// how often a producer's ring took the slow notify path.
  size_t parks = 0;
  size_t wakes = 0;
  /// Yields the idle worker spent between its spin phase and a park or
  /// the next work (none in an episode that follows a long park).
  size_t idle_yields = 0;
};

/// A queued event plus its global ingest sequence number — the exchange
/// merge key's primary component (see runtime/exchange.h).
struct StampedEvent {
  uint64_t seq = 0;
  Event event;
};

/// Receives every event the shard worker processes, after the shard engine
/// saw it, on the worker thread, in arrival order. Implementations own any
/// state they need (it is worker-local while running; see the threading
/// contract above for when the orchestrator may read it).
class ShardEventSink {
 public:
  virtual ~ShardEventSink() = default;
  virtual void OnShardEvent(const Event& event) = 0;

  /// Called once per exchange fabric the shard is wired into with raw
  /// forwarding off, before Start (in AddExchange order): such a fabric
  /// carries only what the sink emits (e.g. protected views). Raw-
  /// forwarding fabrics are never attached, so sink output cannot mix
  /// with raw events. The pointer outlives the sink. Default: ignore.
  virtual void AttachExchangeEmitter(ExchangeEmitter* /*emitter*/) {}

  /// End-of-stream, delivered on the worker thread by PostFinish after
  /// every event. `finish_seq` is the sequence bound of the stream (all
  /// processed events have seq < finish_seq); finalize-time emissions must
  /// use it as their trigger. Default: no-op.
  virtual void OnShardFinish(uint64_t /*finish_seq*/) {}
};

/// Worker thread + queue + per-shard engine.
class Shard {
 public:
  /// `queue_capacity` is rounded up to a power of two (and clamped to
  /// kMaxSpscCapacity).
  Shard(size_t index, size_t queue_capacity);
  ~Shard();

  Shard(const Shard&) = delete;
  Shard& operator=(const Shard&) = delete;

  /// Registers a query on this shard's engine, with an optional detection
  /// callback invoked on the worker thread with the completion timestamp of
  /// every match. Must precede Start().
  StatusOr<size_t> AddQuery(Pattern pattern, Timestamp window,
                            std::function<void(Timestamp)> callback = nullptr);

  /// Installs the worker-side event sink and attaches it to every
  /// exchange emitter added with raw forwarding off. Must precede Start().
  Status SetEventSink(std::unique_ptr<ShardEventSink> sink);

  /// Binds the hot-path histograms (obs/instruments.h). Null fields are
  /// skipped at update sites; copy-by-value, the registry owns the
  /// histograms. Must precede Start().
  Status SetInstruments(const obs::ShardInstruments& instruments);

  /// Pins the worker thread to `core` at startup (no-op when negative or
  /// unsupported on this platform). Must precede Start().
  void SetAffinityCore(int core) { affinity_core_ = core; }

  /// Wires this shard into one more exchange fabric (one lane-group). When
  /// `forward_raw_events` is set the worker emits every processed event
  /// through this emitter (the plain cross-subject path); otherwise this
  /// emitter's emission is entirely sink-driven (the private path, where
  /// only protected views may cross) and the emitter is attached to the
  /// sink. May be called once per lane-group; must precede Start().
  Status AddExchange(std::unique_ptr<ExchangeEmitter> emitter,
                     bool forward_raw_events) PLDP_EXCLUDES(reg_mu_);

  /// Launches the worker thread. Returns FailedPrecondition if running.
  Status Start();

  /// The next free ring slot, for the producer to stamp in place (seqs
  /// strictly increasing per shard), or null when the ring is full.
  /// Invisible to the worker until Publish.
  PLDP_HOT StampedEvent* ClaimSlot() {
    if (claimed_ == granted_) {
      granted_ = queue_.Claim(queue_.capacity());
      if (claimed_ == granted_) return nullptr;
    }
    return &queue_.ClaimedSlot(claimed_++);
  }

  /// Makes every claimed slot visible to the worker (one release store and,
  /// if `ring`, one doorbell ring) and counts it pushed. Returns how many.
  PLDP_HOT size_t Publish(bool ring = true);

  /// Slow path once ClaimSlot found the ring full: publishes, waits for
  /// the worker to free a slot and claims it (one backpressure wait), or
  /// returns null as soon as the shard stops — never spins on a ring
  /// nobody drains. A producer feeding several shards publishes theirs
  /// (and the producer floor) first: this worker's output may wait on
  /// them downstream.
  StampedEvent* AwaitSlot();

  /// Copies pre-stamped events in through ClaimSlot/AwaitSlot and
  /// publishes them; fails fast with FailedPrecondition when the shard is
  /// not running or stops. `accepted` (if non-null) receives the number
  /// enqueued (== count on success).
  Status PushStampedN(StampedEvent* events, size_t count,
                      size_t* accepted = nullptr);

  /// Non-blocking variant: enqueues the leading events the ring has room
  /// for and returns how many (0 when full or stopped). The admission
  /// layer (runtime/admission.h) is built on it.
  size_t TryPushStampedN(StampedEvent* events, size_t count);

  /// Producer-side progress hint: every event with seq < `floor` has been
  /// pushed to its target shard already (this one or another). Lets a
  /// shard that receives little or no traffic broadcast idle watermarks
  /// that track the global stream instead of staying silent until the
  /// next drain barrier — without it, skewed routings buffer everything
  /// downstream. Same caller as ClaimSlot (the single ingest thread);
  /// `floor` must not run ahead of published slots. The caller rings
  /// (Wake), once for the floor and any Publish(/*ring=*/false) before.
  void NoteProducerFloor(uint64_t floor) {
    // order: release so everything pushed before the floor claim is
    // visible to the worker's acquire load.
    producer_floor_.store(floor, std::memory_order_release);
  }
  /// Rings the worker's doorbell; same caller as NoteProducerFloor.
  void Wake() { doorbell_.Ring(); }

  /// Blocks until every event pushed so far has been processed. The worker
  /// stays alive; more events may be pushed after. Returns the worker's
  /// first failed exchange call, if any (e.g. an Emit on an aborted
  /// fabric): the events it failed to forward are lost downstream.
  Status Drain();

  /// Posts a request to broadcast `watermark(bound)` on every exchange row
  /// without waiting and returns the acknowledgement token for
  /// WaitCommandAck. Call after Drain so the bound's claim — "this shard
  /// forwarded everything below `bound` it will ever see" — holds. No-op
  /// without an emitter (still acknowledged).
  StatusOr<uint64_t> PostFlushWatermark(uint64_t bound);

  /// Posts end-of-stream without waiting and returns the acknowledgement
  /// token for WaitCommandAck. On the worker, the sink's OnShardFinish
  /// runs (emitting any finalize-time output), then every exchange row is
  /// closed with terminal watermarks. Call after Drain, with ingestion
  /// stopped. Under bounded exchange lanes one shard's finalize emissions
  /// may only be releasable once every other shard's terminal watermark is
  /// in flight — so the orchestrator must post finish to ALL shards before
  /// waiting on ANY (see ParallelStreamingEngine::Finish).
  StatusOr<uint64_t> PostFinish(uint64_t finish_seq);

  /// Blocks until the worker acknowledged the posted command `token`.
  /// Fails fast when the shard begins stopping first.
  Status WaitCommandAck(uint64_t token);

  /// Drains, stops, and joins the worker. Idempotent.
  Status Stop();

  bool running() const {
    // order: relaxed; advisory flag, carries no payload.
    return running_.load(std::memory_order_relaxed);
  }

  /// The shard-local engine. Read-only access for the orchestrator; only
  /// valid when the shard is stopped or drained (see threading contract).
  const StreamingCepEngine& engine() const { return engine_; }

  /// Safe from any thread at any time: the counters are atomics, and the
  /// attached-hook list is read under the registration mutex so a scrape
  /// racing a late AddExchange (both pre-Start) is well-defined.
  ShardStats stats() const PLDP_EXCLUDES(reg_mu_);

  /// Events processed and producer-side full-queue waits — safe from any
  /// thread (atomics); the metrics registry reads them at scrape time.
  uint64_t events_processed() const {
    // order: relaxed; a scrape-time count, no engine state is read with it.
    return processed_.load(std::memory_order_relaxed);
  }
  uint64_t backpressure_waits() const {
    // order: relaxed; telemetry only.
    return backpressure_waits_.load(std::memory_order_relaxed);
  }

  /// Instantaneous queue occupancy / capacity — safe from any thread
  /// (SPSC indices are atomics); used for queue-depth gauges and health.
  size_t queue_depth() const { return queue_.ApproxSize(); }
  size_t queue_capacity() const { return queue_.capacity(); }

  /// Doorbell park/wake counts; used by stats(), the metrics registry and
  /// the parking-liveness tests.
  uint64_t parks() const { return doorbell_.parks(); }
  uint64_t wakes() const { return doorbell_.wakes(); }
  /// Idle-episode yields (ShardStats::idle_yields) — safe from any thread.
  uint64_t idle_yields() const {
    // order: relaxed; telemetry only.
    return idle_yields_.load(std::memory_order_relaxed);
  }

  /// Attached exchange lane-group `i`, in AddExchange order (which is the
  /// orchestrator's group order). Emitter stats/depth reads are
  /// thread-safe; used to register per-lane metrics.
  ExchangeEmitter* exchange_emitter(size_t i) PLDP_EXCLUDES(reg_mu_) {
    MutexLock lock(reg_mu_);
    return hooks_[i].emitter.get();
  }

 private:
  enum CommandKind : uint32_t {
    kCmdNone = 0,
    kCmdFlushWatermark = 1,
    kCmdFinish = 2,
  };

  /// One attached exchange lane-group: the emitter plus whether the worker
  /// forwards every raw event through it (vs sink-driven emission only).
  struct ExchangeHook {
    std::unique_ptr<ExchangeEmitter> emitter;
    bool forward_raw_events = false;
  };

  /// Non-owning view of one hook: what the worker loop actually iterates.
  /// The worker snapshots the hook list once at startup (the list is
  /// frozen by then — AddExchange refuses while running) so the per-event
  /// path never touches the mutex-guarded vector.
  struct ExchangeHookRef {
    ExchangeEmitter* emitter = nullptr;
    bool forward_raw_events = false;
  };

  std::vector<ExchangeHookRef> SnapshotHooks() const PLDP_EXCLUDES(reg_mu_);

  void RunLoop() PLDP_REQUIRES(worker_role_);
  /// Delivers one event to the engine, the sink, and every exchange hook —
  /// the per-event section of the worker loop.
  PLDP_HOT void ProcessOne(const StampedEvent& stamped,
                           const std::vector<ExchangeHookRef>& hooks)
      PLDP_REQUIRES(worker_role_);
  /// Processes the `n` peeked events in place, records the burst and each
  /// event's timed latency, then releases them and publishes `processed_`
  /// once. The worker loop and Stop's post-join leftover absorption (under
  /// the role handoff) both run it, so every event is timed the same way.
  PLDP_HOT void ProcessBurst(size_t n,
                             const std::vector<ExchangeHookRef>& hooks)
      PLDP_REQUIRES(worker_role_);
  void ExecuteCommand(const std::vector<ExchangeHookRef>& hooks)
      PLDP_REQUIRES(worker_role_);
  StatusOr<uint64_t> PostCommand(uint32_t kind, uint64_t payload);

  const size_t index_;
  SpscQueue<StampedEvent> queue_;
  /// Wake-on-work doorbell the idle worker parks on; rung by every queue
  /// push (SetWaker), floor publication, posted command, and stop.
  Doorbell doorbell_;
  /// Worker thread CPU affinity (-1 = unpinned).
  int affinity_core_ = -1;
  StreamingCepEngine engine_;
  std::unique_ptr<ShardEventSink> sink_;
  /// Guards the hook list: AddExchange (orchestrator, pre-Start) can race
  /// a stats()/exchange_emitter() scrape, and vector growth is not atomic.
  /// The worker never takes it (see SnapshotHooks).
  mutable Mutex reg_mu_;
  std::vector<ExchangeHook> hooks_ PLDP_GUARDED_BY(reg_mu_);
  // Hot-path histograms (null fields = un-instrumented) and the per-query
  // detection callbacks (indexed by query, empty = none); both fixed
  // before Start, read on the worker.
  obs::ShardInstruments obs_;
  std::vector<std::function<void(Timestamp)>> callbacks_;
  std::thread worker_;
  // Written only by Start/Stop; atomic so Drain/stats from other threads
  // read it race-free.
  Atomic<bool> running_{false};

  /// Confinement token (zero-size, zero-cost — see thread_annotations.h):
  /// held by the worker thread (and by Stop after the join, the
  /// documented handoff).
  ThreadRole worker_role_;

  // The hot atomics below sit on three cache lines by writer, so the
  // producer's per-push stores and the worker's per-event stores never
  // share a line, whatever the members before them add up to.
  static constexpr size_t kCacheLine = 64;

  // Producer-side state. The counters are written by the producer thread
  // only (relaxed) but read from arbitrary threads by Drain()/stats(),
  // hence atomic. The claim cursor is the producer's alone: slots written
  // since the last Publish, and slots granted past the published tail.
  alignas(kCacheLine) Atomic<uint64_t> pushed_{0};
  Atomic<uint64_t> backpressure_waits_{0};
  Atomic<uint64_t> producer_floor_{0};
  size_t claimed_ = 0;
  size_t granted_ = 0;

  // Orchestrator → worker command channel: payload/kind are published by
  // the generation counter (release) and acknowledged by the worker
  // (release on cmd_ack_). Read-mostly, like the stop flag.
  alignas(kCacheLine) Atomic<uint64_t> cmd_gen_{0};
  Atomic<uint64_t> cmd_ack_{0};
  Atomic<uint64_t> cmd_payload_{0};
  Atomic<uint32_t> cmd_kind_{kCmdNone};
  Atomic<bool> stop_requested_{false};

  // Worker → producer publication point: incremented (release) after the
  // engine has absorbed a batch; Drain spins on it (acquire).
  alignas(kCacheLine) Atomic<uint64_t> processed_{0};
  // Worker-side detection counter (fed by the engine callback) so stats()
  // never has to touch the non-atomic engine internals.
  Atomic<uint64_t> detections_{0};
  // Worker-side yield count, added once per idle episode (Backoff::Reset).
  Atomic<uint64_t> idle_yields_{0};
  // The first failed raw-forward Emit: written once, by the worker, before
  // the flag's release store; Drain reads it after the acquire load.
  Atomic<bool> exchange_failed_{false};
  Status exchange_error_;

  // Worker-local: sequence of the last processed event, for idle-time
  // progress watermarks.
  uint64_t last_seq_ PLDP_GUARDED_BY(worker_role_) = 0;
  bool processed_any_ PLDP_GUARDED_BY(worker_role_) = false;
};

}  // namespace pldp

#endif  // PLDP_RUNTIME_SHARD_H_
