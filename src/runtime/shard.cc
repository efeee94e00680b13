// Copyright 2026 The PLDP Authors.

#include "runtime/shard.h"

#include <utility>

#include "common/logging.h"
#include "runtime/affinity.h"
#include "runtime/backoff.h"

namespace pldp {
namespace {

// Worker-side burst, processed in place and released at once: large
// enough to amortize the release store and the backoff bookkeeping, small
// enough to keep the drain latency of a partially filled ring negligible.
constexpr size_t kBurst = 256;

}  // namespace

Shard::Shard(size_t index, size_t queue_capacity)
    : index_(index), queue_(queue_capacity) {
  queue_.SetWaker(&doorbell_);
  engine_.SetCallback([this](const StreamingDetection& d) {
    // order: relaxed; telemetry only.
    detections_.fetch_add(1, std::memory_order_relaxed);
    if (callbacks_[d.query_index]) callbacks_[d.query_index](d.at);
  });
}

Shard::~Shard() { (void)Stop(); }

StatusOr<size_t> Shard::AddQuery(Pattern pattern, Timestamp window,
                                 std::function<void(Timestamp)> callback) {
  // order: relaxed; pre-start guard, orchestrator-serialized.
  if (running_.load(std::memory_order_relaxed)) {
    return Status::FailedPrecondition(
        "Shard::AddQuery must precede Start()");
  }
  PLDP_ASSIGN_OR_RETURN(size_t index,
                        engine_.AddQuery(std::move(pattern), window));
  callbacks_.push_back(std::move(callback));
  return index;
}

Status Shard::SetEventSink(std::unique_ptr<ShardEventSink> sink) {
  // order: relaxed; pre-start guard, orchestrator-serialized.
  if (running_.load(std::memory_order_relaxed)) {
    return Status::FailedPrecondition(
        "Shard::SetEventSink must precede Start()");
  }
  sink_ = std::move(sink);
  if (sink_ != nullptr) {
    // Sink-driven emitters wired in before the sink existed still reach it.
    MutexLock lock(reg_mu_);
    for (ExchangeHook& hook : hooks_) {
      if (!hook.forward_raw_events) {
        sink_->AttachExchangeEmitter(hook.emitter.get());
      }
    }
  }
  return Status::OK();
}

Status Shard::SetInstruments(const obs::ShardInstruments& instruments) {
  // order: relaxed; pre-start guard, orchestrator-serialized.
  if (running_.load(std::memory_order_relaxed)) {
    return Status::FailedPrecondition(
        "Shard::SetInstruments must precede Start()");
  }
  obs_ = instruments;
  return Status::OK();
}

Status Shard::AddExchange(std::unique_ptr<ExchangeEmitter> emitter,
                          bool forward_raw_events) {
  // order: relaxed; pre-start guard, orchestrator-serialized.
  if (running_.load(std::memory_order_relaxed)) {
    return Status::FailedPrecondition(
        "Shard::AddExchange must precede Start()");
  }
  if (emitter == nullptr) {
    return Status::InvalidArgument("emitter must not be null");
  }
  // The lock makes a late AddExchange well-defined against a concurrent
  // stats()/exchange_emitter() scrape: push_back can reallocate the vector
  // under an unlocked reader (the bug -Wthread-safety pinned down once
  // hooks_ was annotated; regression: runtime_shard_race_test).
  MutexLock lock(reg_mu_);
  // One worker drives every emitter of this shard: a wait on one group's
  // full lane must also bound the others (see ExchangeEmitter::AddPeer).
  for (ExchangeHook& other : hooks_) {
    other.emitter->AddPeer(emitter.get());
    emitter->AddPeer(other.emitter.get());
  }
  ExchangeHook hook;
  hook.emitter = std::move(emitter);
  hook.forward_raw_events = forward_raw_events;
  hooks_.push_back(std::move(hook));
  // Only sink-driven emitters reach the sink: raw events and sink output
  // never share a lane-group.
  if (sink_ != nullptr && !forward_raw_events) {
    sink_->AttachExchangeEmitter(hooks_.back().emitter.get());
  }
  return Status::OK();
}

std::vector<Shard::ExchangeHookRef> Shard::SnapshotHooks() const {
  MutexLock lock(reg_mu_);
  std::vector<ExchangeHookRef> refs;
  refs.reserve(hooks_.size());
  for (const ExchangeHook& hook : hooks_) {
    refs.push_back({hook.emitter.get(), hook.forward_raw_events});
  }
  return refs;
}

Status Shard::Start() {
  // order: relaxed; orchestrator-serialized (one thread calls Start/Stop).
  if (running_.load(std::memory_order_relaxed)) {
    return Status::FailedPrecondition("shard already running");
  }
  // order: relaxed; the thread launch below is the synchronization edge.
  stop_requested_.store(false, std::memory_order_relaxed);
  worker_ = std::thread([this] {
    if (affinity_core_ >= 0) (void)PinCurrentThreadToCore(affinity_core_);
    worker_role_.Acquire();
    RunLoop();
    worker_role_.Release();
  });
  // order: relaxed; advisory flag for running() observers.
  running_.store(true, std::memory_order_relaxed);
  return Status::OK();
}

size_t Shard::Publish(bool ring) {
  const size_t n = claimed_;
  if (n == 0) return 0;
  queue_.Publish(n, ring);
  granted_ -= n;
  claimed_ = 0;
  // order: relaxed; Drain reads it from the producer thread itself (or
  // under an external happens-before), and the ring's release store above
  // already published the events.
  pushed_.fetch_add(n, std::memory_order_relaxed);
  return n;
}

StampedEvent* Shard::AwaitSlot() {
  // The worker can only free slots the producer has published.
  Publish();
  Backoff backoff;
  for (;;) {
    // Fail fast instead of spinning forever when the worker is gone (a
    // push racing Stop(), or a producer outliving the shard's shutdown).
    // Events published before the cutoff still count as pushed; Stop()
    // processes any ring leftovers after joining the worker, so Drain
    // stays consistent even if the worker missed them.
    // order: relaxed; fail-fast hint — Stop()'s post-join leftover pass
    // makes the cutoff exact regardless of what this load observes.
    if (stop_requested_.load(std::memory_order_relaxed)) {
      PLDP_LOG(Warning) << "shard " << index_
                        << ": push after stop rejected";
      return nullptr;
    }
    backoff.Wait();
    if (StampedEvent* slot = ClaimSlot()) {
      // order: relaxed; telemetry only.
      backpressure_waits_.fetch_add(1, std::memory_order_relaxed);
      return slot;
    }
  }
}

Status Shard::PushStampedN(StampedEvent* events, size_t count,
                           size_t* accepted) {
  if (accepted != nullptr) *accepted = 0;
  // order: relaxed on both flags; advisory fail-fast guards — a racing
  // Stop is caught by AwaitSlot's check.
  if (!running_.load(std::memory_order_relaxed) ||
      stop_requested_.load(std::memory_order_relaxed)) {
    return Status::FailedPrecondition("shard not running");
  }
  size_t done = 0;
  for (; done < count; ++done) {
    StampedEvent* slot = ClaimSlot();
    if (slot == nullptr && (slot = AwaitSlot()) == nullptr) break;
    *slot = std::move(events[done]);
  }
  Publish();
  if (accepted != nullptr) *accepted = done;
  if (done < count) return Status::FailedPrecondition("push after shard stop");
  return Status::OK();
}

size_t Shard::TryPushStampedN(StampedEvent* events, size_t count) {
  // order: relaxed on both flags; advisory fail-fast guards (see
  // PushStampedN).
  if (!running_.load(std::memory_order_relaxed) ||
      stop_requested_.load(std::memory_order_relaxed)) {
    return 0;
  }
  size_t n = 0;
  for (StampedEvent* slot; n < count && (slot = ClaimSlot()) != nullptr;
       ++n) {
    *slot = std::move(events[n]);
  }
  Publish();
  return n;
}

Status Shard::Drain() {
  // order: relaxed; advisory guard.
  if (!running_.load(std::memory_order_relaxed)) return Status::OK();
  // order: relaxed; best-effort snapshot of the push count (see the
  // threading contract in the header).
  const uint64_t target = pushed_.load(std::memory_order_relaxed);
  Backoff backoff;
  // order: acquire pairs with the worker's release — once the count
  // covers the target, the engine/sink effects are visible too.
  while (processed_.load(std::memory_order_acquire) < target) {
    backoff.Wait();
  }
  // order: acquire pairs with ProcessOne's release store, which follows
  // the one write of the status.
  if (exchange_failed_.load(std::memory_order_acquire)) {
    return exchange_error_;
  }
  return Status::OK();
}

StatusOr<uint64_t> Shard::PostCommand(uint32_t kind, uint64_t payload) {
  // order: relaxed; advisory guard (WaitCommandAck fails fast on stop).
  if (!running_.load(std::memory_order_relaxed)) {
    return Status::FailedPrecondition("shard not running");
  }
  // order: relaxed on both; the generation bump below publishes them.
  cmd_payload_.store(payload, std::memory_order_relaxed);
  cmd_kind_.store(kind, std::memory_order_relaxed);
  // order: release publishes payload/kind to the worker's acquire of
  // cmd_gen_.
  const uint64_t token = cmd_gen_.fetch_add(1, std::memory_order_release) + 1;
  doorbell_.Ring();
  return token;
}

Status Shard::WaitCommandAck(uint64_t token) {
  Backoff backoff;
  // order: acquire pairs with the worker's release ack — command side
  // effects (watermarks, finish emissions) are visible once acked.
  while (cmd_ack_.load(std::memory_order_acquire) < token) {
    // order: relaxed; fail-fast hint only.
    if (stop_requested_.load(std::memory_order_relaxed)) {
      return Status::FailedPrecondition("shard stopping before command ran");
    }
    backoff.Wait();
  }
  return Status::OK();
}

StatusOr<uint64_t> Shard::PostFlushWatermark(uint64_t bound) {
  return PostCommand(kCmdFlushWatermark, bound);
}

StatusOr<uint64_t> Shard::PostFinish(uint64_t finish_seq) {
  return PostCommand(kCmdFinish, finish_seq);
}

Status Shard::Stop() {
  // order: relaxed; orchestrator-serialized (one thread calls Start/Stop).
  if (!running_.load(std::memory_order_relaxed)) return Status::OK();
  Status drained = Drain();
  // order: release so work published before the stop request is visible
  // to the worker that observes it (acquire in the run loop).
  stop_requested_.store(true, std::memory_order_release);
  doorbell_.Ring();  // A parked worker must observe the stop flag.
  if (worker_.joinable()) worker_.join();
  // A push racing the stop flag can land an event after the worker's final
  // empty-queue check. The join above makes this thread the sole owner —
  // the worker-role handoff — so absorb any leftovers here: no pushed
  // event is ever silently dropped, and a concurrent Drain() waiting on
  // processed_ is released.
  worker_role_.Acquire();
  const std::vector<ExchangeHookRef> hooks = SnapshotHooks();
  while (const size_t n = queue_.Peek(kBurst)) ProcessBurst(n, hooks);
  worker_role_.Release();
  // order: relaxed; advisory flag for running() observers.
  running_.store(false, std::memory_order_relaxed);
  return drained;
}

ShardStats Shard::stats() const {
  ShardStats s;
  s.shard_index = index_;
  // order: acquire pairs with the worker's release publication.
  s.events_processed =
      static_cast<size_t>(processed_.load(std::memory_order_acquire));
  // order: relaxed; telemetry only.
  s.detections =
      static_cast<size_t>(detections_.load(std::memory_order_relaxed));
  s.backpressure_waits = static_cast<size_t>(backpressure_waits());
  s.parks = static_cast<size_t>(doorbell_.parks());
  s.wakes = static_cast<size_t>(doorbell_.wakes());
  s.idle_yields = static_cast<size_t>(idle_yields());
  MutexLock lock(reg_mu_);
  for (const ExchangeHook& hook : hooks_) {
    const ExchangeEmitterStats e = hook.emitter->stats();
    s.forwarded += e.forwarded;
    s.exchange_backpressure_waits += e.backpressure_waits;
  }
  return s;
}

void Shard::ExecuteCommand(const std::vector<ExchangeHookRef>& hooks) {
  // order: acquire pairs with PostCommand's release bump, covering the
  // payload/kind stores before it.
  const uint64_t gen = cmd_gen_.load(std::memory_order_acquire);
  // order: relaxed; this thread is cmd_ack_'s only writer.
  if (gen == cmd_ack_.load(std::memory_order_relaxed)) return;
  // order: relaxed on both; published by the acquired generation bump.
  const uint32_t kind = cmd_kind_.load(std::memory_order_relaxed);
  const uint64_t payload = cmd_payload_.load(std::memory_order_relaxed);
  switch (kind) {
    case kCmdFlushWatermark:
      // The emitters skip bounds they already passed, so a stale request
      // (issued before newer idle watermarks) is free. Broadcast never
      // fails (it never waits, also on an aborted fabric).
      for (const ExchangeHookRef& hook : hooks) {
        (void)hook.emitter->Broadcast(payload);
      }
      break;
    case kCmdFinish:
      // End-of-stream: finalize-time sink output first (stamped with the
      // finish bound), then close every lane of every row for good.
      if (sink_ != nullptr) sink_->OnShardFinish(payload);
      for (const ExchangeHookRef& hook : hooks) {
        (void)hook.emitter->Broadcast(kExchangeSeqEnd);  // Never fails.
      }
      break;
    default:
      break;
  }
  // order: release publishes the command's side effects to
  // WaitCommandAck's acquire.
  cmd_ack_.store(gen, std::memory_order_release);
}

void Shard::ProcessOne(const StampedEvent& stamped,
                       const std::vector<ExchangeHookRef>& hooks) {
  // One exchange trigger scope per event and per lane-group: everything
  // emitted while processing it — raw forwards and sink-driven output
  // alike — is stamped (seq, 0), (seq, 1), ... independently on every
  // group's row.
  for (const ExchangeHookRef& hook : hooks) {
    hook.emitter->BeginTrigger(stamped.seq);
  }
  // The engine's status is always OK today (OnEvent cannot fail); if
  // a future engine surfaces errors we will carry them to Drain().
  (void)engine_.OnEvent(stamped.event);
  if (sink_ != nullptr) sink_->OnShardEvent(stamped.event);
  for (const ExchangeHookRef& hook : hooks) {
    if (!hook.forward_raw_events) continue;
    Status s = hook.emitter->Emit(stamped.event);
    // order: relaxed; this thread is the flag's only writer.
    if (!s.ok() && !exchange_failed_.load(std::memory_order_relaxed)) {
      exchange_error_ = std::move(s);
      // order: release publishes the status to Drain's acquire load.
      exchange_failed_.store(true, std::memory_order_release);
    }
  }
  last_seq_ = stamped.seq;
  processed_any_ = true;
}

void Shard::ProcessBurst(size_t n,
                         const std::vector<ExchangeHookRef>& hooks) {
  if (obs_.batch_size) obs_.batch_size->Record(n);
  // Chained clock reads: one MonotonicNowNs per event, each delta is that
  // event's full processing latency (engine + sink + exchange).
  uint64_t t_prev = obs_.process_latency_ns ? obs::MonotonicNowNs() : 0;
  for (size_t i = 0; i < n; ++i) {
    ProcessOne(queue_.PeekedSlot(i), hooks);
    if (obs_.process_latency_ns) {
      const uint64_t t_now = obs::MonotonicNowNs();
      obs_.process_latency_ns->Record(t_now - t_prev);
      t_prev = t_now;
    }
  }
  queue_.Release(n);
  // One release store per burst: the publication point Drain acquires (it
  // also releases a Drain waiting across Stop's leftover pass).
  // order: release (see comment above).
  processed_.fetch_add(n, std::memory_order_release);
}

void Shard::RunLoop() {
  Backoff backoff(&idle_yields_);
  // One snapshot for the thread's lifetime: AddExchange refuses once the
  // shard runs, so the list is frozen and the per-event path stays off
  // the registration mutex.
  const std::vector<ExchangeHookRef> hooks = SnapshotHooks();
  // Sequence bound of the last idle watermark this loop broadcast — the
  // park predicate watches the producer floor against it.
  uint64_t last_idle_bound = 0;
  for (;;) {
    const size_t n = queue_.Peek(kBurst);
    if (n > 0) {
      backoff.Reset();
      ProcessBurst(n, hooks);
      // Commands are handled on burst boundaries too, so a saturating
      // producer cannot starve a drain barrier.
      ExecuteCommand(hooks);
      continue;
    }
    ExecuteCommand(hooks);
    // order: acquire pairs with Stop()'s release store.
    if (stop_requested_.load(std::memory_order_acquire) &&
        queue_.ApproxEmpty()) {
      return;
    }
    // Idle: let downstream merges progress past everything we processed —
    // or, when the producer vouches that every event below its floor has
    // been pushed somewhere and our queue is empty, past the global floor
    // (a shard starved by routing skew must not silence its lanes).
    // Broadcast dedups repeat bounds, so the steady idle loop stays free.
    if (!hooks.empty()) {
      uint64_t bound = processed_any_ ? last_seq_ + 1 : 0;
      // order: acquire pairs with NoteProducerFloor's release (the empty
      // check below relies on the covered pushes being visible).
      const uint64_t floor =
          producer_floor_.load(std::memory_order_acquire);
      // The floor's pushes happened before its release store, so an empty
      // queue observed after the acquire means we processed all of ours.
      if (floor > bound && queue_.ApproxEmpty()) bound = floor;
      if (bound > 0) {
        for (const ExchangeHookRef& hook : hooks) {
          (void)hook.emitter->Broadcast(bound);  // Never fails.
        }
        last_idle_bound = bound;
      }
    }
    if (backoff.ShouldPark()) {
      // Park until work arrives. The predicate reads only atomics (queue
      // indices, command generation, stop flag, producer floor) — never
      // worker-guarded state — and covers every wake source: a push rings
      // via the queue's waker, PostCommand / Stop / NoteProducerFloor
      // ring directly. See runtime/backoff.h for the lost-wakeup
      // argument; `watch_floor` wakes the loop when there is new idle-
      // watermark progress to broadcast.
      const bool watch_floor = !hooks.empty();
      const uint64_t idle_bound = last_idle_bound;
      (void)backoff.Park(doorbell_, [this, watch_floor, idle_bound] {
        if (!queue_.ApproxEmpty()) return true;
        // order: acquire/relaxed, same pairing as ExecuteCommand.
        if (cmd_gen_.load(std::memory_order_acquire) !=
            cmd_ack_.load(std::memory_order_relaxed)) {
          return true;
        }
        // order: acquire pairs with Stop()'s release store.
        if (stop_requested_.load(std::memory_order_acquire)) return true;
        // order: acquire pairs with NoteProducerFloor's release.
        return watch_floor &&
               producer_floor_.load(std::memory_order_acquire) > idle_bound;
      });
      // Woken (or preempted by work) — spin afresh before parking again,
      // with or without yields depending on how long the park lasted.
      continue;
    }
    backoff.Wait();
  }
}

}  // namespace pldp
