// Copyright 2026 The PLDP Authors.
//
// Sharded parallel streaming CEP engine.
//
// `ParallelStreamingEngine` scales `StreamingCepEngine` across cores: it
// hash-partitions incoming events by subject key (runtime/router.h) onto N
// worker shards (runtime/shard.h), each owning a private engine with the
// same registered queries, connected by bounded lock-free SPSC queues with
// backpressure. It implements `StreamSubscriber`, so it drops into the
// existing `StreamReplayer` wherever a `StreamingCepEngine` did.
//
// Subject partitioning makes per-subject patterns exact, but a pattern that
// correlates *across* subjects sees only fragments on any one shard. For
// those, the engine grows a second stage: a repartition/exchange
// (runtime/exchange.h) re-keys stage-1 output by a correlation key
// (cep/correlation_key.h) over an N1×N2 matrix of SPSC lanes, and stage-2
// merge shards (runtime/merge_shard.h) restore global order with a
// watermark-gated k-way merge before matching the cross-subject queries.
// Cross queries that need *different* correlation keys get one exchange
// lane-group each (own fabric + merge shards, see AddCrossQuery); stage-1
// workers fan their output through every group's emitter. A group either
// forwards every raw event (plain cross queries) or carries only what the
// shards' event sinks emit (the private lane's protected views), so one
// set of stage-1 shards serves the plain, cross, and private lanes.
//
// NOTE: prefer the declarative `PipelineBuilder` (api/pipeline_builder.h)
// over constructing this engine directly — the builder plans the minimal
// topology from the registered queries and returns typed query handles
// whose result accessors encode the drain contract. This class is the
// planner's one execution target: every pipeline owns exactly one.
// Internal: not part of the public API in core/pldp.h; tests include it.
//
//     caller / StreamReplayer
//            │ OnEvent / OnEventBatch (stamped with ingest seq straight
//            ▼                         into a claimed ring slot, published)
//       EventRouter ── hash(subject) % N1 ─► SpscQueue ─► Shard 0 ┐
//                                            SpscQueue ─► Shard 1 │ stage 1
//                                            ...                  ┘
//                 per-shard StreamingCepEngine (+ optional sink)
//                          │ ExchangeEmitter: re-key by correlation key
//                          ▼
//              N1×N2 exchange lanes (SPSC each, watermarked)
//                          │
//                          ▼ k-way merge by ingest seq
//                    MergeShard 0..N2-1                    stage 2
//              cross-subject StreamingCepEngine each
//            │
//            ▼
//     Drain barrier (two-phase: stage-1 drain + watermark flush,
//     then stage-2 safe-bound wait) → merged detections / stats
//
// Semantics: stage-1 detection is *partition-local by subject* — exact
// whenever matches are subject-local, the paper's setting (Fig. 2).
// Stage-2 detection is *partition-local by correlation key*: exact whenever
// all events of a potential match share the key (trivially true for the
// global key, which sends everything to one stage-2 shard). Because the
// merge releases events in exact ingest order, stage-2 detections equal a
// sequential engine's bit-for-bit, not just as a multiset.

#ifndef PLDP_RUNTIME_PARALLEL_ENGINE_H_
#define PLDP_RUNTIME_PARALLEL_ENGINE_H_

#include <atomic>
#include <functional>
#include <memory>
#include <vector>

#include "cep/correlation_key.h"
#include "cep/streaming_engine.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "obs/health.h"
#include "obs/metrics.h"
#include "quality/metrics.h"
#include "runtime/admission.h"
#include "runtime/exchange.h"
#include "runtime/merge_shard.h"
#include "runtime/overload.h"
#include "runtime/router.h"
#include "runtime/shard.h"
#include "stream/replay.h"

namespace pldp {

/// Shape of every exchange lane-group (created by AddCrossQuery).
struct RuntimeExchangeOptions {
  /// Stage-2 merge shards per lane-group. 0 = as many as stage-1 shards.
  size_t shard_count = 0;
  /// Capacity of each exchange lane (rounded up to a power of two).
  size_t lane_capacity = 1024;
  /// Per-lane flow-control credit budget: a hard bound on how many events
  /// one producer may have buffered in one merge shard's reorder buffer
  /// (runtime/exchange.h). 0 = kDefaultExchangeReorderCapacity. A merge
  /// shard's total reorder memory is bounded by N1 × this value.
  size_t reorder_capacity = 0;
};

/// Construction-time knobs of the runtime.
struct ParallelEngineOptions {
  /// Worker shards. 0 = one per available hardware thread.
  size_t shard_count = 0;
  /// Per-shard queue capacity (rounded up to a power of two). Bounds
  /// memory and converts overload into router-side backpressure.
  size_t queue_capacity = 1024;
  /// The cross-subject exchange stage.
  RuntimeExchangeOptions exchange;
  /// What ingestion does when a shard queue is full (runtime/overload.h).
  /// The default (kBlock) keeps the historic lossless backpressure path
  /// with zero added overhead; the shedding policies interpose an
  /// AdmissionQueue in front of the shard queues.
  OverloadOptions overload;
  /// Pin worker threads to cores at Start (round-robin: stage-1 shards
  /// first, then stage-2 merge shards). No-op on platforms without
  /// affinity support — pinning is a hint, never a correctness knob.
  bool pin_threads = false;
  /// Cap on distinct cores used when pinning (0 = all available).
  size_t affinity_cores = 0;
};

/// Multi-threaded drop-in for StreamingCepEngine (see file comment for the
/// exact semantics). Lifecycle: AddQuery*/AddCrossQuery* → Start →
/// OnEvent*/OnEventBatch* → Drain/Finish/Stop → read detections/stats.
/// DetectionsOf and stats are only stable after that barrier; OnEnd (from
/// StreamReplayer) drains, so results are consistent right after
/// StreamReplayer::Run returns.
class ParallelStreamingEngine : public StreamSubscriber {
 public:
  explicit ParallelStreamingEngine(ParallelEngineOptions options = {});
  ~ParallelStreamingEngine() override;

  ParallelStreamingEngine(const ParallelStreamingEngine&) = delete;
  ParallelStreamingEngine& operator=(const ParallelStreamingEngine&) = delete;

  size_t shard_count() const { return shards_.size(); }

  /// Stage-2 merge shards across all exchange lane-groups.
  size_t cross_shard_count() const;

  /// Registers a continuous query on every stage-1 shard (same index
  /// everywhere) and returns that index, handed out in registration order.
  /// `callback`, when set, receives the completion timestamp of every
  /// detection on the worker thread of the shard that matched — each shard
  /// calls its own copy, concurrently with the others, so it must be
  /// thread-safe. Must precede Start().
  StatusOr<size_t> AddQuery(Pattern pattern, Timestamp window,
                            std::function<void(Timestamp)> callback = nullptr);

  /// Registers a cross-subject query on the exchange lane-group selected
  /// by (`key_id`, `forward_raw_events`): queries sharing both share one
  /// fabric + merge-shard set (the caller guarantees equal key_id implies
  /// equal key_fn), anything else gets an independent lane matrix — this
  /// is how one pipeline runs several cross queries each under its own
  /// correlation key. Groups are created on first use with
  /// options.exchange's shape. A raw-forwarding group receives every
  /// stage-1 event (plain cross queries); any other group carries only
  /// what the shards' event sinks emit (the private lane's protected
  /// views — see Shard::AddExchange). `callback`, when set, runs on the
  /// group's merge-shard workers for every detection (see AddQuery). Must
  /// precede Start(). Cross queries have their own index space, separate
  /// from AddQuery's, handed out in registration order.
  StatusOr<size_t> AddCrossQuery(
      Pattern pattern, Timestamp window, const std::string& key_id,
      ShardKeyFn key_fn, bool forward_raw_events,
      std::function<void(Timestamp)> callback = nullptr);

  /// Installs `sink` on stage-1 shard `shard_index` (see
  /// Shard::SetEventSink). Must precede Start().
  Status SetShardSink(size_t shard_index,
                      std::unique_ptr<ShardEventSink> sink);

  size_t query_count() const { return query_count_; }
  size_t cross_query_count() const { return cross_index_.size(); }

  /// Registers this engine's metrics in `registry`: every count and depth
  /// as a read function over the owning stage's atomics (shards, exchange
  /// emitters, merge shards, admission), and the three hot-path
  /// histograms, which are bound into the stages. Exchange and merge
  /// families carry `lane="plain"` for raw-forwarding groups and
  /// `lane="private"` for sink-driven ones. Call after all queries and
  /// lane-groups are registered and before Start(); at most once. The
  /// read functions borrow this engine: snapshot `registry` only while the
  /// engine lives.
  Status EnableMetrics(obs::MetricsRegistry* registry);

  /// Appends this engine's health rows (per-shard queue saturation,
  /// per-group merge lag/occupancy) to `health`. Safe while running.
  void CollectHealth(obs::PipelineHealth* health) const;

  /// Launches all workers (stage-2 consumers first, then stage-1).
  Status Start();

  /// Waits until every ingested event has been fully processed — through
  /// both stages when the exchange is on (stage-1 drain, watermark flush,
  /// stage-2 safe-bound wait). Workers stay alive; ingestion may continue.
  Status Drain();

  /// Terminal end-of-stream: drains, runs every sink's OnShardFinish on
  /// its worker (emitting finalize-time output through the exchange), and
  /// seals the exchange with terminal watermarks. Further ingestion is
  /// refused; workers stay alive for result reads. One-shot: the first
  /// call's outcome (success or error) latches and later calls re-return
  /// it.
  Status Finish();

  /// Drains and joins all workers. Idempotent; called by the destructor.
  Status Stop();

  /// Emergency brake on every exchange lane-group (ExchangeFabric::Abort):
  /// an Emit that finds its lane out of credits or full fails fast instead
  /// of waiting for a consumer. Stop() pulls it once the producers are
  /// joined; pulled earlier, the private lane latches the first failed
  /// Emit and reports it after Finish (PrivateLane::FinalizeStatus).
  void AbortExchange() {
    for (auto& group : groups_) group.fabric->Abort();
  }

  // order: relaxed; status poll — lifecycle handoffs are synchronized
  // by Start/Stop themselves, not by this flag.
  bool running() const { return running_.load(std::memory_order_relaxed); }

  // StreamSubscriber — the ingest path (single producer thread).

  /// Ingests one event: OnEventBatch over a one-element span.
  Status OnEvent(const Event& event) override;

  /// Bulk ingest, one pass in stream order: routes each event, stamps it
  /// and copies it once into a claimed slot of its shard's ring, then
  /// publishes each shard's slots with one release store (a full ring
  /// publishes every shard and the producer floor before it waits). The
  /// only ingest path: OnEvent is a one-element call.
  Status OnEventBatch(EventSpan events) override;

  /// Drains, so DetectionsOf/stats are consistent the moment
  /// StreamReplayer::Run returns — without this, results read right after
  /// Run() could silently miss events still queued on the shards.
  Status OnEnd() override { return Drain(); }

  // Results. Valid after Drain() or Stop() (and before further OnEvent).

  /// Merged detections of one stage-1 query across shards, sorted by
  /// timestamp (a canonical multiset representation).
  StatusOr<std::vector<Timestamp>> DetectionsOf(size_t query_index) const;

  /// Merged detections of one cross-subject query across merge shards,
  /// sorted by timestamp.
  StatusOr<std::vector<Timestamp>> CrossDetectionsOf(
      size_t cross_query_index) const;

  /// Total stage-2 detections across cross queries and merge shards.
  size_t total_cross_detections() const;

  /// Events ingested (== sum of per-shard events_processed after Drain).
  // order: relaxed; telemetry read, exact after external quiescence.
  size_t events_processed() const {
    return events_ingested_.load(std::memory_order_relaxed);
  }

  /// Events deliberately dropped by the overload policy (0 under kBlock).
  /// Safe from any thread.
  uint64_t events_shed() const {
    return admission_ ? admission_->shed_total() : 0;
  }

  /// Admitted/shed roll-up for quality accounting (quality/metrics.h).
  /// RecallLowerBound() == 1.0 certifies a lossless run: detections are
  /// bit-identical to the blocking policy's. Safe from any thread.
  SheddingStats shedding_stats() const {
    SheddingStats s;
    // order: relaxed; telemetry read (see events_processed).
    s.admitted = events_ingested_.load(std::memory_order_relaxed);
    s.shed = events_shed();
    return s;
  }

  /// Per-shard stage-1 counters, indexed by shard.
  std::vector<ShardStats> ShardStatsSnapshot() const;

  /// Per-shard stage-2 counters (events_processed = events released by the
  /// merge), in lane-group creation order. Empty without cross queries.
  std::vector<ShardStats> CrossShardStatsSnapshot() const;

 private:
  /// One exchange lane-group: a correlation key's fabric plus the merge
  /// shards consuming it. The fabric is declared before the merge shards so
  /// it is destroyed after them (their threads touch the lanes).
  struct ExchangeGroup {
    /// Dedupe token of the group's correlation key.
    std::string key_id;
    /// Raw-forwarding (plain) vs sink-driven (private) group.
    bool forward_raw_events = true;
    std::unique_ptr<ExchangeFabric> fabric;
    std::vector<std::unique_ptr<MergeShard>> merge_shards;
  };

  /// Creates a lane-group for `key_fn` (or finds the existing one with
  /// this key_id and forwarding mode) and wires one emitter per stage-1
  /// shard. Returns the group's index into groups_ (stable across later
  /// growth, unlike a pointer).
  StatusOr<size_t> GetOrCreateGroup(const std::string& key_id,
                                    ShardKeyFn key_fn,
                                    bool forward_raw_events);

  EventRouter router_;
  /// Shape of every lane-group created by AddCrossQuery.
  RuntimeExchangeOptions exchange_options_;
  /// Overload policy (kBlock = admission_ stays null, historic path).
  OverloadOptions overload_options_;
  /// Core-pinning knobs, applied at Start() once the topology is frozen
  /// (lane-groups may be created between construction and Start).
  bool pin_threads_ = false;
  size_t affinity_cores_ = 0;
  /// Exchange lane-groups. Declared before the stage-1 shards so the
  /// fabrics are destroyed after every thread that touches their lanes.
  std::vector<ExchangeGroup> groups_;
  std::vector<std::unique_ptr<Shard>> shards_;
  /// Non-null only under a shedding policy; sits between the router and
  /// the shard queues on the ingest thread. Declared after shards_ (it
  /// borrows them).
  std::unique_ptr<AdmissionQueue> admission_;
  /// Ingest confinement: the StreamSubscriber contract (one thread drives
  /// OnEvent/OnEventBatch/OnEnd), asserted at OnEventBatch, ties the
  /// shards' claim cursors and next_seq_'s writes to that thread.
  ThreadRole ingest_role_;
  size_t query_count_ = 0;
  /// Global cross-query index -> (lane-group, group-local index).
  std::vector<std::pair<size_t, size_t>> cross_index_;
  /// Ingest frontier: every sequence number below it is stamped and
  /// published (or parked in admission). Written only by the ingest
  /// thread, once per batch; drain barriers read it from any thread.
  std::atomic<uint64_t> next_seq_{0};
  std::atomic<uint64_t> events_ingested_{0};
  // Written only by Start/Stop (single orchestrating thread); atomic so
  // Drain from another thread reads it race-free.
  std::atomic<bool> running_{false};
  std::atomic<bool> finished_{false};
  /// Latched first Finish() outcome (orchestrator thread only).
  Status finish_status_ = Status::OK();

  /// Per-shard acknowledgement tokens of the commands a barrier posts,
  /// sized once at construction so Drain() allocates nothing
  /// (orchestrator thread only, like the command channel itself).
  std::vector<uint64_t> command_tokens_;

  // Telemetry (EnableMetrics; non-null once enabled). The registry owns
  // the histograms and read functions. Invariant used there: shard hook
  // index g == groups_[g] (every group adds exactly one emitter to every
  // shard, in group-creation order).
  obs::MetricsRegistry* metrics_ = nullptr;

  /// The one barrier behind Drain() (finish = false) and Finish() (finish
  /// = true): flush admission, drain every shard to the ingest frontier,
  /// post a flush-watermark or finish command to every shard, wait every
  /// ack, then wait every merge shard past the bound.
  Status Barrier(bool finish);
  /// Ingest frontier minus the merge shard's safe watermark (0 when it
  /// caught up) — shared by CollectHealth and the watermark-lag gauge.
  uint64_t WatermarkLag(const MergeShard& merge) const;
  /// Publishes every shard's claimed slots, counts them ingested, then
  /// stores `frontier`, the next sequence number to stamp, as next_seq_.
  void PublishIngested(uint64_t frontier) PLDP_REQUIRES(ingest_role_);
  void PublishProducerFloor(uint64_t floor);
  /// Snapshot of the ingest frontier: every stamped sequence number is
  /// strictly below it. Safe from any thread (best-effort while the
  /// producer races, exact once it is quiescent — same as Drain).
  uint64_t IngestFrontier() const;
};

}  // namespace pldp

#endif  // PLDP_RUNTIME_PARALLEL_ENGINE_H_
