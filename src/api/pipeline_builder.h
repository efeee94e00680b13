// Copyright 2026 The PLDP Authors.
//
// The declarative pipeline API: one entry point that *plans* the topology.
//
// `PipelineBuilder` is the API boundary over the engines underneath
// (ParallelStreamingEngine, the private lane of core/private_lane.h):
// callers declare *what* they want (plain per-subject queries,
// cross-subject queries with per-query correlation keys, private target
// queries plus a privacy mechanism) and a shard budget; `Build()` runs a
// planner that analyzes each query's correlation needs
// (cep/correlation_key.h) and compiles the minimal topology on ONE
// ParallelStreamingEngine, whose N stage-1 shards every lane shares (each
// event is routed, stamped, and queued once):
//
//   plain queries        -> run on the stage-1 shards (N = 1 is a
//                           one-worker runtime)
//   cross queries        -> + one exchange lane-group PER DISTINCT
//                           correlation key (a pipeline may correlate one
//                           query by "zone" and another by event type
//                           simultaneously), forwarding every raw event
//   private queries      -> + a per-shard publisher sink on the same
//                           shards (per-subject windows, one mechanism
//                           instance per subject); private cross queries
//                           ride their own lane-group that carries only
//                           protected views, never raw events
//
// Registration returns *typed handles* (QueryHandle, CrossQueryHandle,
// PrivateQueryHandle, PrivateCrossQueryHandle). Handles are the only way
// to look results up, and results are only reachable through the
// `FinishedPipeline` view that `Finish()` returns — so the two classic
// footguns of the old facades are unrepresentable: reading results before
// the drain barrier (there is no accessor on `Pipeline`), and looking up
// an unknown query name/index (a handle exists only if registration
// succeeded, and a foreign or invalid handle is a hard error).
//
//   PipelineBuilder b;
//   auto came_home = b.AddQuery(Pattern::Create(...), /*window=*/10);
//   auto zone_alert = b.AddCrossQuery(Pattern::Create(...), 10,
//                                     CorrelationKey::ByAttribute("zone"));
//   auto pipeline_or = b.WithShards(4).Build();   // plans + starts
//   ...  // pipeline->OnEvent / OnEventBatch (or a StreamReplayer)
//   auto finished_or = pipeline->Finish();        // drain barrier, typed
//   auto hits = finished_or.value().Detections(came_home);

#ifndef PLDP_API_PIPELINE_BUILDER_H_
#define PLDP_API_PIPELINE_BUILDER_H_

#include <atomic>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "cep/correlation_key.h"
#include "common/status.h"
#include "core/private_lane.h"
#include "obs/health.h"
#include "obs/metrics.h"
#include "ppm/mechanism.h"
#include "runtime/parallel_engine.h"
#include "stream/replay.h"

namespace pldp {

class PipelineBuilder;
class Pipeline;
class FinishedPipeline;

/// How a cross-subject query's correlation key is derived. `Auto()` lets
/// the planner run the query-needs analysis (SuggestCorrelationSpec) on
/// the query's own pattern; the named constructors pin a spec; `Custom`
/// supplies an arbitrary extractor under a caller-chosen identity (two
/// Custom keys with the same name share one exchange lane-group — the
/// caller guarantees same name implies same function).
class CorrelationKey {
 public:
  static CorrelationKey Auto();
  static CorrelationKey Global();
  static CorrelationKey ByAttribute(std::string attribute);
  static CorrelationKey Custom(std::string name, CorrelationKeyFn fn);

 private:
  friend class PipelineBuilder;

  enum class Mode { kAuto, kSpec, kCustom };

  Mode mode_ = Mode::kAuto;
  CorrelationKeySpec spec_ = CorrelationKeySpec::Global();
  std::string custom_name_;
  CorrelationKeyFn custom_fn_;
};

namespace internal {

/// Shared representation of the typed handles: which pipeline issued it
/// (a process-unique id) and the dense per-kind registration index. An
/// invalid handle (failed registration — the error surfaces at Build())
/// has index kInvalid.
struct QueryHandleRep {
  static constexpr size_t kInvalid = static_cast<size_t>(-1);
  uint64_t builder_uid = 0;
  size_t index = kInvalid;
  bool valid() const { return index != kInvalid; }
};

}  // namespace internal

/// Handle of a plain (subject-local) continuous query.
class QueryHandle {
 public:
  QueryHandle() = default;
  /// False when the registration that produced this handle failed (the
  /// error itself is reported by PipelineBuilder::Build()).
  bool valid() const { return rep_.valid(); }

  /// Registers a streaming detection callback for this query, called with
  /// the completion timestamp of every match the moment it fires. Must be
  /// called before Build() while the builder is alive (later calls are
  /// ignored). It runs on the worker thread of the shard that matched —
  /// several shards may call it concurrently, so it must be thread-safe.
  /// No-op on invalid handles.
  QueryHandle& OnDetection(std::function<void(Timestamp)> callback);

 private:
  friend class PipelineBuilder;
  friend class FinishedPipeline;
  internal::QueryHandleRep rep_;
  PipelineBuilder* builder_ = nullptr;
};

/// Handle of a cross-subject query (its own correlation key / lane-group).
class CrossQueryHandle {
 public:
  CrossQueryHandle() = default;
  bool valid() const { return rep_.valid(); }

  /// Streaming detection callback; see QueryHandle::OnDetection. It runs
  /// on the query's merge-shard worker threads.
  CrossQueryHandle& OnDetection(std::function<void(Timestamp)> callback);

 private:
  friend class PipelineBuilder;
  friend class FinishedPipeline;
  internal::QueryHandleRep rep_;
  PipelineBuilder* builder_ = nullptr;
};

/// Handle of a private (per-subject, protected-view) target query.
class PrivateQueryHandle {
 public:
  PrivateQueryHandle() = default;
  bool valid() const { return rep_.valid(); }

 private:
  friend class PipelineBuilder;
  friend class FinishedPipeline;
  internal::QueryHandleRep rep_;
};

/// Handle of a private cross-subject query (matched over the exchanged
/// protected-view stream).
class PrivateCrossQueryHandle {
 public:
  PrivateCrossQueryHandle() = default;
  bool valid() const { return rep_.valid(); }

 private:
  friend class PipelineBuilder;
  friend class FinishedPipeline;
  internal::QueryHandleRep rep_;
};

/// What the planner decided, for inspection, tests, and logs.
struct PipelinePlan {
  /// Resolved stage-1 shard budget (after 0 -> hardware concurrency);
  /// every lane shares these shards.
  size_t shard_count = 0;
  size_t plain_queries = 0;

  /// One exchange lane-group per distinct correlation key.
  struct CrossGroupPlan {
    /// Human-readable key identity, e.g. "attr:zone", "event-type",
    /// "global", "custom:region".
    std::string key_id;
    size_t query_count = 0;
    size_t merge_shards = 0;
  };
  std::vector<CrossGroupPlan> cross_groups;

  bool has_private = false;
  size_t private_queries = 0;
  size_t private_cross_queries = 0;

  /// True when worker threads are pinned round-robin to cores at start.
  bool pin_threads = false;

  /// Resolved ingest overload policy (kBlock unless WithOverloadPolicy
  /// chose a shedding policy).
  OverloadPolicy overload_policy = OverloadPolicy::kBlock;

  /// Multi-line rendering of the plan.
  std::string Describe() const;
};

/// The immutable, drained view of a pipeline's results. Only
/// Pipeline::Finish() hands these out, so holding one *is* the proof that
/// the drain barrier ran — the typed replacement for the old "remember to
/// Drain() before DetectionsOf" contract. Borrows the Pipeline; must not
/// outlive it.
class FinishedPipeline {
 public:
  /// Detections (completion timestamps, sorted) of a plain query.
  /// InvalidArgument for invalid handles or handles of another pipeline.
  StatusOr<std::vector<Timestamp>> Detections(const QueryHandle& handle) const;

  /// Detections of a cross-subject query, merged across its lane-group.
  StatusOr<std::vector<Timestamp>> Detections(
      const CrossQueryHandle& handle) const;

  /// Detections of a private cross-subject query (window-start timestamps
  /// over the protected-view stream).
  StatusOr<std::vector<Timestamp>> Detections(
      const PrivateCrossQueryHandle& handle) const;

  /// Data subjects the private lane observed, ascending. Empty when the
  /// pipeline has no private queries.
  std::vector<StreamId> Subjects() const;

  /// Protected per-window answers of one private query for one subject.
  /// NotFound when the subject never emitted an event.
  StatusOr<AnswerSeries> AnswersOf(const PrivateQueryHandle& handle,
                                   StreamId subject) const;

  /// Protected windows published across all subjects (0 without privacy).
  size_t total_windows() const;

  size_t total_cross_detections() const;
  size_t events_processed() const;

 private:
  friend class Pipeline;
  explicit FinishedPipeline(const Pipeline* pipeline) : pipeline_(pipeline) {}
  const Pipeline* pipeline_;
};

/// A built, running pipeline. Obtained from PipelineBuilder::Build()
/// (already started); ingests via the StreamSubscriber interface, so a
/// StreamReplayer drives it directly. Results are reachable only through
/// Finish().
class Pipeline : public StreamSubscriber {
 public:
  ~Pipeline() override;

  Pipeline(const Pipeline&) = delete;
  Pipeline& operator=(const Pipeline&) = delete;

  const PipelinePlan& plan() const { return plan_; }

  // Ingest (single producer thread; the runtime asserts it).

  /// Feeds a batch of events to every lane. Thread contract: one thread
  /// drives all of OnEvent/OnEventBatch/OnEnd/Finish (a StreamReplayer
  /// satisfies this). Backpressure: under the default overload policy a
  /// full shard queue BLOCKS this call until the worker catches up —
  /// memory stays bounded, the caller slows to the pipeline's pace; under
  /// a shedding policy the call never blocks on a full queue and may drop
  /// instead (see PipelineBuilder::WithOverloadPolicy). Errors:
  /// FailedPrecondition after Finish()/OnEnd or when a worker stopped
  /// mid-push. Batching is cheaper on the ingest thread (each event is
  /// stamped straight into a claimed slot of its shard's ring; each
  /// shard's slots are published with one release store per batch).
  Status OnEventBatch(EventSpan events) override;

  /// Feeds one event: OnEventBatch over a one-element span, with the same
  /// thread, backpressure, and error contract.
  Status OnEvent(const Event& event) override;

  /// End-of-stream from a StreamReplayer: runs the terminal finish (drain
  /// + finalize + exchange seal). Ingestion afterwards is refused; call
  /// Finish() to obtain the result view.
  Status OnEnd() override;

  /// Non-terminal flow-control barrier of the plain/cross lane: waits
  /// until everything ingested so far has been processed by the stage-1
  /// shards and by every exchange lane-group's merge shards (workers stay
  /// alive, ingestion may continue). The private lane runs on the same
  /// shards, so in a pipeline with plain or cross queries the barrier
  /// covers it too: its publishers have absorbed every event, and its
  /// lane-group has matched every protected view published so far. A
  /// private-only pipeline has no plain/cross lane and returns at once.
  /// Deliberately NOT a result gate — results stay behind Finish(), which
  /// alone publishes the subjects' open privacy windows; this exists for
  /// warmup/backpressure checkpoints (e.g. the bench harness).
  Status Drain();

  /// Terminal drain barrier: drains every lane, finalizes the private
  /// publishers, seals the exchanges, and returns the typed result view.
  /// Idempotent — later calls return the same view. The view borrows this
  /// pipeline and is valid until the pipeline is destroyed.
  StatusOr<FinishedPipeline> Finish();

  /// Joins all workers. Idempotent; the destructor calls it.
  Status Stop();

  size_t events_processed() const;

  /// Events deliberately dropped by the overload policy (always 0 under
  /// the default kBlock policy). One admission layer serves every lane, so
  /// each offered event is shed at most once. Safe from any thread,
  /// concurrent with ingestion.
  uint64_t events_shed() const;

  /// Admitted/shed roll-up for quality accounting. A
  /// RecallLowerBound() of 1.0 certifies the run was lossless — its
  /// detections are bit-identical to a kBlock run. Safe from any thread.
  SheddingStats shedding_stats() const;

  /// Per-shard stage-1 counters (the one shard set every lane shares).
  std::vector<ShardStats> ShardStatsSnapshot() const;
  /// Per-merge-shard counters of every lane-group, plain groups first.
  std::vector<ShardStats> CrossShardStatsSnapshot() const;

  // --- Telemetry (PipelineBuilder::EnableMetrics) -------------------------

  /// Point-in-time view of every registered metric: reads each stage's
  /// counts and depths (queue depths, exchange occupancy, watermark lag,
  /// intern-table occupancy) and freezes the histograms. Safe from any
  /// thread, concurrent with ingestion — this is what a scrape thread
  /// calls. Empty when metrics are disabled.
  obs::MetricsSnapshot MetricsSnapshot() const;

  /// Pipeline-wide health roll-up from live runtime state (works with or
  /// without metrics). Safe from any thread while the pipeline runs.
  obs::PipelineHealth Health(const obs::HealthThresholds& thresholds =
                                 obs::HealthThresholds()) const;

  /// The instrument registry; nullptr when metrics are disabled.
  obs::MetricsRegistry* metrics() const { return metrics_.get(); }

 private:
  friend class PipelineBuilder;
  friend class FinishedPipeline;

  Pipeline() = default;
  /// Runtime Finish() (one-shot, latched; refuses ingest afterwards) plus
  /// the private publishers' latched finalize errors.
  Status FinishInternal();

  PipelinePlan plan_;
  uint64_t builder_uid_ = 0;

  /// Private lane (null without private queries). Declared before the
  /// runtime so it outlives the workers whose sinks borrow its registries.
  std::unique_ptr<PrivateLane> private_lane_;
  /// The one runtime every lane runs on.
  std::unique_ptr<ParallelStreamingEngine> runtime_;

  /// Private handle-index translation: registration index -> private-lane
  /// query id / runtime cross query index. (Plain and cross handles index
  /// the runtime directly: it hands out indices in registration order.)
  std::vector<QueryId> private_map_;
  std::vector<size_t> private_cross_map_;

  /// Telemetry (set iff the builder enabled metrics). Declared after the
  /// runtime and the private lane so it is destroyed first: its read
  /// functions borrow both.
  std::unique_ptr<obs::MetricsRegistry> metrics_;
  /// Atomic so a scrape thread may read events_processed() mid-ingest.
  std::atomic<uint64_t> events_ingested_{0};
};

/// Declarative builder: declare queries and budgets, then Build() to plan,
/// construct, and start the minimal topology. The builder is single-use
/// (Build() moves its state into the Pipeline).
class PipelineBuilder {
 public:
  PipelineBuilder();

  // --- Topology budgets --------------------------------------------------

  /// Stage-1 worker budget, shared by every lane. 0 (default) = one per
  /// hardware thread; 1 = a one-worker runtime.
  PipelineBuilder& WithShards(size_t shard_budget);
  /// Stage-2 merge shards per exchange lane-group. 0 = same as stage-1.
  PipelineBuilder& WithCrossShards(size_t merge_shards);
  /// Per-shard input-queue capacity (rounded up to a power of two). This
  /// is the primary memory/backpressure knob: a full queue blocks the
  /// ingest thread (default policy) or triggers the overload policy.
  PipelineBuilder& WithQueueCapacity(size_t capacity);
  /// Capacity of each exchange lane (rounded up to a power of two).
  PipelineBuilder& WithExchangeCapacity(size_t lane_capacity);
  /// What ingestion does when a shard queue is full. kBlock (default)
  /// blocks the ingest thread until the worker catches up — lossless.
  /// kShedOldest / kShedBySubject bound ingest latency instead by
  /// dropping events once a per-shard pending buffer of
  /// `pending_capacity` events (0 = queue capacity) also fills; drops are
  /// counted in pldp_shed_events_total and Pipeline::events_shed().
  /// Shedding never reorders admitted events, so a run that sheds nothing
  /// is bit-identical to kBlock. A shed event reaches no lane (plain,
  /// cross, or private). See runtime/overload.h for the policy semantics.
  PipelineBuilder& WithOverloadPolicy(OverloadPolicy policy,
                                      size_t pending_capacity = 0);
  /// Base seed of the private lane's per-subject mechanism Rngs.
  PipelineBuilder& WithSeed(uint64_t seed);
  /// Pins worker threads round-robin to cores at start (stage-1 shards
  /// first, then merge shards), capped to `max_cores` distinct cores
  /// (0 = all available). A placement hint: unsupported platforms and
  /// oversubscribed budgets degrade gracefully, never fail.
  PipelineBuilder& WithCoreAffinity(size_t max_cores = 0);

  // --- Telemetry ----------------------------------------------------------

  /// Builds the pipeline with a `obs::MetricsRegistry` and instruments
  /// every stage (shards, exchange lanes, merge shards, private
  /// publishers, budget ledger, intern tables). Hot-path cost is a few
  /// relaxed atomic ops per event — still allocation-free. Off by default.
  PipelineBuilder& EnableMetrics(bool enabled = true);

  // --- Privacy configuration (required iff private queries exist) --------

  /// Tumbling evaluation window applied to every subject's stream.
  PipelineBuilder& WithPrivacyWindow(Timestamp size, Timestamp origin = 0);
  /// Pattern-level privacy budget granted to the mechanism.
  PipelineBuilder& WithEpsilon(double epsilon);
  /// Mechanism by registry name ("uniform", "adaptive", ...).
  PipelineBuilder& WithMechanism(const std::string& name);
  /// Or an explicit factory (one fresh instance per data subject).
  PipelineBuilder& WithMechanismFactory(MechanismFactory factory);
  /// Consumer-side quality parameter α (adaptive mechanisms).
  PipelineBuilder& WithAlpha(double alpha);
  /// Historical windows granted for adaptive tuning.
  PipelineBuilder& WithHistory(std::vector<Window> history);

  // --- Vocabulary ---------------------------------------------------------

  /// Interns an event type name for the private lane's registries (the
  /// paper's setup phase: subjects and consumers agree on names). Plain
  /// queries may use the returned ids too.
  EventTypeId InternEventType(const std::string& name);

  // --- Query declarations -------------------------------------------------
  // Each returns its typed handle immediately; a failed registration
  // (malformed pattern, invalid key) yields an invalid handle and latches
  // the error, which Build() reports. Accepting StatusOr<Pattern> lets
  // callers pass Pattern::Create(...) results straight through.

  /// Plain continuous query, evaluated per data subject.
  QueryHandle AddQuery(StatusOr<Pattern> pattern, Timestamp window);

  /// Cross-subject continuous query with its own correlation key. Distinct
  /// keys get independent exchange lane-groups; Auto() derives the finest
  /// safe key from this query's pattern.
  CrossQueryHandle AddCrossQuery(StatusOr<Pattern> pattern, Timestamp window,
                                 CorrelationKey key = CorrelationKey::Auto());

  /// Declares a data subject's private pattern (what the mechanism
  /// protects). At least one is required for a private lane.
  PipelineBuilder& AddPrivatePattern(StatusOr<Pattern> pattern);

  /// Private target query: answered per subject and window from protected
  /// views only.
  PrivateQueryHandle AddPrivateQuery(const std::string& name,
                                     StatusOr<Pattern> pattern);

  /// Private cross-subject query, matched over the exchanged
  /// protected-view stream with all elements within `window`.
  PrivateCrossQueryHandle AddPrivateCrossQuery(const std::string& name,
                                               StatusOr<Pattern> pattern,
                                               Timestamp window);

  // --- Compilation --------------------------------------------------------

  /// Plans the minimal topology for the declared queries, constructs the
  /// engines, and starts the workers. Reports the first latched
  /// registration error instead, if any. Single-use.
  StatusOr<std::unique_ptr<Pipeline>> Build();

 private:
  friend class QueryHandle;
  friend class CrossQueryHandle;

  struct PlainDecl {
    Pattern pattern;
    Timestamp window = 0;
    std::function<void(Timestamp)> callback;
  };
  struct CrossDecl {
    Pattern pattern;
    Timestamp window = 0;
    CorrelationKey key;
    std::function<void(Timestamp)> callback;
  };
  struct PrivateDecl {
    std::string name;
    Pattern pattern;
  };
  struct PrivateCrossDecl {
    std::string name;
    Pattern pattern;
    Timestamp window = 0;
  };

  void LatchError(Status status);
  /// Resolves a CorrelationKey against `pattern` into (key_id, extractor).
  StatusOr<std::pair<std::string, CorrelationKeyFn>> ResolveKey(
      const CorrelationKey& key, const Pattern& pattern) const;

  /// Handle back-channels (QueryHandle::OnDetection). No-ops after Build().
  void SetPlainCallback(size_t index, std::function<void(Timestamp)> callback);
  void SetCrossCallback(size_t index, std::function<void(Timestamp)> callback);

  uint64_t uid_ = 0;
  Status error_ = Status::OK();
  bool built_ = false;
  bool metrics_enabled_ = false;

  /// Runtime settings: the topology setters write them, Build() hands
  /// them to the runtime unchanged.
  ParallelEngineOptions options_;
  uint64_t seed_ = 0x9111bea5ULL;

  Timestamp window_size_ = 0;
  Timestamp window_origin_ = 0;
  double epsilon_ = 0.0;
  double alpha_ = 0.5;
  MechanismFactory mechanism_factory_;
  std::vector<Window> history_;

  std::vector<std::string> event_type_names_;

  std::vector<PlainDecl> plain_;
  std::vector<CrossDecl> cross_;
  std::vector<Pattern> private_patterns_;
  std::vector<PrivateDecl> private_queries_;
  std::vector<PrivateCrossDecl> private_cross_;
};

}  // namespace pldp

#endif  // PLDP_API_PIPELINE_BUILDER_H_
