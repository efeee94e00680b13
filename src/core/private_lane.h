// Copyright 2026 The PLDP Authors.
//
// The private lane of a pipeline: the paper's trusted middleware (Fig. 2)
// as shard-local sinks on the pipeline's one sharded runtime.
//
// `PrivateLane` holds the setup phase (private patterns, target queries,
// α, history — the registries of an embedded `PrivateCepEngine`), the
// pattern-level budget ledger, and one `SubjectViewPublisher` per stage-1
// shard. `Attach` wires it into a `ParallelStreamingEngine` it does not
// own: every shard gets a sink that feeds the shard's substream into the
// shard's publisher, which windows every subject's stream, publishes
// protected views through a per-subject mechanism instance, and answers
// every target query from the views — raw events never leave the
// middleware.
//
// Private cross-subject queries ride their own exchange lane-group with raw
// forwarding off: each published view is flattened into presence events
// (one per present type, stamped with the subject and the window start),
// and only those cross the exchange, so cross-subject correlation only
// ever sees post-perturbation data. The raw-forwarding groups of plain
// cross queries on the same shards never reach the sink
// (Shard::AddExchange).
//
//     Pipeline::OnEventBatch
//        ▼
//     ParallelStreamingEngine ── subject hash ──► Shard worker
//                                  (plain queries, raw cross groups)
//                                                   │ ShardEventSink
//                                                   ▼
//                                         SubjectViewPublisher
//                                     (per-subject tumbling windows,
//                                      per-subject mechanism + Rng,
//                                      protected answers)
//                                                   │ protected views
//                                                   ▼
//                              private lane-group ─► MergeShards
//                                     (cross-subject queries on views)
//
// Determinism: per-subject Rngs derive from (seed, subject id) — see
// SubjectSeed — so results are bit-identical across shard counts and equal
// to a sequential `PrivateCepEngine::ProcessStream` over each subject's
// substream with the same per-subject seed (pinned by
// tests/core_parallel_private_test.cc). Cross-subject detections are
// likewise shard-count-invariant: view events carry exchange merge keys
// that reproduce the sequential publication order exactly (pinned by
// tests/core_parallel_private_cross_test.cc).
//
// Internal to the planner (api/pipeline_builder.h), which gates every
// result read behind the runtime's Finish barrier.

#ifndef PLDP_CORE_PRIVATE_LANE_H_
#define PLDP_CORE_PRIVATE_LANE_H_

#include <string>
#include <vector>

#include "core/private_engine.h"
#include "dp/ledger.h"
#include "obs/metrics.h"
#include "ppm/subject_publisher.h"
#include "runtime/parallel_engine.h"

namespace pldp {

class PrivateLane {
 public:
  /// Every subject's stream is cut into tumbling windows of `window_size`
  /// (> 0) starting at `window_origin`; per-subject mechanism Rngs derive
  /// from `seed`.
  PrivateLane(Timestamp window_size, Timestamp window_origin, uint64_t seed);

  PrivateLane(const PrivateLane&) = delete;
  PrivateLane& operator=(const PrivateLane&) = delete;

  // --- Setup phase (delegates to the embedded PrivateCepEngine) -----------

  EventTypeId InternEventType(const std::string& name) {
    return setup_.InternEventType(name);
  }
  void SetAlpha(double alpha) { setup_.SetAlpha(alpha); }
  void SetHistory(std::vector<Window> history) {
    setup_.SetHistory(std::move(history));
  }
  Status RegisterPrivatePattern(Pattern pattern) {
    return setup_.RegisterPrivatePattern(std::move(pattern)).status();
  }
  StatusOr<QueryId> RegisterTargetQuery(const std::string& query_name,
                                        Pattern pattern) {
    return setup_.RegisterTargetQuery(query_name, std::move(pattern));
  }

  /// Validates the mechanism configuration, grants every private pattern
  /// its lifetime budget ε in the ledger, and installs one publisher sink
  /// on every stage-1 shard of `runtime`. Call once, after the setup phase
  /// and before `runtime` starts. The lane must outlive `runtime`'s
  /// workers: the mechanisms borrow its registries.
  Status Attach(ParallelStreamingEngine* runtime, MechanismFactory factory,
                double epsilon);

  /// Registers a cross-subject query over the protected-view stream (all
  /// elements within `window`) on the lane's sink-driven lane-group.
  /// Returns the runtime's cross query index. After Attach, before Start.
  StatusOr<size_t> AddCrossQuery(Pattern pattern, Timestamp window);

  /// Registers the per-shard publisher counts (windows, live subjects) and
  /// the per-pattern budget gauges as read functions. After Attach, before
  /// Start; the functions borrow the publishers, so `registry` must not be
  /// snapshot once the lane is gone.
  void EnableMetrics(obs::MetricsRegistry* registry);

  // --- Results (valid once the runtime's Finish returned) -----------------

  /// The first error a shard's sink latched on its worker: a publisher's
  /// (mechanism creation, publication or finalization) or a failed Emit of
  /// a protected view into the exchange (an aborted fabric), shard order.
  Status FinalizeStatus();

  /// All data subjects observed, ascending.
  std::vector<StreamId> SubjectIds() const;

  /// Protected answers of one subject (indexed by query id). The view
  /// lives in the owning publisher. NotFound for subjects that never
  /// emitted an event.
  StatusOr<const SubjectResults*> ResultsViewFor(StreamId subject) const;

  /// Windows published across all subjects and shards.
  size_t total_windows() const;

 private:
  /// One stage-1 shard's sink: its publisher and its exchange tap.
  class Sink;

  SubjectPublisherOptions MakePublisherOptions() const;

  const Timestamp window_size_;
  const Timestamp window_origin_;
  const uint64_t seed_;
  PrivateCepEngine setup_;
  MechanismFactory factory_;
  double epsilon_ = 0.0;
  ParallelStreamingEngine* runtime_ = nullptr;
  /// One sink (and publisher) per shard, owned by the shards.
  std::vector<Sink*> sinks_;
  /// Activation budget audit: one grant + one activation charge per
  /// private pattern.
  PatternBudgetLedger ledger_;
};

}  // namespace pldp

#endif  // PLDP_CORE_PRIVATE_LANE_H_
