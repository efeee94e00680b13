// Copyright 2026 The PLDP Authors.

#include "api/pipeline_builder.h"

#include <atomic>
#include <utility>

#include "common/strings.h"
#include "event/symbol_table.h"
#include "ppm/factory.h"

namespace pldp {
namespace {

std::atomic<uint64_t> g_next_builder_uid{1};

std::string SpecKeyId(const CorrelationKeySpec& spec) {
  switch (spec.kind) {
    case CorrelationKeySpec::Kind::kGlobal:
      return "global";
    case CorrelationKeySpec::Kind::kSubject:
      return "subject";
    case CorrelationKeySpec::Kind::kEventType:
      return "event-type";
    case CorrelationKeySpec::Kind::kAttribute:
      return "attr:" + spec.attribute;
  }
  return "global";
}

}  // namespace

// ---------------------------------------------------------------------------
// CorrelationKey

CorrelationKey CorrelationKey::Auto() { return CorrelationKey(); }

CorrelationKey CorrelationKey::Global() {
  CorrelationKey key;
  key.mode_ = Mode::kSpec;
  key.spec_ = CorrelationKeySpec::Global();
  return key;
}

CorrelationKey CorrelationKey::ByAttribute(std::string attribute) {
  CorrelationKey key;
  key.mode_ = Mode::kSpec;
  key.spec_ = CorrelationKeySpec::ByAttribute(std::move(attribute));
  return key;
}

CorrelationKey CorrelationKey::Custom(std::string name, CorrelationKeyFn fn) {
  CorrelationKey key;
  key.mode_ = Mode::kCustom;
  key.custom_name_ = std::move(name);
  key.custom_fn_ = std::move(fn);
  return key;
}

// ---------------------------------------------------------------------------
// Query handles

QueryHandle& QueryHandle::OnDetection(std::function<void(Timestamp)> callback) {
  if (builder_ != nullptr && rep_.valid()) {
    builder_->SetPlainCallback(rep_.index, std::move(callback));
  }
  return *this;
}

CrossQueryHandle& CrossQueryHandle::OnDetection(
    std::function<void(Timestamp)> callback) {
  if (builder_ != nullptr && rep_.valid()) {
    builder_->SetCrossCallback(rep_.index, std::move(callback));
  }
  return *this;
}

// ---------------------------------------------------------------------------
// PipelinePlan

std::string PipelinePlan::Describe() const {
  size_t cross_total = 0;
  for (const CrossGroupPlan& g : cross_groups) cross_total += g.query_count;
  std::string out =
      StrFormat("stage 1: %zu shards (%zu plain, %zu cross)\n", shard_count,
                plain_queries, cross_total);
  for (const CrossGroupPlan& g : cross_groups) {
    out += StrFormat("  lane-group '%s': %zu queries, %zu merge shards\n",
                     g.key_id.c_str(), g.query_count, g.merge_shards);
  }
  if (has_private) {
    out += StrFormat(
        "private lane: sinks on the stage-1 shards (%zu target queries, "
        "%zu cross)\n",
        private_queries, private_cross_queries);
  }
  if (pin_threads) {
    out += "affinity: workers pinned round-robin to cores\n";
  }
  if (overload_policy != OverloadPolicy::kBlock) {
    out += StrFormat("overload policy: %s\n",
                     OverloadPolicyName(overload_policy));
  }
  return out;
}

// ---------------------------------------------------------------------------
// PipelineBuilder

PipelineBuilder::PipelineBuilder()
    // order: relaxed; only uniqueness of the ticket matters.
    : uid_(g_next_builder_uid.fetch_add(1, std::memory_order_relaxed)) {}

PipelineBuilder& PipelineBuilder::WithShards(size_t shard_budget) {
  options_.shard_count = shard_budget;
  return *this;
}

PipelineBuilder& PipelineBuilder::WithCrossShards(size_t merge_shards) {
  options_.exchange.shard_count = merge_shards;
  return *this;
}

PipelineBuilder& PipelineBuilder::WithQueueCapacity(size_t capacity) {
  options_.queue_capacity = capacity;
  return *this;
}

PipelineBuilder& PipelineBuilder::WithExchangeCapacity(size_t lane_capacity) {
  options_.exchange.lane_capacity = lane_capacity;
  return *this;
}

PipelineBuilder& PipelineBuilder::WithOverloadPolicy(OverloadPolicy policy,
                                                     size_t pending_capacity) {
  options_.overload.policy = policy;
  options_.overload.pending_capacity = pending_capacity;
  return *this;
}

PipelineBuilder& PipelineBuilder::WithSeed(uint64_t seed) {
  seed_ = seed;
  return *this;
}

PipelineBuilder& PipelineBuilder::WithCoreAffinity(size_t max_cores) {
  options_.pin_threads = true;
  options_.affinity_cores = max_cores;
  return *this;
}

PipelineBuilder& PipelineBuilder::EnableMetrics(bool enabled) {
  metrics_enabled_ = enabled;
  return *this;
}

void PipelineBuilder::SetPlainCallback(size_t index,
                                       std::function<void(Timestamp)> cb) {
  if (built_ || index >= plain_.size()) return;
  plain_[index].callback = std::move(cb);
}

void PipelineBuilder::SetCrossCallback(size_t index,
                                       std::function<void(Timestamp)> cb) {
  if (built_ || index >= cross_.size()) return;
  cross_[index].callback = std::move(cb);
}

PipelineBuilder& PipelineBuilder::WithPrivacyWindow(Timestamp size,
                                                    Timestamp origin) {
  window_size_ = size;
  window_origin_ = origin;
  return *this;
}

PipelineBuilder& PipelineBuilder::WithEpsilon(double epsilon) {
  epsilon_ = epsilon;
  return *this;
}

PipelineBuilder& PipelineBuilder::WithMechanism(const std::string& name) {
  mechanism_factory_ = NamedMechanismFactory(name);
  return *this;
}

PipelineBuilder& PipelineBuilder::WithMechanismFactory(
    MechanismFactory factory) {
  mechanism_factory_ = std::move(factory);
  return *this;
}

PipelineBuilder& PipelineBuilder::WithAlpha(double alpha) {
  alpha_ = alpha;
  return *this;
}

PipelineBuilder& PipelineBuilder::WithHistory(std::vector<Window> history) {
  history_ = std::move(history);
  return *this;
}

EventTypeId PipelineBuilder::InternEventType(const std::string& name) {
  for (size_t i = 0; i < event_type_names_.size(); ++i) {
    if (event_type_names_[i] == name) return static_cast<EventTypeId>(i);
  }
  event_type_names_.push_back(name);
  return static_cast<EventTypeId>(event_type_names_.size() - 1);
}

void PipelineBuilder::LatchError(Status status) {
  if (error_.ok() && !status.ok()) error_ = std::move(status);
}

QueryHandle PipelineBuilder::AddQuery(StatusOr<Pattern> pattern,
                                      Timestamp window) {
  QueryHandle handle;
  handle.rep_.builder_uid = uid_;
  handle.builder_ = this;
  if (!pattern.ok()) {
    LatchError(pattern.status());
    return handle;
  }
  PlainDecl decl;
  decl.pattern = std::move(pattern).value();
  decl.window = window;
  plain_.push_back(std::move(decl));
  handle.rep_.index = plain_.size() - 1;
  return handle;
}

CrossQueryHandle PipelineBuilder::AddCrossQuery(StatusOr<Pattern> pattern,
                                                Timestamp window,
                                                CorrelationKey key) {
  CrossQueryHandle handle;
  handle.rep_.builder_uid = uid_;
  handle.builder_ = this;
  if (!pattern.ok()) {
    LatchError(pattern.status());
    return handle;
  }
  CrossDecl decl;
  decl.pattern = std::move(pattern).value();
  decl.window = window;
  decl.key = std::move(key);
  cross_.push_back(std::move(decl));
  handle.rep_.index = cross_.size() - 1;
  return handle;
}

PipelineBuilder& PipelineBuilder::AddPrivatePattern(StatusOr<Pattern> pattern) {
  if (!pattern.ok()) {
    LatchError(pattern.status());
    return *this;
  }
  private_patterns_.push_back(std::move(pattern).value());
  return *this;
}

PrivateQueryHandle PipelineBuilder::AddPrivateQuery(const std::string& name,
                                                    StatusOr<Pattern> pattern) {
  PrivateQueryHandle handle;
  handle.rep_.builder_uid = uid_;
  if (!pattern.ok()) {
    LatchError(pattern.status());
    return handle;
  }
  PrivateDecl decl;
  decl.name = name;
  decl.pattern = std::move(pattern).value();
  private_queries_.push_back(std::move(decl));
  handle.rep_.index = private_queries_.size() - 1;
  return handle;
}

PrivateCrossQueryHandle PipelineBuilder::AddPrivateCrossQuery(
    const std::string& name, StatusOr<Pattern> pattern, Timestamp window) {
  PrivateCrossQueryHandle handle;
  handle.rep_.builder_uid = uid_;
  if (!pattern.ok()) {
    LatchError(pattern.status());
    return handle;
  }
  PrivateCrossDecl decl;
  decl.name = name;
  decl.pattern = std::move(pattern).value();
  decl.window = window;
  private_cross_.push_back(std::move(decl));
  handle.rep_.index = private_cross_.size() - 1;
  return handle;
}

StatusOr<std::pair<std::string, CorrelationKeyFn>> PipelineBuilder::ResolveKey(
    const CorrelationKey& key, const Pattern& pattern) const {
  switch (key.mode_) {
    case CorrelationKey::Mode::kAuto: {
      PLDP_ASSIGN_OR_RETURN(CorrelationKeySpec spec,
                            SuggestCorrelationSpec({pattern}));
      PLDP_ASSIGN_OR_RETURN(CorrelationKeyFn fn, MakeCorrelationKeyFn(spec));
      return std::make_pair(SpecKeyId(spec), std::move(fn));
    }
    case CorrelationKey::Mode::kSpec: {
      PLDP_ASSIGN_OR_RETURN(CorrelationKeyFn fn,
                            MakeCorrelationKeyFn(key.spec_));
      return std::make_pair(SpecKeyId(key.spec_), std::move(fn));
    }
    case CorrelationKey::Mode::kCustom: {
      if (!key.custom_fn_) {
        return Status::InvalidArgument("custom correlation key '" +
                                       key.custom_name_ +
                                       "' has a null extractor");
      }
      return std::make_pair("custom:" + key.custom_name_, key.custom_fn_);
    }
  }
  return Status::Internal("unreachable correlation key mode");
}

StatusOr<std::unique_ptr<Pipeline>> PipelineBuilder::Build() {
  if (built_) {
    return Status::FailedPrecondition(
        "PipelineBuilder is single-use; Build() was already called");
  }
  built_ = true;
  PLDP_RETURN_IF_ERROR(error_);

  const bool has_private =
      !private_queries_.empty() || !private_cross_.empty();
  if (plain_.empty() && cross_.empty() && !has_private) {
    return Status::InvalidArgument("no queries declared");
  }
  if (!private_patterns_.empty() && !has_private) {
    return Status::InvalidArgument(
        "private patterns declared but no private queries; add "
        "AddPrivateQuery/AddPrivateCrossQuery or drop the patterns");
  }
  if (has_private && private_queries_.empty()) {
    return Status::InvalidArgument(
        "private cross queries need at least one AddPrivateQuery target "
        "(the mechanism protects per-subject answers)");
  }
  // Cheap private-lane configuration checks come before any lane spins up
  // worker threads, so a config mistake is side-effect-free.
  if (has_private) {
    if (!mechanism_factory_) {
      return Status::InvalidArgument(
          "private queries need a mechanism: call WithMechanism(name) or "
          "WithMechanismFactory(factory)");
    }
    if (window_size_ <= 0) {
      return Status::InvalidArgument(
          "private queries need WithPrivacyWindow(size > 0)");
    }
    if (private_patterns_.empty()) {
      return Status::InvalidArgument(
          "private queries need at least one AddPrivatePattern (what the "
          "mechanism protects)");
    }
  }
  auto pipeline = std::unique_ptr<Pipeline>(new Pipeline());
  pipeline->builder_uid_ = uid_;
  if (metrics_enabled_) {
    pipeline->metrics_ = std::make_unique<obs::MetricsRegistry>();
  }
  PipelinePlan& plan = pipeline->plan_;
  plan.plain_queries = plain_.size();
  plan.has_private = has_private;
  plan.private_queries = private_queries_.size();
  plan.private_cross_queries = private_cross_.size();
  plan.pin_threads = options_.pin_threads;
  plan.overload_policy = options_.overload.policy;

  // Resolve every cross query's correlation key up front: the planner
  // dedupes equal keys into shared lane-groups and validates the rest.
  struct ResolvedCross {
    std::string key_id;
    CorrelationKeyFn fn;
  };
  std::vector<ResolvedCross> resolved;
  resolved.reserve(cross_.size());
  for (const CrossDecl& decl : cross_) {
    PLDP_ASSIGN_OR_RETURN(auto key, ResolveKey(decl.key, decl.pattern));
    ResolvedCross r;
    r.key_id = std::move(key.first);
    r.fn = std::move(key.second);
    resolved.push_back(std::move(r));
  }
  // --- The one runtime every lane attaches to ----------------------------
  pipeline->runtime_ = std::make_unique<ParallelStreamingEngine>(options_);
  ParallelStreamingEngine& runtime = *pipeline->runtime_;
  plan.shard_count = runtime.shard_count();
  const size_t merge_shards = options_.exchange.shard_count > 0
                                  ? options_.exchange.shard_count
                                  : plan.shard_count;
  for (const ResolvedCross& r : resolved) {
    bool found = false;
    for (PipelinePlan::CrossGroupPlan& g : plan.cross_groups) {
      if (g.key_id == r.key_id) {
        ++g.query_count;
        found = true;
        break;
      }
    }
    if (!found) {
      PipelinePlan::CrossGroupPlan g;
      g.key_id = r.key_id;
      g.query_count = 1;
      g.merge_shards = merge_shards;
      plan.cross_groups.push_back(std::move(g));
    }
  }

  // --- Plain queries and raw cross lane-groups --------------------------
  // The runtime hands out indices in registration order, so a handle's
  // registration index is its runtime query index.
  for (PlainDecl& decl : plain_) {
    PLDP_RETURN_IF_ERROR(runtime
                             .AddQuery(std::move(decl.pattern), decl.window,
                                       std::move(decl.callback))
                             .status());
  }
  for (size_t i = 0; i < cross_.size(); ++i) {
    PLDP_RETURN_IF_ERROR(
        runtime
            .AddCrossQuery(std::move(cross_[i].pattern), cross_[i].window,
                           resolved[i].key_id, resolved[i].fn,
                           /*forward_raw_events=*/true,
                           std::move(cross_[i].callback))
            .status());
  }

  // --- Private lane: sinks on the same shards -----------------------------
  if (has_private) {
    pipeline->private_lane_ =
        std::make_unique<PrivateLane>(window_size_, window_origin_, seed_);
    PrivateLane& lane = *pipeline->private_lane_;
    for (const std::string& name : event_type_names_) {
      (void)lane.InternEventType(name);
    }
    lane.SetAlpha(alpha_);
    if (!history_.empty()) lane.SetHistory(history_);
    for (const Pattern& pattern : private_patterns_) {
      PLDP_RETURN_IF_ERROR(lane.RegisterPrivatePattern(pattern));
    }
    for (const PrivateDecl& decl : private_queries_) {
      PLDP_ASSIGN_OR_RETURN(QueryId id,
                            lane.RegisterTargetQuery(decl.name, decl.pattern));
      pipeline->private_map_.push_back(id);
    }
    PLDP_RETURN_IF_ERROR(lane.Attach(&runtime, mechanism_factory_, epsilon_));
    for (const PrivateCrossDecl& decl : private_cross_) {
      PLDP_ASSIGN_OR_RETURN(size_t index,
                            lane.AddCrossQuery(decl.pattern, decl.window));
      pipeline->private_cross_map_.push_back(index);
    }
  }

  if (obs::MetricsRegistry* registry = pipeline->metrics_.get()) {
    PLDP_RETURN_IF_ERROR(runtime.EnableMetrics(registry));
    if (has_private) pipeline->private_lane_->EnableMetrics(registry);
  }
  PLDP_RETURN_IF_ERROR(runtime.Start());

  // --- Pipeline-level instruments -----------------------------------------
  if (obs::MetricsRegistry* registry = pipeline->metrics_.get()) {
    const Pipeline* p = pipeline.get();
    registry->AddCounter("pldp_pipeline_events_ingested_total",
                         "Events accepted by Pipeline::OnEvent/OnEventBatch",
                         {}, [p] { return p->events_processed(); });
    registry->AddGauge(
        "pldp_intern_attr_entries",
        "Interned attribute names (process-wide AttrNames table)", {},
        [] { return AttrNames().size(); });
    registry->AddGauge("pldp_intern_attr_budget",
                       "Entry cap of the AttrNames intern table", {},
                       [] { return AttrNames().budget(); });
    registry->AddGauge(
        "pldp_intern_symbol_entries",
        "Interned string payloads (process-wide SymbolNames table)", {},
        [] { return SymbolNames().size(); });
    registry->AddGauge("pldp_intern_symbol_budget",
                       "Entry cap of the SymbolNames intern table", {},
                       [] { return SymbolNames().budget(); });
  }

  return pipeline;
}

// ---------------------------------------------------------------------------
// Pipeline

Pipeline::~Pipeline() { (void)Stop(); }

Status Pipeline::OnEvent(const Event& event) {
  return OnEventBatch(EventSpan(&event, 1));
}

Status Pipeline::OnEventBatch(EventSpan events) {
  PLDP_RETURN_IF_ERROR(runtime_->OnEventBatch(events));
  // order: relaxed; standalone telemetry counter, readers tolerate lag.
  events_ingested_.fetch_add(events.size(), std::memory_order_relaxed);
  return Status::OK();
}

Status Pipeline::OnEnd() { return FinishInternal(); }

Status Pipeline::Drain() {
  // A private-only pipeline has no plain/cross lane to drain: its barrier
  // is Finish(), and closed-loop callers (perfbench's `private` workload)
  // rely on this call not serializing ingest against the publishers.
  if (plan_.plain_queries == 0 && plan_.cross_groups.empty()) {
    return Status::OK();
  }
  return runtime_->Drain();
}

Status Pipeline::FinishInternal() {
  // The runtime's Finish is one-shot and latched; it runs every private
  // publisher's Finalize on its own worker (forwarding the final views
  // through the exchange) and seals every lane-group; its barrier orders
  // every worker-side mutation before the reads below. FinalizeStatus only
  // collects the errors the publishers latched there.
  PLDP_RETURN_IF_ERROR(runtime_->Finish());
  return private_lane_ != nullptr ? private_lane_->FinalizeStatus()
                                  : Status::OK();
}

StatusOr<FinishedPipeline> Pipeline::Finish() {
  PLDP_RETURN_IF_ERROR(FinishInternal());
  return FinishedPipeline(this);
}

Status Pipeline::Stop() {
  // Null only while a failed Build() tears the half-built pipeline down.
  return runtime_ != nullptr ? runtime_->Stop() : Status::OK();
}

size_t Pipeline::events_processed() const {
  // order: relaxed; telemetry read, exactness not required mid-run.
  return static_cast<size_t>(
      events_ingested_.load(std::memory_order_relaxed));
}

uint64_t Pipeline::events_shed() const { return runtime_->events_shed(); }

SheddingStats Pipeline::shedding_stats() const {
  SheddingStats s;
  s.shed = events_shed();
  // order: relaxed; telemetry read, exactness not required mid-run.
  const uint64_t seen = events_ingested_.load(std::memory_order_relaxed);
  // events_ingested_ counts OnEvent acceptances (offered events); admitted
  // is what actually survived the overload policy.
  s.admitted = seen >= s.shed ? seen - s.shed : 0;
  return s;
}

obs::MetricsSnapshot Pipeline::MetricsSnapshot() const {
  return metrics_ != nullptr ? metrics_->Snapshot() : obs::MetricsSnapshot();
}

obs::PipelineHealth Pipeline::Health(
    const obs::HealthThresholds& thresholds) const {
  obs::PipelineHealth health;
  runtime_->CollectHealth(&health);
  obs::FinalizeHealth(&health, thresholds);
  return health;
}

std::vector<ShardStats> Pipeline::ShardStatsSnapshot() const {
  return runtime_->ShardStatsSnapshot();
}

std::vector<ShardStats> Pipeline::CrossShardStatsSnapshot() const {
  return runtime_->CrossShardStatsSnapshot();
}

// ---------------------------------------------------------------------------
// FinishedPipeline

namespace {

/// The hard-error replacement for the old facades' unknown-name lookups: a
/// handle either proves a successful registration on exactly this
/// pipeline, or the lookup refuses loudly.
Status CheckHandle(uint64_t pipeline_uid, const internal::QueryHandleRep& rep,
                   const char* kind) {
  if (rep.builder_uid != pipeline_uid) {
    return Status::InvalidArgument(std::string(kind) +
                                   " handle does not belong to this pipeline");
  }
  if (!rep.valid()) {
    return Status::InvalidArgument(
        std::string(kind) +
        " handle is invalid (its registration failed; Build() reported the "
        "error)");
  }
  return Status::OK();
}

}  // namespace

StatusOr<std::vector<Timestamp>> FinishedPipeline::Detections(
    const QueryHandle& handle) const {
  PLDP_RETURN_IF_ERROR(
      CheckHandle(pipeline_->builder_uid_, handle.rep_, "query"));
  return pipeline_->runtime_->DetectionsOf(handle.rep_.index);
}

StatusOr<std::vector<Timestamp>> FinishedPipeline::Detections(
    const CrossQueryHandle& handle) const {
  PLDP_RETURN_IF_ERROR(
      CheckHandle(pipeline_->builder_uid_, handle.rep_, "cross query"));
  return pipeline_->runtime_->CrossDetectionsOf(handle.rep_.index);
}

StatusOr<std::vector<Timestamp>> FinishedPipeline::Detections(
    const PrivateCrossQueryHandle& handle) const {
  PLDP_RETURN_IF_ERROR(CheckHandle(pipeline_->builder_uid_, handle.rep_,
                                   "private cross query"));
  return pipeline_->runtime_->CrossDetectionsOf(
      pipeline_->private_cross_map_[handle.rep_.index]);
}

std::vector<StreamId> FinishedPipeline::Subjects() const {
  if (pipeline_->private_lane_ == nullptr) return {};
  return pipeline_->private_lane_->SubjectIds();
}

StatusOr<AnswerSeries> FinishedPipeline::AnswersOf(
    const PrivateQueryHandle& handle, StreamId subject) const {
  PLDP_RETURN_IF_ERROR(
      CheckHandle(pipeline_->builder_uid_, handle.rep_, "private query"));
  PLDP_ASSIGN_OR_RETURN(const SubjectResults* results,
                        pipeline_->private_lane_->ResultsViewFor(subject));
  const QueryId id = pipeline_->private_map_[handle.rep_.index];
  if (id >= results->answers.size()) {
    return Status::Internal("private query id out of range");
  }
  return results->answers[id];
}

size_t FinishedPipeline::total_windows() const {
  if (pipeline_->private_lane_ == nullptr) return 0;
  return pipeline_->private_lane_->total_windows();
}

size_t FinishedPipeline::total_cross_detections() const {
  return pipeline_->runtime_->total_cross_detections();
}

size_t FinishedPipeline::events_processed() const {
  return pipeline_->events_processed();
}

}  // namespace pldp
