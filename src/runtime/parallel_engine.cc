// Copyright 2026 The PLDP Authors.

#include "runtime/parallel_engine.h"

#include <algorithm>
#include <cstdint>
#include <string>
#include <thread>
#include <utility>

#include "runtime/affinity.h"

namespace pldp {
namespace {

size_t ResolveShardCount(size_t requested) {
  if (requested > 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<size_t>(hw);
}

// How often one-element ingest calls (per-event callers) refresh every
// shard's producer floor; amortizes the O(shards) stores and doorbell
// rings.
constexpr uint64_t kProducerFloorPeriod = 1024;

}  // namespace

ParallelStreamingEngine::ParallelStreamingEngine(ParallelEngineOptions options)
    : router_(ResolveShardCount(options.shard_count)),
      exchange_options_(options.exchange),
      overload_options_(options.overload),
      pin_threads_(options.pin_threads),
      affinity_cores_(options.affinity_cores) {
  const size_t n = router_.shard_count();

  shards_.reserve(n);
  command_tokens_.resize(n);
  for (size_t i = 0; i < n; ++i) {
    shards_.push_back(std::make_unique<Shard>(i, options.queue_capacity));
  }

  if (overload_options_.policy != OverloadPolicy::kBlock) {
    // The shedding policies interpose the admission layer; the blocking
    // default keeps the historic direct-push path with zero overhead.
    std::vector<Shard*> raw;
    raw.reserve(shards_.size());
    for (auto& shard : shards_) raw.push_back(shard.get());
    admission_ = std::make_unique<AdmissionQueue>(
        overload_options_, std::move(raw), &events_ingested_);
  }
}

ParallelStreamingEngine::~ParallelStreamingEngine() { (void)Stop(); }

StatusOr<size_t> ParallelStreamingEngine::AddQuery(
    Pattern pattern, Timestamp window,
    std::function<void(Timestamp)> callback) {
  if (running_) {
    return Status::FailedPrecondition(
        "ParallelStreamingEngine::AddQuery must precede Start()");
  }
  size_t index = 0;
  for (auto& shard : shards_) {
    StatusOr<size_t> result = shard->AddQuery(pattern, window, callback);
    if (!result.ok()) return result;
    index = result.value();
  }
  query_count_ = index + 1;
  return index;
}

StatusOr<size_t> ParallelStreamingEngine::GetOrCreateGroup(
    const std::string& key_id, ShardKeyFn key_fn, bool forward_raw_events) {
  for (size_t g = 0; g < groups_.size(); ++g) {
    if (groups_[g].key_id == key_id &&
        groups_[g].forward_raw_events == forward_raw_events) {
      return g;
    }
  }
  if (running_) {
    return Status::FailedPrecondition(
        "exchange lane-groups must be created before Start()");
  }
  if (!key_fn) {
    return Status::InvalidArgument("correlation key_fn must not be null");
  }
  const size_t n1 = shards_.size();
  const size_t n2 = exchange_options_.shard_count > 0
                        ? exchange_options_.shard_count
                        : n1;
  ExchangeGroup group;
  group.key_id = key_id;
  group.forward_raw_events = forward_raw_events;
  group.fabric = std::make_unique<ExchangeFabric>(
      n1, n2, exchange_options_.lane_capacity);
  group.merge_shards.reserve(n2);
  for (size_t c = 0; c < n2; ++c) {
    group.merge_shards.push_back(
        std::make_unique<MergeShard>(c, group.fabric->Column(c)));
  }
  for (size_t i = 0; i < n1; ++i) {
    auto emitter = std::make_unique<ExchangeEmitter>(
        group.fabric->Row(i), key_fn, group.fabric.get());
    PLDP_RETURN_IF_ERROR(
        shards_[i]->AddExchange(std::move(emitter), forward_raw_events));
  }
  groups_.push_back(std::move(group));
  return groups_.size() - 1;
}

StatusOr<size_t> ParallelStreamingEngine::AddCrossQuery(
    Pattern pattern, Timestamp window, const std::string& key_id,
    ShardKeyFn key_fn, bool forward_raw_events,
    std::function<void(Timestamp)> callback) {
  if (running_) {
    return Status::FailedPrecondition(
        "ParallelStreamingEngine::AddCrossQuery must precede Start()");
  }
  PLDP_ASSIGN_OR_RETURN(
      size_t group_index,
      GetOrCreateGroup(key_id, std::move(key_fn), forward_raw_events));
  ExchangeGroup& group = groups_[group_index];
  size_t local = 0;
  for (auto& merge_shard : group.merge_shards) {
    StatusOr<size_t> result =
        merge_shard->AddQuery(pattern, window, callback);
    if (!result.ok()) return result;
    local = result.value();
  }
  cross_index_.emplace_back(group_index, local);
  return cross_index_.size() - 1;
}

Status ParallelStreamingEngine::SetShardSink(
    size_t shard_index, std::unique_ptr<ShardEventSink> sink) {
  if (shard_index >= shards_.size()) {
    return Status::OutOfRange("unknown shard index " +
                              std::to_string(shard_index));
  }
  return shards_[shard_index]->SetEventSink(std::move(sink));
}

Status ParallelStreamingEngine::EnableMetrics(
    obs::MetricsRegistry* registry) {
  if (running_) {
    return Status::FailedPrecondition(
        "EnableMetrics must precede Start()");
  }
  if (registry == nullptr) {
    return Status::InvalidArgument("registry must not be null");
  }
  if (metrics_ != nullptr) {
    return Status::FailedPrecondition("metrics already enabled");
  }
  metrics_ = registry;

  // Counts and depths are the stages' own atomics, read at scrape time;
  // only the histograms are bound into the stages for hot-path Records.
  for (size_t i = 0; i < shards_.size(); ++i) {
    const Shard* shard = shards_[i].get();
    const obs::MetricLabels labels = {{"shard", std::to_string(i)}};
    registry->AddCounter("pldp_shard_events_total",
                         "Events popped and processed by a shard", labels,
                         [shard] { return shard->events_processed(); });
    registry->AddCounter(
        "pldp_shard_backpressure_waits_total",
        "Full-queue waits a producer spent pushing to a shard", labels,
        [shard] { return shard->backpressure_waits(); });
    obs::ShardInstruments ins;
    ins.batch_size = registry->AddHistogram(
        "pldp_shard_batch_size", "Events per worker pop burst", labels);
    ins.process_latency_ns = registry->AddHistogram(
        "pldp_shard_process_latency_ns",
        "Per-event shard processing latency (engine + sink + exchange), ns",
        labels);
    PLDP_RETURN_IF_ERROR(shards_[i]->SetInstruments(ins));
    registry->AddCounter("pldp_shard_parks_total",
                         "Times an idle shard worker parked on its doorbell",
                         labels, [shard] { return shard->parks(); });
    registry->AddCounter(
        "pldp_shard_wakes_total",
        "Slow-path doorbell notifies that woke a parked shard worker", labels,
        [shard] { return shard->wakes(); });
    registry->AddCounter(
        "pldp_shard_idle_yields_total",
        "Yields an idle shard worker spent between spinning and parking",
        labels, [shard] { return shard->idle_yields(); });
    registry->AddGauge("pldp_shard_queue_depth",
                       "Instantaneous shard input-queue depth", labels,
                       [shard] { return shard->queue_depth(); });
    if (const AdmissionQueue* admission = admission_.get()) {
      registry->AddCounter(
          "pldp_shed_events_total",
          "Events deliberately dropped by the overload policy",
          {{"shard", std::to_string(i)},
           {"policy", OverloadPolicyName(overload_options_.policy)}},
          [admission, i] { return admission->shed(i); });
    }
  }

  for (size_t g = 0; g < groups_.size(); ++g) {
    const ExchangeGroup& group = groups_[g];
    const std::string lane = group.forward_raw_events ? "plain" : "private";
    for (size_t p = 0; p < shards_.size(); ++p) {
      // Shard hook index g is groups_[g]'s emitter (see header invariant).
      const ExchangeEmitter* emitter = shards_[p]->exchange_emitter(g);
      const obs::MetricLabels labels = {{"lane", lane},
                                        {"group", group.key_id},
                                        {"producer", std::to_string(p)}};
      registry->AddCounter(
          "pldp_exchange_forwarded_total",
          "Events a producer emitted into an exchange lane-group", labels,
          [emitter] { return emitter->stats().forwarded; });
      registry->AddCounter(
          "pldp_exchange_watermarks_total",
          "Watermark broadcasts on a producer's exchange row", labels,
          [emitter] { return emitter->stats().watermarks; });
      registry->AddCounter(
          "pldp_exchange_backpressure_waits_total",
          "Full-lane waits a producer spent emitting downstream", labels,
          [emitter] { return emitter->stats().backpressure_waits; });
      registry->AddCounter(
          "pldp_exchange_credit_exhausted_waits_total",
          "Full-lane waits a producer spent on a merge shard (lane slots "
          "are the credits)",
          labels, [emitter] { return emitter->stats().backpressure_waits; });
      registry->AddGauge(
          "pldp_exchange_lane_depth",
          "Instantaneous occupancy of a producer's exchange row", labels,
          [emitter] { return emitter->RowDepth(); });
    }
    for (size_t c = 0; c < group.merge_shards.size(); ++c) {
      MergeShard* merge = group.merge_shards[c].get();
      const obs::MetricLabels labels = {{"lane", lane},
                                        {"group", group.key_id},
                                        {"shard", std::to_string(c)}};
      registry->AddCounter(
          "pldp_merge_events_total",
          "Events a merge shard released to its engine in global order",
          labels, [merge] { return merge->events_merged(); });
      obs::MergeInstruments ins;
      ins.merge_latency_ns = registry->AddHistogram(
          "pldp_merge_latency_ns",
          "Per-released-event merge+match latency, ns", labels);
      PLDP_RETURN_IF_ERROR(merge->SetInstruments(ins));
      registry->AddCounter(
          "pldp_merge_parks_total",
          "Times an idle merge-shard worker parked on its doorbell", labels,
          [merge] { return merge->parks(); });
      registry->AddCounter(
          "pldp_merge_wakes_total",
          "Slow-path doorbell notifies that woke a parked merge worker",
          labels, [merge] { return merge->wakes(); });
      registry->AddCounter(
          "pldp_merge_idle_yields_total",
          "Yields an idle merge-shard worker spent between spinning and "
          "parking",
          labels, [merge] { return merge->idle_yields(); });
      registry->AddGauge(
          "pldp_merge_reorder_depth",
          "Instantaneous items waiting in a merge shard's input lanes",
          labels, [merge] { return merge->input_depth(); });
      registry->AddGauge(
          "pldp_merge_watermark_lag",
          "Ingest frontier minus a merge shard's safe watermark (events)",
          labels, [this, merge] { return WatermarkLag(*merge); });
      registry->AddGauge(
          "pldp_merge_reorder_capacity",
          "Total capacity of a merge shard's input lanes", labels,
          [merge] { return merge->input_capacity(); });
    }
  }
  return Status::OK();
}

uint64_t ParallelStreamingEngine::WatermarkLag(const MergeShard& merge) const {
  const uint64_t frontier = IngestFrontier();
  const uint64_t safe = merge.safe_primary();
  return safe >= frontier ? 0 : frontier - safe;
}

void ParallelStreamingEngine::CollectHealth(
    obs::PipelineHealth* health) const {
  for (size_t i = 0; i < shards_.size(); ++i) {
    obs::PipelineHealth::ShardRow row;
    row.shard = i;
    row.queue_depth = shards_[i]->queue_depth();
    row.queue_capacity = shards_[i]->queue_capacity();
    row.saturation = row.queue_capacity == 0
                         ? 0.0
                         : static_cast<double>(row.queue_depth) /
                               static_cast<double>(row.queue_capacity);
    health->shards.push_back(std::move(row));
  }
  for (const auto& group : groups_) {
    for (size_t c = 0; c < group.merge_shards.size(); ++c) {
      const MergeShard& merge = *group.merge_shards[c];
      obs::PipelineHealth::GroupRow row;
      row.lane = group.forward_raw_events ? "plain" : "private";
      row.group = group.key_id;
      row.merge_shard = c;
      row.watermark_lag = WatermarkLag(merge);
      row.reorder_depth = merge.input_depth();
      row.reorder_capacity = merge.input_capacity();
      health->groups.push_back(std::move(row));
    }
  }
}

Status ParallelStreamingEngine::Start() {
  if (running_) {
    return Status::FailedPrecondition("engine already running");
  }
  if (pin_threads_) {
    // Round-robin core assignment, stage-1 shards first so they land on
    // distinct cores before the merge shards start sharing. Purely a
    // placement hint: PinCurrentThreadToCore degrades to a no-op on
    // unsupported platforms, and oversubscription just wraps around.
    size_t cores = AvailableCoreCount();
    if (affinity_cores_ > 0 && affinity_cores_ < cores) {
      cores = affinity_cores_;
    }
    size_t next_core = 0;
    for (auto& shard : shards_) {
      shard->SetAffinityCore(static_cast<int>(next_core++ % cores));
    }
    for (auto& group : groups_) {
      for (auto& merge_shard : group.merge_shards) {
        merge_shard->SetAffinityCore(static_cast<int>(next_core++ % cores));
      }
    }
  }
  // Consumers before producers: a stage-1 worker may block on a full lane
  // the moment it starts, and only a live merge shard ever frees one.
  for (auto& group : groups_) {
    for (auto& merge_shard : group.merge_shards) {
      Status s = merge_shard->Start();
      if (!s.ok()) return s;
    }
  }
  for (auto& shard : shards_) {
    Status s = shard->Start();
    if (!s.ok()) return s;
  }
  // order: relaxed; the finished_ latch is only touched on the
  // externally-serialized orchestration/ingest roles (role asserts) —
  // the atomic guards torn reads from stats paths, not a handoff.
  finished_.store(false, std::memory_order_relaxed);
  running_ = true;
  return Status::OK();
}

Status ParallelStreamingEngine::Drain() {
  if (!running_) return Status::OK();
  return Barrier(/*finish=*/false);
}

Status ParallelStreamingEngine::Barrier(bool finish) {
  if (admission_ != nullptr) {
    // Parked events are part of the ingested stream; the barrier is only a
    // barrier once they have landed in their shard queues.
    PLDP_RETURN_IF_ERROR(admission_->FlushBlocking());
  }
  const uint64_t bound = IngestFrontier();
  // Vouch for everything ingested before the shards drain: a worker may
  // wait on a full exchange lane that only an idle peer's watermark past
  // its events can free (per-event ingest publishes the floor rarely).
  PublishProducerFloor(bound);
  for (auto& shard : shards_) {
    PLDP_RETURN_IF_ERROR(shard->Drain());
  }
  // A drain without an exchange is done here; finish still has every
  // sink's OnShardFinish to run.
  if (!finish && groups_.empty()) return Status::OK();
  // Two-phase barrier: every producer broadcasts a watermark asserting it
  // forwarded everything below `bound` it will ever see (finish: runs its
  // sink's finalize output, then seals its rows for good), then every
  // merge shard of every group is waited past that bound. Inherits Drain's
  // best-effort semantics when a producer keeps pushing concurrently.
  //
  // Post the command to EVERY shard before waiting on ANY ack.
  // Finalize-time emissions run against bounded lanes: shard A's sink
  // output may only become releasable — and its lane slots free — once
  // shard B's terminal watermark is in flight. Waiting for A's ack before
  // posting to B would deadlock under small lane capacities.
  for (size_t i = 0; i < shards_.size(); ++i) {
    PLDP_ASSIGN_OR_RETURN(command_tokens_[i],
                          finish ? shards_[i]->PostFinish(bound)
                                 : shards_[i]->PostFlushWatermark(bound));
  }
  for (size_t i = 0; i < shards_.size(); ++i) {
    PLDP_RETURN_IF_ERROR(shards_[i]->WaitCommandAck(command_tokens_[i]));
  }
  const uint64_t safe = finish ? kExchangeSeqEnd : bound;
  for (auto& group : groups_) {
    for (auto& merge_shard : group.merge_shards) {
      PLDP_RETURN_IF_ERROR(merge_shard->WaitSafe(safe));
    }
  }
  return Status::OK();
}

Status ParallelStreamingEngine::Finish() {
  // One-shot: a failed finish leaves the pipeline in an undefined terminal
  // state, so the first outcome — success or error — latches and is
  // re-returned forever (even after Stop) instead of a retry silently
  // reporting OK.
  // order: relaxed; see the Start() rationale on the finished_ latch.
  if (finished_.load(std::memory_order_relaxed)) return finish_status_;
  if (!running_) {
    return Status::FailedPrecondition("engine not running");
  }
  // Close the ingest gate before any worker finalizes: OnEvent after this
  // point is refused, so finalize-time output is really last.
  // order: relaxed; see the Start() rationale on the finished_ latch.
  finished_.store(true, std::memory_order_relaxed);
  finish_status_ = Barrier(/*finish=*/true);
  return finish_status_;
}

Status ParallelStreamingEngine::Stop() {
  if (!running_) return Status::OK();
  Status result = Status::OK();
  if (admission_ != nullptr) {
    // Land parked events before the shards go away; a shard racing into
    // stop makes this fail fast, which is the best Stop can do.
    Status s = admission_->FlushBlocking();
    if (result.ok() && !s.ok()) result = s;
  }
  // order: relaxed; see the Start() rationale on the finished_ latch.
  if (!groups_.empty() && !finished_.load(std::memory_order_relaxed)) {
    // Make sure stage-2 holds everything before the producers go away.
    result = Drain();
  }
  for (auto& shard : shards_) {
    Status s = shard->Stop();
    if (result.ok() && !s.ok()) result = s;
  }
  for (auto& group : groups_) {
    // Producers are joined; nothing can block on a lane anymore, and any
    // straggler Emit (there should be none) must fail fast.
    group.fabric->Abort();
    for (auto& merge_shard : group.merge_shards) {
      Status s = merge_shard->Stop();
      if (result.ok() && !s.ok()) result = s;
    }
  }
  running_ = false;
  return result;
}

Status ParallelStreamingEngine::OnEvent(const Event& event) {
  return OnEventBatch(EventSpan(&event, 1));
}

Status ParallelStreamingEngine::OnEventBatch(EventSpan events) {
  ingest_role_.Assert();
  if (!running_) {
    return Status::FailedPrecondition(
        "ParallelStreamingEngine ingest before Start()");
  }
  // order: relaxed; see the Start() rationale on the finished_ latch.
  if (finished_.load(std::memory_order_relaxed)) {
    return Status::FailedPrecondition("ingestion after Finish()");
  }
  if (events.empty()) return Status::OK();
  // Stamped from a local copy: this thread is next_seq_'s only writer and
  // stores it back once per batch (PublishIngested), not once per event.
  // order: relaxed; same-thread read of this thread's own stores.
  uint64_t seq = next_seq_.load(std::memory_order_relaxed);
  if (admission_ != nullptr) {
    // Per-event admission: the policies need the queue-full decision at
    // event granularity, so the in-place claim path does not apply.
    for (const Event& e : events) {
      const size_t target = router_.ShardOf(e);
      // Dropped pre-stamping: the sequence space stays gapless, so
      // shedding leaves the watermark protocol untouched.
      if (admission_->ShouldShedBeforeStamp(target, e)) continue;
      StampedEvent stamped;
      stamped.seq = seq++;
      stamped.event = e;
      // Queue full turns into park-or-shed instead of blocking; admitted
      // events are counted (via the shared counter) only when they land.
      (void)admission_->Offer(target, std::move(stamped));
    }
    admission_->Pump();
  } else {
    // One pass in stream order: route, stamp, and copy each event once,
    // straight into a claimed slot of its shard's ring.
    for (const Event& e : events) {
      Shard& shard = *shards_[router_.ShardOf(e)];
      StampedEvent* slot = shard.ClaimSlot();
      if (slot == nullptr) {
        // Ring full. Before waiting on this worker, make every event
        // stamped so far visible and vouch for it with the producer
        // floor: with an exchange, this worker's output may only be
        // released downstream once the other shards have processed their
        // share, or have broadcast watermarks past it.
        PublishIngested(seq, /*vouch=*/true);
        slot = shard.AwaitSlot();
        if (slot == nullptr) {
          return Status::FailedPrecondition("push after shard stop");
        }
      }
      slot->seq = seq++;
      slot->event = e;
    }
  }
  // Every stamped event is published here (or parked, which ClampFloor
  // covers), so the frontier is a safe floor. A multi-event batch always
  // vouches for it; one-element calls (per-event ingest) only every
  // kProducerFloorPeriod events, so a per-event caller does not ring
  // every shard's doorbell on every event.
  PublishIngested(seq,
                  events.size() > 1 || seq % kProducerFloorPeriod == 0);
  return Status::OK();
}

void ParallelStreamingEngine::PublishIngested(uint64_t frontier, bool vouch) {
  // With a floor to publish, each shard is rung once, after its floor: a
  // worker rung for its events could park before a separate floor ring
  // and wake twice per batch, each short park buying it a round of yields
  // (runtime/backoff.h).
  vouch = vouch && !groups_.empty();
  size_t published = 0;
  for (auto& shard : shards_) published += shard->Publish(/*ring=*/!vouch);
  // order: relaxed; standalone telemetry counter.
  events_ingested_.fetch_add(published, std::memory_order_relaxed);
  // order: release; a reader that acquires the frontier also sees the
  // pushes below it (the frontier never runs ahead of published slots).
  next_seq_.store(frontier, std::memory_order_release);
  if (vouch) PublishProducerFloor(frontier);
}

void ParallelStreamingEngine::PublishProducerFloor(uint64_t floor) {
  if (groups_.empty()) return;
  if (admission_ != nullptr) {
    // A parked event's sequence number must never fall below a published
    // floor — a late flush would then violate watermark monotonicity.
    floor = admission_->ClampFloor(floor);
  }
  for (auto& shard : shards_) {
    shard->NoteProducerFloor(floor);
    shard->Wake();
  }
}

size_t ParallelStreamingEngine::cross_shard_count() const {
  size_t total = 0;
  for (const auto& group : groups_) total += group.merge_shards.size();
  return total;
}

StatusOr<std::vector<Timestamp>> ParallelStreamingEngine::DetectionsOf(
    size_t query_index) const {
  // Validate at the facade so the error names the right index space (a
  // cross query index passed here must not silently alias a stage-1
  // query, nor the reverse).
  if (query_index >= query_count_) {
    return Status::OutOfRange(
        "unknown stage-1 query index " + std::to_string(query_index) +
        " (registered: " + std::to_string(query_count_) +
        "; cross queries live in their own index space — use "
        "CrossDetectionsOf)");
  }
  std::vector<Timestamp> merged;
  for (const auto& shard : shards_) {
    StatusOr<std::vector<Timestamp>> part =
        shard->engine().DetectionsOf(query_index);
    if (!part.ok()) return part.status();
    merged.insert(merged.end(), part.value().begin(), part.value().end());
  }
  // Per-shard vectors are in arrival order but shards interleave; sort into
  // the canonical multiset representation.
  std::sort(merged.begin(), merged.end());
  return merged;
}

StatusOr<std::vector<Timestamp>> ParallelStreamingEngine::CrossDetectionsOf(
    size_t cross_query_index) const {
  if (cross_query_index >= cross_index_.size()) {
    return Status::OutOfRange(
        "unknown cross query index " + std::to_string(cross_query_index) +
        " (registered: " + std::to_string(cross_index_.size()) + ")");
  }
  const auto [group_index, local_index] = cross_index_[cross_query_index];
  std::vector<Timestamp> merged;
  for (const auto& merge_shard : groups_[group_index].merge_shards) {
    StatusOr<std::vector<Timestamp>> part =
        merge_shard->engine().DetectionsOf(local_index);
    if (!part.ok()) return part.status();
    merged.insert(merged.end(), part.value().begin(), part.value().end());
  }
  std::sort(merged.begin(), merged.end());
  return merged;
}

size_t ParallelStreamingEngine::total_cross_detections() const {
  size_t total = 0;
  for (const auto& group : groups_) {
    for (const auto& merge_shard : group.merge_shards) {
      total += merge_shard->engine().total_detections();
    }
  }
  return total;
}

std::vector<ShardStats> ParallelStreamingEngine::ShardStatsSnapshot() const {
  std::vector<ShardStats> stats;
  stats.reserve(shards_.size());
  for (const auto& shard : shards_) stats.push_back(shard->stats());
  return stats;
}

uint64_t ParallelStreamingEngine::IngestFrontier() const {
  // order: acquire pairs with PublishIngested's release; a snapshot may
  // still lag — callers treat it as a monotonic hint.
  return next_seq_.load(std::memory_order_acquire);
}

std::vector<ShardStats> ParallelStreamingEngine::CrossShardStatsSnapshot()
    const {
  std::vector<ShardStats> stats;
  stats.reserve(cross_shard_count());
  for (const auto& group : groups_) {
    for (const auto& merge_shard : group.merge_shards) {
      stats.push_back(merge_shard->stats());
    }
  }
  return stats;
}

}  // namespace pldp
