// Copyright 2026 The PLDP Authors.

#include "core/private_lane.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "cep/correlation_key.h"

namespace pldp {

/// Adapts a SubjectViewPublisher to the shard worker's sink interface and
/// taps its protected views for the exchange: every published view is
/// flattened into presence events (one per present type, timestamped at
/// the window start, attributed to the subject) and emitted downstream.
/// Raw events never reach the emitter — only post-perturbation views do.
/// The first failed Emit (an aborted fabric) latches: no later view is
/// forwarded, and FinalizeStatus() returns it.
class PrivateLane::Sink final : public ShardEventSink {
 public:
  explicit Sink(SubjectPublisherOptions options)
      : publisher_(std::move(options)) {
    publisher_.SetViewCallback(
        [this](StreamId subject, const Window& window,
               const PublishedView& view) {
          ForwardView(subject, window, view);
        });
  }

  void OnShardEvent(const Event& event) override { publisher_.Absorb(event); }

  void AttachExchangeEmitter(ExchangeEmitter* emitter) override {
    emitter_ = emitter;
  }

  void OnShardFinish(uint64_t finish_seq) override {
    // Publisher finalization runs here, on the worker, so the final views
    // flow through the exchange before the terminal watermark closes the
    // lanes. Errors latch inside the publisher; FinalizeStatus() collects
    // them.
    finalizing_ = true;
    finish_seq_ = finish_seq;
    (void)publisher_.Finalize();
    finalizing_ = false;
  }

  SubjectViewPublisher* publisher() { return &publisher_; }

  /// The first Emit failure; read once the runtime's Finish returned.
  const Status& emit_status() const { return emit_status_; }

 private:
  void ForwardView(StreamId subject, const Window& window,
                   const PublishedView& view) {
    if (emitter_ == nullptr || !emit_status_.ok()) return;
    if (finalizing_) {
      // Finalize-time views share one trigger (the finish bound) across
      // all producers; sub-keys by subject keep the merged order globally
      // deterministic — ascending subject, matching a sequential
      // publisher's ordered Finalize — because subjects are disjoint
      // across shards.
      emitter_->BeginTrigger(finish_seq_,
                             static_cast<uint64_t>(subject) << 32);
    }
    for (size_t t = 0; t < view.presence.size(); ++t) {
      if (!view.presence[t]) continue;
      Status s = emitter_->Emit(
          Event(static_cast<EventTypeId>(t), window.start, subject));
      if (!s.ok()) {
        emit_status_ = std::move(s);
        return;
      }
    }
  }

  SubjectViewPublisher publisher_;
  ExchangeEmitter* emitter_ = nullptr;
  bool finalizing_ = false;
  uint64_t finish_seq_ = 0;
  Status emit_status_ = Status::OK();
};

PrivateLane::PrivateLane(Timestamp window_size, Timestamp window_origin,
                         uint64_t seed)
    : window_size_(window_size), window_origin_(window_origin), seed_(seed) {}

SubjectPublisherOptions PrivateLane::MakePublisherOptions() const {
  SubjectPublisherOptions opts;
  opts.context = setup_.BuildContext(epsilon_);
  opts.factory = factory_;
  opts.queries = setup_.queries();
  opts.window_size = window_size_;
  opts.window_origin = window_origin_;
  opts.seed = seed_;
  return opts;
}

Status PrivateLane::Attach(ParallelStreamingEngine* runtime,
                           MechanismFactory factory, double epsilon) {
  factory_ = std::move(factory);
  epsilon_ = epsilon;

  // Validate the mechanism configuration eagerly (like
  // PrivateCepEngine::Activate) instead of surfacing the error on the first
  // event of some shard.
  PLDP_ASSIGN_OR_RETURN(std::unique_ptr<PrivacyMechanism> probe, factory_());
  if (probe == nullptr) {
    return Status::InvalidArgument("factory returned a null mechanism");
  }
  PLDP_RETURN_IF_ERROR(probe->Initialize(setup_.BuildContext(epsilon_)));

  // Budget accounting: this activation spends each private pattern's
  // lifetime budget ε (sequential composition — a later re-activation
  // would need a fresh ledger).
  for (PatternId id : setup_.private_patterns()) {
    PLDP_RETURN_IF_ERROR(ledger_.Grant(id, epsilon_));
    PLDP_RETURN_IF_ERROR(ledger_.Charge(id, epsilon_, "service activation"));
  }

  runtime_ = runtime;
  for (size_t i = 0; i < runtime_->shard_count(); ++i) {
    auto sink = std::make_unique<Sink>(MakePublisherOptions());
    sinks_.push_back(sink.get());
    PLDP_RETURN_IF_ERROR(runtime_->SetShardSink(i, std::move(sink)));
  }
  return Status::OK();
}

StatusOr<size_t> PrivateLane::AddCrossQuery(Pattern pattern,
                                            Timestamp window) {
  if (runtime_ == nullptr) {
    return Status::FailedPrecondition("AddCrossQuery must follow Attach");
  }
  // Global key: all protected views meet on one merge shard, the
  // always-sound choice for multi-type cross patterns. Raw forwarding off:
  // only the sinks' protected views enter this lane-group.
  PLDP_ASSIGN_OR_RETURN(CorrelationKeyFn key,
                        MakeCorrelationKeyFn(CorrelationKeySpec::Global()));
  return runtime_->AddCrossQuery(std::move(pattern), window, "global",
                                 std::move(key),
                                 /*forward_raw_events=*/false);
}

void PrivateLane::EnableMetrics(obs::MetricsRegistry* registry) {
  for (size_t i = 0; i < sinks_.size(); ++i) {
    const SubjectViewPublisher* publisher = sinks_[i]->publisher();
    const std::string shard_label = std::to_string(i);
    registry->AddCounter(
        "pldp_private_windows_total",
        "Protected windows published by a shard's publisher",
        {{"lane", "private"}, {"shard", shard_label}},
        [publisher] { return publisher->total_windows(); });
    registry->AddGauge(
        "pldp_private_subjects",
        "Distinct data subjects with live state on a shard",
        {{"lane", "private"}, {"shard", shard_label}},
        [publisher] { return publisher->subject_count(); });
  }
  // The ledger is settled by Attach (one activation charge per pattern),
  // so both budget gauges are constants captured here.
  for (PatternId id : setup_.private_patterns()) {
    const std::string& name = setup_.patterns().Get(id).name();
    registry->AddGauge(
        "pldp_dp_budget_granted",
        "Lifetime privacy budget granted to a private pattern (epsilon)",
        {{"pattern", name}}, [granted = epsilon_] { return granted; });
    StatusOr<double> remaining = ledger_.Remaining(id);
    const double spent = remaining.ok() ? epsilon_ - remaining.value() : 0.0;
    registry->AddGauge(
        "pldp_dp_budget_spent",
        "Privacy budget charged against a private pattern (epsilon)",
        {{"pattern", name}}, [spent] { return spent; });
  }
}

Status PrivateLane::FinalizeStatus() {
  for (Sink* sink : sinks_) {
    // Already finalized on the worker; this just collects latched errors.
    PLDP_RETURN_IF_ERROR(sink->publisher()->Finalize());
    PLDP_RETURN_IF_ERROR(sink->emit_status());
  }
  return Status::OK();
}

std::vector<StreamId> PrivateLane::SubjectIds() const {
  std::vector<StreamId> ids;
  for (Sink* sink : sinks_) {
    const std::vector<StreamId> part = sink->publisher()->SubjectIds();
    ids.insert(ids.end(), part.begin(), part.end());
  }
  std::sort(ids.begin(), ids.end());  // publishers hold disjoint subjects
  return ids;
}

StatusOr<const SubjectResults*> PrivateLane::ResultsViewFor(
    StreamId subject) const {
  for (Sink* sink : sinks_) {
    const SubjectResults* results = sink->publisher()->ResultsFor(subject);
    if (results != nullptr) return results;
  }
  return Status::NotFound("subject never emitted an event");
}

size_t PrivateLane::total_windows() const {
  size_t total = 0;
  for (Sink* sink : sinks_) {
    total += sink->publisher()->total_windows();
  }
  return total;
}

}  // namespace pldp
