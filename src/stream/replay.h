// Copyright 2026 The PLDP Authors.
//
// Online replay of finite streams.
//
// The CEP engine consumes events one at a time, as they would arrive from
// data subjects. `StreamReplayer` drives that: it feeds a finite
// `EventStream` to any number of subscribers in temporal order, optionally
// batched by timestamp (all events of one tick delivered before the tick
// boundary callback fires).

#ifndef PLDP_STREAM_REPLAY_H_
#define PLDP_STREAM_REPLAY_H_

#include <functional>
#include <vector>

#include "common/status.h"
#include "stream/event_stream.h"

namespace pldp {

/// Receives replayed events. Implementations: the CEP engine, stream-DP
/// baseline mechanisms, statistics collectors.
class StreamSubscriber {
 public:
  virtual ~StreamSubscriber() = default;

  /// Called once per event, in temporal order.
  virtual Status OnEvent(const Event& event) = 0;

  /// Bulk delivery: a contiguous run of events in temporal order,
  /// equivalent to calling OnEvent on each (the default does exactly that).
  /// Subscribers with a cheaper bulk path (ParallelStreamingEngine) override
  /// this to amortize per-event synchronization.
  virtual Status OnEventBatch(EventSpan events) {
    for (const Event& e : events) PLDP_RETURN_IF_ERROR(OnEvent(e));
    return Status::OK();
  }

  /// Called after all events with timestamp <= tick have been delivered and
  /// before any event with a later timestamp. Default: no-op.
  virtual Status OnTick(Timestamp /*tick*/) { return Status::OK(); }

  /// Called once after the final event. Default: no-op.
  virtual Status OnEnd() { return Status::OK(); }
};

/// How StreamReplayer::Run hands events to subscribers.
enum class ReplayMode {
  /// One OnEvent call per event (the historical default).
  kPerEvent,
  /// One OnEventBatch call per timestamp tick (all events of the tick in a
  /// single span). Semantically identical for subscribers that keep the
  /// default OnEventBatch; much cheaper for bulk-aware subscribers.
  kBatchPerTick,
};

/// Replays a finite stream into subscribers.
class StreamReplayer {
 public:
  StreamReplayer() = default;

  /// Registers a subscriber (not owned; must outlive Run()).
  void Subscribe(StreamSubscriber* subscriber);

  size_t subscriber_count() const { return subscribers_.size(); }

  /// Delivers every event of `stream` to every subscriber in order, firing
  /// OnTick at each timestamp change and OnEnd at the end. Returns the
  /// first non-OK status from any callback. `mode` selects per-event or
  /// per-tick-batch delivery (see ReplayMode).
  ///
  /// End-of-stream always propagates: even when an OnEvent/OnTick error
  /// aborts the replay early, every subscriber still receives OnEnd before
  /// Run returns — subscribers with worker threads (the sharded runtime)
  /// rely on that drain barrier to leave no events in flight. The replay
  /// error takes precedence over any OnEnd error in the returned status.
  Status Run(const EventStream& stream,
             ReplayMode mode = ReplayMode::kPerEvent);

 private:
  Status RunEvents(const EventStream& stream, ReplayMode mode);

  std::vector<StreamSubscriber*> subscribers_;
};

/// Adapts a lambda to StreamSubscriber for tests and examples.
class CallbackSubscriber : public StreamSubscriber {
 public:
  explicit CallbackSubscriber(std::function<Status(const Event&)> on_event)
      : on_event_(std::move(on_event)) {}

  Status OnEvent(const Event& event) override { return on_event_(event); }

 private:
  std::function<Status(const Event&)> on_event_;
};

}  // namespace pldp

#endif  // PLDP_STREAM_REPLAY_H_
