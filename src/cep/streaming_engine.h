// Copyright 2026 The PLDP Authors.
//
// Online CEP engine: the production-style counterpart to the window-batch
// evaluation path. It subscribes to a stream replay (stream/replay.h) and
// runs one incremental matcher per registered query, emitting detections
// the moment they complete — no window materialization.
//
// Dispatch is type-indexed: `AddQuery` files each query under every
// distinct event type its pattern names, and `OnEvent` steps only the
// matchers listed under the event's type. A matcher is a no-op for a type
// outside its pattern, so this is observably identical to stepping every
// matcher on every event (pinned by tests/streaming_engine_index_test.cc):
// per event, the queries that can fire are visited in ascending query
// index, each exactly once, and callbacks fire in that order.
//
// The window-batch engine (engine.h) is what the paper's evaluation uses
// (per-window binary answers); this engine exists because a deployed
// trusted CEP middleware ingests events online. A property test
// (tests/streaming_engine_test.cc) pins the equivalence of the two paths
// on tumbling windows.
//
// DEPRECATED as a user-facing facade: new serving code should declare its
// queries through `PipelineBuilder` (api/pipeline_builder.h). This class
// is the engine every runtime `Shard` and `MergeShard` runs, and the
// sequential reference the equivalence suites compare the runtime against.

#ifndef PLDP_CEP_STREAMING_ENGINE_H_
#define PLDP_CEP_STREAMING_ENGINE_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "cep/matcher.h"
#include "cep/pattern.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "stream/replay.h"

namespace pldp {

/// A detection emitted by the streaming engine.
struct StreamingDetection {
  /// Which registered query fired.
  size_t query_index = 0;
  /// When the completing event arrived.
  Timestamp at = 0;
};

/// Callback invoked on every detection (optional).
using DetectionCallback = std::function<void(const StreamingDetection&)>;

/// Event-at-a-time CEP engine.
class StreamingCepEngine : public StreamSubscriber {
 public:
  StreamingCepEngine() = default;

  /// Registers a continuous query: detect `pattern` with all elements within
  /// `window` time units (<= 0: unbounded). Returns the query index.
  /// Updates the type index in place (O(index size) per call); queries may
  /// be added after events have flowed.
  StatusOr<size_t> AddQuery(Pattern pattern, Timestamp window);

  /// Registers a detection callback (called synchronously from OnEvent).
  void SetCallback(DetectionCallback callback) {
    callback_ = std::move(callback);
  }

  size_t query_count() const { return matchers_.size(); }

  /// Detections of one query so far (timestamps of completion).
  StatusOr<std::vector<Timestamp>> DetectionsOf(size_t query_index) const;

  /// Total number of detections across queries.
  size_t total_detections() const { return total_detections_; }

  /// Number of events ingested.
  size_t events_processed() const { return events_processed_; }

  /// Sorted distinct union of the event types any registered pattern
  /// references: the keys of the type index. An event whose type is absent
  /// from this set steps no matcher.
  const std::vector<EventTypeId>& RelevantEventTypes() const {
    return types_;
  }

  // StreamSubscriber:
  Status OnEvent(const Event& event) override;

 private:
  static constexpr uint32_t kNoSlot = UINT32_MAX;

  /// Index slot of `type` (its position in `types_`), or kNoSlot.
  PLDP_HOT uint32_t SlotOf(EventTypeId type) const {
    auto it = std::lower_bound(types_.begin(), types_.end(), type);
    return it != types_.end() && *it == type
               ? static_cast<uint32_t>(it - types_.begin())
               : kNoSlot;
  }

  /// Files query `q` (the newest) under `type` unless already filed there,
  /// opening a slot if needed.
  void IndexQuery(EventTypeId type, uint32_t q);

  std::vector<std::unique_ptr<IncrementalMatcher>> matchers_;
  // Type index in CSR form. Slot s holds type types_[s]; the queries whose
  // pattern names it are query_ids_[offsets_[s] .. offsets_[s + 1]), in
  // ascending order, each once. SlotOf binary-searches types_, so no
  // table is sized by the largest type id (perfbench registers 1u << 30).
  std::vector<EventTypeId> types_;  // sorted, distinct
  std::vector<uint32_t> offsets_{0};
  std::vector<uint32_t> query_ids_;
  DetectionCallback callback_;
  size_t total_detections_ = 0;
  size_t events_processed_ = 0;
};

}  // namespace pldp

#endif  // PLDP_CEP_STREAMING_ENGINE_H_
