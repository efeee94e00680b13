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
  /// Updates the type index in place (O(index size) per call, plus a rehash
  /// when the hash table doubles); queries may be added after events have
  /// flowed.
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
  /// references: the keys of the type index, copied out of the hash table.
  /// An event whose type is absent from this set steps no matcher.
  std::vector<EventTypeId> RelevantEventTypes() const;

  /// Number of buckets in the type index's hash table: the smallest power
  /// of two, at least kMinIndexBuckets, that keeps the load at most 1/2.
  size_t index_buckets() const { return table_.size(); }

  /// Bucket where the probe for `type` starts in a table of `buckets`
  /// buckets (a power of two): Fibonacci multiply-shift hashing (Knuth,
  /// TAOCP vol. 3, 6.4): the top log2(buckets) bits of type * 2^64/phi,
  /// mod 2^64.
  static size_t HomeBucket(EventTypeId type, size_t buckets) {
    return HashBucket(type, ShiftFor(buckets));
  }

  static constexpr size_t kMinIndexBuckets = 8;  // one 64-byte line

  // StreamSubscriber:
  Status OnEvent(const Event& event) override;

 private:
  static constexpr uint32_t kNoSlot = UINT32_MAX;

  /// One hash-table bucket: a type and its index slot, together, so a
  /// probe reads one cache line. Empty buckets hold kNoSlot.
  struct Bucket {
    EventTypeId type = 0;
    uint32_t slot = kNoSlot;
  };

  static unsigned ShiftFor(size_t buckets) {
    return 64 - static_cast<unsigned>(__builtin_ctzll(buckets));
  }

  PLDP_HOT static size_t HashBucket(EventTypeId type, unsigned shift) {
    return static_cast<size_t>((uint64_t{type} * 0x9E3779B97F4A7C15u) >>
                               shift);
  }

  /// Index slot of `type`, or kNoSlot: linear probing from the home bucket
  /// up to `type`'s bucket or the first empty one (the load is at most
  /// 1/2, so one always comes). An empty bucket answers kNoSlot whatever
  /// its type field holds, so no type id is reserved as a marker.
  PLDP_HOT uint32_t SlotOf(EventTypeId type) const {
    const size_t mask = table_.size() - 1;
    for (size_t b = HashBucket(type, shift_);; b = (b + 1) & mask) {
      const Bucket& bucket = table_[b];
      if (bucket.type == type || bucket.slot == kNoSlot) return bucket.slot;
    }
  }

  /// Files query `q` (the newest) under `type` unless already filed there,
  /// opening a slot if needed.
  void IndexQuery(EventTypeId type, uint32_t q);

  /// Puts (type, slot) into the first empty bucket of its probe sequence.
  void InsertBucket(EventTypeId type, uint32_t slot);

  std::vector<std::unique_ptr<IncrementalMatcher>> matchers_;
  // Type index in CSR form. Slots are given in registration order; the
  // queries whose pattern names slot s's type are
  // query_ids_[offsets_[s] .. offsets_[s + 1]), in ascending order, each
  // once. A type finds its slot through table_, an open-addressing hash
  // table with linear probing: a new type is appended as the next slot and
  // inserted in place, and the table doubles (rehashing every type) only
  // when the load passes 1/2. Its size follows the number of types, never
  // the largest type id (perfbench registers 1u << 30).
  std::vector<Bucket> table_ = std::vector<Bucket>(kMinIndexBuckets);
  unsigned shift_ = ShiftFor(kMinIndexBuckets);
  std::vector<uint32_t> offsets_{0};
  std::vector<uint32_t> query_ids_;
  DetectionCallback callback_;
  size_t total_detections_ = 0;
  size_t events_processed_ = 0;
};

}  // namespace pldp

#endif  // PLDP_CEP_STREAMING_ENGINE_H_
