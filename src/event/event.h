// Copyright 2026 The PLDP Authors.
//
// The event model of the paper's Section III:
//
//   data stream S^D = (d_1, d_2, ...)    raw tuples from data subjects
//   event stream S^E = (e_1, e_2, ...)   tuples of interest, in temporal order
//
// `Event` represents both: a raw tuple is an event whose type is whatever
// the extraction step assigns. Events carry a timestamp, the id of the
// stream (data subject) that produced them, a type, and optional attributes.
//
// Memory layout (the zero-allocation data plane): attributes are keyed by
// interned `AttrId` (event/symbol_table.h) and stored in a small inline
// buffer of `kInlineAttrCapacity` slots. An event whose attributes fit the
// inline buffer and whose string payloads are interned symbols
// (`Value::Sym`) copies without touching the heap — the property the
// sharded runtime's steady state depends on (ingest copies an attributed
// event into its shard's attribute array, runtime/shard.h).
// Only events with more attributes spill to a heap-allocated vector, and
// only owned `kString` payloads allocate on copy.

#ifndef PLDP_EVENT_EVENT_H_
#define PLDP_EVENT_EVENT_H_

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "common/thread_annotations.h"
#include "event/event_type.h"
#include "event/symbol_table.h"
#include "event/value.h"

namespace pldp {

/// Logical time. The unit is dataset-defined (seconds for the taxi
/// simulator, window index for the synthetic generator).
using Timestamp = int64_t;

/// Identifies the originating data stream / data subject.
using StreamId = uint32_t;

inline constexpr StreamId kDefaultStream = 0;

/// One event (or raw data tuple) in a stream.
///
/// Events are value types: cheap to copy (allocation-free in the inline +
/// interned regime above), safely movable, and hashable by content where
/// needed.
class Event {
 public:
  /// Attribute slots held inline before spilling to the heap. Two covers
  /// every workload in the repo (taxi: cell + taxi id); growing it trades
  /// the shards' attribute-array memory for spill headroom.
  static constexpr size_t kInlineAttrCapacity = 2;

  /// One attribute: an interned name id and its value, in insertion order.
  struct Attr {
    AttrId id = kInvalidAttrId;
    Value value;

    bool operator==(const Attr& other) const {
      return id == other.id && value == other.value;
    }
  };

  Event() = default;
  PLDP_HOT Event(EventTypeId type, Timestamp ts,
                 StreamId stream = kDefaultStream)
      : type_(type), timestamp_(ts), stream_(stream) {}

  Event(const Event& other);
  Event& operator=(const Event& other);
  // Custom moves: the defaults would null spill_ but leave attr_count_,
  // making any access to a moved-from spilled event read past the inline
  // array. Moved-from events are valid and empty of attributes instead.
  Event(Event&& other) noexcept;
  Event& operator=(Event&& other) noexcept;

  EventTypeId type() const { return type_; }
  Timestamp timestamp() const { return timestamp_; }
  StreamId stream() const { return stream_; }

  void set_type(EventTypeId type) { type_ = type; }
  void set_timestamp(Timestamp ts) { timestamp_ = ts; }
  void set_stream(StreamId s) { stream_ = s; }

  /// Sets or replaces an attribute by pre-bound id (the hot-path variant).
  void SetAttribute(AttrId id, Value value);

  /// Sets or replaces an attribute by name, interning it into AttrNames()
  /// (get-or-create, so events and queries bound by name meet in one id
  /// space).
  void SetAttribute(std::string_view name, Value value);

  /// Non-copying attribute lookup by pre-bound id: integer compares over
  /// the inline buffer, nullptr when absent. The per-event call
  /// correlation keys make after their bind step.
  const Value* FindAttribute(AttrId id) const;

  /// Non-copying lookup by name. Never interns: an unknown name is simply
  /// absent.
  const Value* FindAttribute(std::string_view name) const;

  /// Attribute lookup; nullopt when absent. Copies — prefer FindAttribute
  /// on hot paths.
  std::optional<Value> GetAttribute(std::string_view name) const;

  size_t attribute_count() const { return attr_count_; }

  /// The i-th attribute in insertion order; i < attribute_count().
  const Attr& attribute(size_t i) const {
    return attrs_data()[i];
  }

  /// Registry name of the i-th attribute (empty for invalid ids).
  std::string_view attribute_name(size_t i) const {
    return AttrNames().NameOf(attribute(i).id);
  }

  /// Equality on type, timestamp, stream, and attributes (order-sensitive;
  /// attributes are kept in insertion order).
  bool operator==(const Event& other) const;
  bool operator!=(const Event& other) const { return !(*this == other); }

  /// Debug rendering: `e3@17{cell=42}`.
  std::string ToString(const EventTypeRegistry* registry = nullptr) const;

 private:
  const Attr* attrs_data() const {
    return spill_ != nullptr ? spill_->data() : inline_.data();
  }
  Attr* attrs_data() {
    return spill_ != nullptr ? spill_->data() : inline_.data();
  }

  EventTypeId type_ = kInvalidEventType;
  Timestamp timestamp_ = 0;
  StreamId stream_ = kDefaultStream;
  /// Total attributes; they live in `inline_` until the count exceeds
  /// kInlineAttrCapacity, then all of them in `*spill_`.
  uint32_t attr_count_ = 0;
  std::array<Attr, kInlineAttrCapacity> inline_;
  std::unique_ptr<std::vector<Attr>> spill_;
};

/// Non-owning view of a contiguous run of events (C++17 stand-in for
/// std::span<const Event>). Batched ingest and replay hand these out so
/// bulk paths never copy. Lives here rather than the stream layer because
/// both the replay machinery and cep/predicate.h consume it.
class EventSpan {
 public:
  constexpr EventSpan() = default;
  constexpr EventSpan(const Event* data, size_t size)
      : data_(data), size_(size) {}

  const Event* data() const { return data_; }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  const Event& operator[](size_t i) const { return data_[i]; }
  const Event* begin() const { return data_; }
  const Event* end() const { return data_ + size_; }

 private:
  const Event* data_ = nullptr;
  size_t size_ = 0;
};

/// Strict-weak temporal order used when merging streams: by timestamp, ties
/// broken by stream id then type id to keep merges deterministic (the paper
/// notes same-timestamp order is semantically arbitrary; we fix one).
struct EventTemporalOrder {
  bool operator()(const Event& a, const Event& b) const {
    if (a.timestamp() != b.timestamp()) return a.timestamp() < b.timestamp();
    if (a.stream() != b.stream()) return a.stream() < b.stream();
    return a.type() < b.type();
  }
};

}  // namespace pldp

#endif  // PLDP_EVENT_EVENT_H_
