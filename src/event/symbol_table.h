// Copyright 2026 The PLDP Authors.
//
// Process-wide interning of attribute names and string payloads — the
// dictionary-encoding half of the zero-allocation data plane.
//
// Events used to carry `std::string` attribute names and `Value` carried
// `std::string` payloads, so every copy into a shard ring slot or an
// exchange lane heap-allocated, and every attribute-keyed correlation did
// string compares. Interning replaces both with dense
// integer ids, the same flyweight move `EventTypeRegistry` makes for event
// types: names are registered once (query registration, dataset
// construction) and the steady-state event path only ever touches ids.
//
// Two tables exist, both process-wide and append-only:
//
//   AttrNames()   attribute names ("cell", "zone")  -> AttrId
//   SymbolNames() string payloads ("downtown")      -> SymbolId
//
// Why process-wide: `Event` is a value type that crosses threads and
// stages; binding at query-registration time (cep/correlation_key.h) and
// at event-construction time must meet in one id space without plumbing a
// registry through every call site. Event-type registries stay
// per-dataset; the attribute vocabulary is program-global by nature (a
// handful of names for the program's lifetime).
//
// Concurrency: `Intern`/`Find` serialize on a mutex — they run at
// registration/construction time, off the engine hot path. `NameOf` and
// `size` are lock-free and allocation-free (they back the hot-path
// `Value::AsStringView` and correlation-key hashing): ids are published
// through an atomic size counter with release/acquire ordering, and
// entries live in fixed-size blocks whose addresses never move once
// published, so a returned `std::string_view` stays valid forever.

#ifndef PLDP_EVENT_SYMBOL_TABLE_H_
#define PLDP_EVENT_SYMBOL_TABLE_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>

#include "common/status.h"
#include "common/thread_annotations.h"

namespace pldp {

/// Dense identifier of an interned attribute name (AttrNames()).
using AttrId = uint32_t;

/// Dense identifier of an interned string payload (SymbolNames()).
using SymbolId = uint32_t;

/// Sentinel for "not interned" / failed lookups in either table.
inline constexpr uint32_t kInvalidInternId = static_cast<uint32_t>(-1);
inline constexpr AttrId kInvalidAttrId = kInvalidInternId;
inline constexpr SymbolId kInvalidSymbolId = kInvalidInternId;

/// Append-only name <-> dense-id table with lock-free id -> name reads.
///
/// Registration order defines ids (0, 1, 2, ...). Entries are never
/// removed or mutated, so `NameOf` views are stable for the program's
/// lifetime.
class InternTable {
 public:
  InternTable();
  ~InternTable();

  InternTable(const InternTable&) = delete;
  InternTable& operator=(const InternTable&) = delete;

  /// Get-or-create: returns the existing id or registers a new one.
  /// Returns kInvalidInternId only when the table is full (the configured
  /// budget, or kMaxEntries).
  uint32_t Intern(std::string_view name) PLDP_EXCLUDES(mu_);

  /// Caps the table at `max_entries` interned names (clamped to
  /// kMaxEntries; 0 restores the default). Already-interned names stay
  /// valid and keep resolving even when they exceed a newly lowered
  /// budget — the budget only stops *new* registrations, so it guards
  /// against unbounded payload cardinality without invalidating ids.
  void SetBudget(size_t max_entries) PLDP_EXCLUDES(mu_);

  /// The active cap on interned entries.
  // order: relaxed; isolated knob, see SetBudget.
  size_t budget() const { return budget_.load(std::memory_order_relaxed); }

  /// Id of `name`, or kInvalidInternId when it was never interned. Unlike
  /// Intern, never grows the table — the right call for lookups that must
  /// not pollute the id space (e.g. Event::FindAttribute by name).
  uint32_t Find(std::string_view name) const PLDP_EXCLUDES(mu_);

  /// Name of `id`; empty view for invalid ids. Lock-free, allocation-free,
  /// and the view is stable forever (entries never move).
  PLDP_HOT std::string_view NameOf(uint32_t id) const;

  /// Number of interned entries. Ids are exactly [0, size()).
  // order: acquire pairs with Intern's release publication of size_.
  size_t size() const { return size_.load(std::memory_order_acquire); }

  /// Hard capacity: 4096 blocks x 1024 entries.
  static constexpr size_t kMaxEntries = size_t{4096} << 10;

 private:
  static constexpr size_t kBlockBits = 10;
  static constexpr size_t kBlockSize = size_t{1} << kBlockBits;  // 1024
  static constexpr size_t kMaxBlocks = kMaxEntries / kBlockSize;

  mutable Mutex mu_;
  /// Active entry cap (<= kMaxEntries). Atomic so budget() is readable
  /// without the mutex; mutations happen under it.
  std::atomic<size_t> budget_{kMaxEntries};
  /// Keys are views into the block storage below (strings never move).
  std::unordered_map<std::string_view, uint32_t> ids_ PLDP_GUARDED_BY(mu_);
  /// Two-level directory: block pointers are published with release stores
  /// and block contents are immutable once `size_` covers them, which is
  /// what makes NameOf lock-free. The mutex serializes writers; the
  /// lock-free reader side (NameOf) is safe through the release/acquire
  /// pairing on size_, which TSA cannot express — hence no GUARDED_BY.
  std::array<std::atomic<std::string*>, kMaxBlocks> blocks_;
  std::atomic<size_t> size_{0};
};

/// The process-wide attribute-name table.
InternTable& AttrNames();

/// The process-wide string-payload (symbol) table.
InternTable& SymbolNames();

}  // namespace pldp

#endif  // PLDP_EVENT_SYMBOL_TABLE_H_
