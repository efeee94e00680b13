// Copyright 2026 The PLDP Authors.
//
// Event types and their registry.
//
// CEP patterns are sequences over *event types* ("taxi entered cell 17",
// "temperature spike"); individual events are instances of a type. Types
// are interned to dense integer ids so pattern matching and the DP
// mechanisms work on integers, with names kept for diagnostics.

#ifndef PLDP_EVENT_EVENT_TYPE_H_
#define PLDP_EVENT_EVENT_TYPE_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"

namespace pldp {

/// Dense identifier of an event type. Valid ids are < registry size.
using EventTypeId = uint32_t;

/// Sentinel for "no type" / unresolved lookups.
inline constexpr EventTypeId kInvalidEventType =
    static_cast<EventTypeId>(-1);

/// Bidirectional name <-> id interning table for event types.
///
/// Registration order defines ids (0, 1, 2, ...), so a registry built from
/// the same sequence of names is identical across runs — part of the
/// determinism contract of the library.
class EventTypeRegistry {
 public:
  EventTypeRegistry() = default;

  /// Get-or-create: returns the existing id or registers a new one.
  EventTypeId Intern(const std::string& name);

  /// Id for `name`, or NotFound.
  StatusOr<EventTypeId> Lookup(const std::string& name) const;

  /// Name for `id`, or NotFound.
  StatusOr<std::string> Name(EventTypeId id) const;

  /// Number of registered types. Ids are exactly [0, size()).
  size_t size() const { return names_.size(); }

  bool Contains(EventTypeId id) const { return id < names_.size(); }

  /// Convenience: registers `count` types named `<prefix>0 .. <prefix>N-1`.
  /// Used by the synthetic dataset generator (paper: e1..e20).
  static EventTypeRegistry MakeDense(size_t count,
                                     const std::string& prefix = "e");

 private:
  std::vector<std::string> names_;
  std::unordered_map<std::string, EventTypeId> ids_;
};

}  // namespace pldp

#endif  // PLDP_EVENT_EVENT_TYPE_H_
