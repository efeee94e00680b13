// Copyright 2026 The PLDP Authors.
//
// Patterns (paper §III-A): a pattern P = seq(e_1, ..., e_m) is a temporal
// combination of events. PLDP represents a *pattern type* (Definition 2) as
// a named sequence of event types plus a detection mode:
//
//   kSequence    — the elements must appear in temporal order within a
//                  window (skip-till-any-match, the classic CEP SEQ).
//   kConjunction — all elements must appear within a window, any order
//                  (the semantics of the paper's synthetic experiment:
//                  "if all three events are contained in one L_m, the
//                  pattern is detected").
//   kDisjunction — any one element suffices (used for area-entry patterns
//                  in the taxi experiment, where a pattern area is a set of
//                  cells).
//
// A *pattern instance* (a concrete detection) is `PatternMatch`.

#ifndef PLDP_CEP_PATTERN_H_
#define PLDP_CEP_PATTERN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "event/event.h"
#include "event/event_type.h"

namespace pldp {

/// Dense identifier of a registered pattern type.
using PatternId = uint32_t;

inline constexpr PatternId kInvalidPattern = static_cast<PatternId>(-1);

/// How a pattern's elements must co-occur inside a window.
enum class DetectionMode : int {
  kSequence = 0,
  kConjunction = 1,
  kDisjunction = 2,
};

std::string_view DetectionModeToString(DetectionMode mode);

/// A pattern type: named sequence of event types + detection mode.
class Pattern {
 public:
  Pattern() = default;

  /// `elements` must be non-empty.
  static StatusOr<Pattern> Create(std::string name,
                                  std::vector<EventTypeId> elements,
                                  DetectionMode mode);

  const std::string& name() const { return name_; }
  const std::vector<EventTypeId>& elements() const { return elements_; }
  DetectionMode mode() const { return mode_; }

  /// Number of elements m (the paper's pattern length; the privacy budget is
  /// split across exactly these).
  size_t length() const { return elements_.size(); }

  /// True if `type` is an element of this pattern.
  bool ContainsType(EventTypeId type) const;

  /// Distinct element types (an element type may repeat in a sequence).
  std::vector<EventTypeId> DistinctTypes() const;

  std::string ToString(const EventTypeRegistry* registry = nullptr) const;

 private:
  Pattern(std::string name, std::vector<EventTypeId> elements,
          DetectionMode mode)
      : name_(std::move(name)), elements_(std::move(elements)), mode_(mode) {}

  std::string name_;
  std::vector<EventTypeId> elements_;
  DetectionMode mode_ = DetectionMode::kSequence;
};

/// A concrete detection of a pattern within one window.
struct PatternMatch {
  PatternId pattern = kInvalidPattern;
  /// Index of the window (evaluation point) the match was found in.
  size_t window_index = 0;
  /// Positions (within the window's event vector) of the matched elements,
  /// one per pattern element, in element order. Empty for kDisjunction
  /// matches beyond the single witness.
  std::vector<size_t> event_positions;
  /// Timestamp of the last matched element (the detection time).
  Timestamp detected_at = 0;
};

/// Registry of pattern types; ids are dense and assigned in registration
/// order (deterministic).
class PatternRegistry {
 public:
  /// Registers a pattern, returning its id. Duplicate names are rejected.
  StatusOr<PatternId> Register(Pattern pattern);

  const Pattern& Get(PatternId id) const { return patterns_[id]; }
  bool Contains(PatternId id) const { return id < patterns_.size(); }
  size_t size() const { return patterns_.size(); }

 private:
  std::vector<Pattern> patterns_;
};

}  // namespace pldp

#endif  // PLDP_CEP_PATTERN_H_
