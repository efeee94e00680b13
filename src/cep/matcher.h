// Copyright 2026 The PLDP Authors.
//
// Pattern matching.
//
// Two evaluation styles are provided:
//
//  1. Window-batch matching (`FindMatchInWindow`): given a completed window,
//     decide whether the pattern occurs in it. This is what the evaluation
//     pipeline uses — the paper's queries are binary per window.
//
//  2. Incremental matching (`IncrementalMatcher`): an online automaton fed
//     one event at a time with a time-window constraint, as a production
//     CEP engine would run. Sequence matching uses the standard
//     skip-till-any-match semantics; existence detection is O(m) per event
//     via the "best start" frontier (for each matched prefix length we only
//     need the run with the latest start timestamp — any completion
//     available to an older run is available to it).

#ifndef PLDP_CEP_MATCHER_H_
#define PLDP_CEP_MATCHER_H_

#include <memory>
#include <optional>
#include <vector>

#include "cep/pattern.h"
#include "common/status.h"
#include "stream/window.h"

namespace pldp {

/// Searches `window` for an occurrence of `pattern`.
///
/// Returns the first match (positions in window.events) or nullopt.
///  - kSequence: leftmost-greedy subsequence of the element types.
///  - kConjunction: multiset containment — every element type must occur at
///    least as often as it appears in the pattern; positions are the
///    earliest witnesses.
///  - kDisjunction: any single element type present.
StatusOr<std::optional<PatternMatch>> FindMatchInWindow(
    const Window& window, const Pattern& pattern, PatternId id = 0,
    size_t window_index = 0);

/// Convenience: existence only.
StatusOr<bool> PatternOccursInWindow(const Window& window,
                                     const Pattern& pattern);

/// Online matcher: feed events in temporal order; emits a detection per
/// completed match. `window` is the maximum allowed span between the first
/// and last element of one match (<= 0 means unbounded).
class IncrementalMatcher {
 public:
  virtual ~IncrementalMatcher() = default;

  /// Processes one event; returns true if a (new) match completed at it.
  virtual bool OnEvent(const Event& event) = 0;

  /// Matches detected so far (detection timestamps).
  virtual const std::vector<Timestamp>& detections() const = 0;

  /// Resets all partial state.
  virtual void Reset() = 0;
};

/// Creates the incremental matcher appropriate for `pattern.mode()`.
/// The returned matcher keeps a reference-independent copy of the pattern.
std::unique_ptr<IncrementalMatcher> MakeIncrementalMatcher(
    const Pattern& pattern, Timestamp window);

}  // namespace pldp

#endif  // PLDP_CEP_MATCHER_H_
