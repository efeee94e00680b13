// Copyright 2026 The PLDP Authors.
//
// Event predicates: the filter language of the CEP engine.
//
// A predicate decides whether a single event is "of interest" for a pattern
// element. The taxi experiment uses attribute predicates (cell membership);
// the synthetic experiment uses plain type predicates. Predicates compose
// with And/Or/Not.
//
// Bind step: the Make* factories compile each predicate against the
// process-wide interning tables (event/symbol_table.h) once, at
// query-registration time — attribute names resolve to `AttrId`s and
// string constants to `SymbolId`s. Per-event evaluation is then integer
// lookups over the event's inline attribute buffer plus, for interned
// payloads, a single id comparison: no string compares, no allocation.
// Because the tables are get-or-create, binding works whether the
// predicate or the first event carrying the attribute is created first.

#ifndef PLDP_CEP_PREDICATE_H_
#define PLDP_CEP_PREDICATE_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/thread_annotations.h"
#include "event/event.h"

namespace pldp {

/// Comparison operators for attribute predicates.
enum class CompareOp : int { kEq, kNe, kLt, kLe, kGt, kGe };

std::string_view CompareOpToString(CompareOp op);

/// Boolean condition over one event.
class Predicate {
 public:
  virtual ~Predicate() = default;

  /// Evaluates against `event`. Errors propagate (e.g. missing attribute
  /// with `require_attribute` semantics). Runs once per event per pattern
  /// element on worker threads — implementations must stay allocation-free
  /// (integer lookups over pre-interned ids; see the bind step above).
  PLDP_HOT virtual StatusOr<bool> Eval(const Event& event) const = 0;

  /// Batch evaluation: sets bit i of `mask` (LSB-first within each 64-bit
  /// word, word i/64) iff `events[i]` satisfies the predicate; every
  /// remaining bit of each touched word is cleared. `mask` must hold
  /// (events.size() + 63) / 64 words. An event whose Eval would error counts
  /// as not matching — batch callers use the mask as a prefilter, never
  /// for error reporting; the Eval↔EvalBatch agreement (modulo that error
  /// mapping) is pinned by predicate equivalence tests. The base
  /// implementation is the scalar fallback; leaf predicates over bound
  /// integer compares override it with a structure-friendly loop the
  /// compiler can vectorize.
  PLDP_HOT virtual void EvalBatch(EventSpan events, uint64_t* mask) const;

  /// Human-readable rendering for diagnostics.
  virtual std::string ToString() const = 0;
};

using PredicatePtr = std::shared_ptr<const Predicate>;

/// Always true.
PredicatePtr MakeTrue();

/// Event type equals `type`.
PredicatePtr MakeTypeIs(EventTypeId type);

/// Numeric comparison `event[attr] <op> constant`; events lacking the
/// attribute evaluate to false (absent data cannot satisfy a filter).
PredicatePtr MakeNumericCompare(std::string attr, CompareOp op,
                                double constant);

/// String equality `event[attr] == constant` (kNe for inequality); absent
/// attribute evaluates to false.
PredicatePtr MakeStringCompare(std::string attr, CompareOp op,
                               std::string constant);

/// `event[attr]` is an integer contained in `members`. Used for
/// "cell in private area" conditions; absent attribute evaluates to false.
PredicatePtr MakeIntSetMember(std::string attr, std::vector<int64_t> members);

/// Conjunction / disjunction / negation.
PredicatePtr MakeAnd(std::vector<PredicatePtr> operands);
PredicatePtr MakeOr(std::vector<PredicatePtr> operands);
PredicatePtr MakeNot(PredicatePtr operand);

/// Set-membership over event types, evaluated as one vectorizable
/// type-compare pass per batch. Exposed as a concrete class for the
/// strided entry point below; everything else should go through
/// MakeTypeAnyOf.
class TypeAnyOfPredicate final : public Predicate {
 public:
  /// Duplicates are fine; the set is sorted/deduped at bind time. Small
  /// type universes (max id < 2^16) compile to a bitmap, larger ones to a
  /// sorted binary search.
  explicit TypeAnyOfPredicate(std::vector<EventTypeId> types);

  PLDP_HOT StatusOr<bool> Eval(const Event& event) const override;
  PLDP_HOT void EvalBatch(EventSpan events, uint64_t* mask) const override;
  std::string ToString() const override;

  /// EvalBatch over events embedded in larger records (e.g. the runtime's
  /// StampedEvent): `first` points at the Event inside record 0 and
  /// consecutive records sit `stride_bytes` apart. Same mask contract as
  /// EvalBatch.
  PLDP_HOT void EvalTypesStrided(const Event* first, size_t stride_bytes,
                                 size_t count, uint64_t* mask) const;

  size_t type_count() const { return sorted_.size(); }

 private:
  PLDP_HOT bool Contains(EventTypeId type) const {
    if (!bits_.empty()) {
      return type <= max_type_ &&
             ((bits_[type >> 6] >> (type & 63)) & uint64_t{1}) != 0;
    }
    return std::binary_search(sorted_.begin(), sorted_.end(), type);
  }

  std::vector<EventTypeId> sorted_;
  std::vector<uint64_t> bits_;  ///< bitmap form (empty = binary search)
  EventTypeId max_type_ = 0;
};

std::shared_ptr<const TypeAnyOfPredicate> MakeTypeAnyOf(
    std::vector<EventTypeId> types);

}  // namespace pldp

#endif  // PLDP_CEP_PREDICATE_H_
