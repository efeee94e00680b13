// Copyright 2026 The PLDP Authors.
//
// Attribute values carried by data tuples and events. A small closed
// variant (bool / int64 / double / string / symbol) is enough for the
// attributes PLDP's datasets and correlation keys read, and keeps events
// cheap to copy.
//
// The two text kinds exist for different regimes: `kString` owns its
// payload (decoding, ad-hoc construction), `kSymbol` is a flyweight id
// into the process-wide SymbolNames() table (event/symbol_table.h) so
// copying the value — and therefore the event carrying it — never
// allocates. The two compare equal when their content is equal, and
// `CorrelationValueKey` hashes them identically, so a pipeline may mix
// interned and legacy-constructed events freely; `Value::Sym` is the
// zero-allocation-path constructor.

#ifndef PLDP_EVENT_VALUE_H_
#define PLDP_EVENT_VALUE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <variant>

#include "common/status.h"
#include "event/symbol_table.h"

namespace pldp {

/// Discriminates the alternatives of `Value`.
enum class ValueKind : int {
  kBool = 0,
  kInt = 1,
  kDouble = 2,
  kString = 3,
  kSymbol = 4,
};

std::string_view ValueKindToString(ValueKind kind);

/// An interned string payload: a flyweight handle into SymbolNames().
struct Symbol {
  SymbolId id = kInvalidSymbolId;

  constexpr Symbol() = default;
  constexpr explicit Symbol(SymbolId i) : id(i) {}

  bool operator==(const Symbol& other) const { return id == other.id; }
  bool operator!=(const Symbol& other) const { return id != other.id; }
};

/// A dynamically typed attribute value.
class Value {
 public:
  Value() : rep_(int64_t{0}) {}
  explicit Value(bool b) : rep_(b) {}
  explicit Value(int64_t i) : rep_(i) {}
  explicit Value(double d) : rep_(d) {}
  explicit Value(std::string s) : rep_(std::move(s)) {}
  explicit Value(const char* s) : rep_(std::string(s)) {}
  explicit Value(Symbol s) : rep_(s) {}

  /// Interns `s` into SymbolNames() and wraps the id: the constructor of
  /// the allocation-free data plane. Interning cost is paid once per
  /// distinct payload, at construction — copies are free afterwards.
  /// If the table is full (kMaxEntries distinct payloads — interning an
  /// unbounded cardinality is a misuse, see symbol_table.h) the value
  /// falls back to an owned string: copies stop being free, but distinct
  /// payloads are never aliased to one id.
  static Value Sym(std::string_view s) {
    const SymbolId id = SymbolNames().Intern(s);
    if (id == kInvalidSymbolId) return Value(std::string(s));
    return Value(Symbol(id));
  }

  ValueKind kind() const { return static_cast<ValueKind>(rep_.index()); }

  bool is_bool() const { return kind() == ValueKind::kBool; }
  bool is_int() const { return kind() == ValueKind::kInt; }
  bool is_double() const { return kind() == ValueKind::kDouble; }
  bool is_string() const { return kind() == ValueKind::kString; }
  bool is_symbol() const { return kind() == ValueKind::kSymbol; }

  /// Either text kind (owned string or interned symbol).
  bool is_text() const { return is_string() || is_symbol(); }

  /// Typed accessors; status error if the kind does not match.
  StatusOr<bool> AsBool() const;
  StatusOr<int64_t> AsInt() const;
  StatusOr<double> AsDouble() const;

  /// Non-copying text accessor; accepts both text kinds. The view is valid
  /// as long as this Value lives (kString) or forever (kSymbol).
  StatusOr<std::string_view> AsStringView() const;

  /// Equality: same-kind payloads compare directly; the two text kinds
  /// compare by content (Value("a") == Value::Sym("a")), so interned and
  /// legacy-constructed events are interchangeable. Other kind mixes are
  /// unequal.
  bool operator==(const Value& other) const;
  bool operator!=(const Value& other) const { return !(*this == other); }

  /// Debug rendering, e.g. `42`, `3.14`, `"cell_7"`, `true`.
  std::string ToString() const;

 private:
  std::variant<bool, int64_t, double, std::string, Symbol> rep_;
};

}  // namespace pldp

#endif  // PLDP_EVENT_VALUE_H_
