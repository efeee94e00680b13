// Copyright 2026 The PLDP Authors.

#include "event/value.h"

#include "common/strings.h"

namespace pldp {

std::string_view ValueKindToString(ValueKind kind) {
  switch (kind) {
    case ValueKind::kBool:
      return "bool";
    case ValueKind::kInt:
      return "int";
    case ValueKind::kDouble:
      return "double";
    case ValueKind::kString:
      return "string";
    case ValueKind::kSymbol:
      return "symbol";
  }
  return "unknown";
}

namespace {
Status KindMismatch(ValueKind want, ValueKind got) {
  return Status::InvalidArgument(
      StrFormat("value kind mismatch: want %s, got %s",
                std::string(ValueKindToString(want)).c_str(),
                std::string(ValueKindToString(got)).c_str()));
}
}  // namespace

StatusOr<bool> Value::AsBool() const {
  if (!is_bool()) return KindMismatch(ValueKind::kBool, kind());
  return std::get<bool>(rep_);
}

StatusOr<int64_t> Value::AsInt() const {
  if (!is_int()) return KindMismatch(ValueKind::kInt, kind());
  return std::get<int64_t>(rep_);
}

StatusOr<double> Value::AsDouble() const {
  if (!is_double()) return KindMismatch(ValueKind::kDouble, kind());
  return std::get<double>(rep_);
}

StatusOr<std::string_view> Value::AsStringView() const {
  if (is_string()) return std::string_view(std::get<std::string>(rep_));
  if (is_symbol()) return SymbolNames().NameOf(std::get<Symbol>(rep_).id);
  return KindMismatch(ValueKind::kString, kind());
}

bool Value::operator==(const Value& other) const {
  if (rep_.index() == other.rep_.index()) return rep_ == other.rep_;
  // Cross-kind text equality: an interned symbol equals an owned string
  // with the same content, so interned and legacy events interchange.
  if (is_text() && other.is_text()) {
    return AsStringView().value() == other.AsStringView().value();
  }
  return false;
}

std::string Value::ToString() const {
  switch (kind()) {
    case ValueKind::kBool:
      return std::get<bool>(rep_) ? "true" : "false";
    case ValueKind::kInt:
      return std::to_string(std::get<int64_t>(rep_));
    case ValueKind::kDouble:
      return StrFormat("%g", std::get<double>(rep_));
    case ValueKind::kString:
      return "\"" + std::get<std::string>(rep_) + "\"";
    case ValueKind::kSymbol:
      return "\"" +
             std::string(SymbolNames().NameOf(std::get<Symbol>(rep_).id)) +
             "\"";
  }
  return "<invalid>";
}

}  // namespace pldp
