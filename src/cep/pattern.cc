// Copyright 2026 The PLDP Authors.

#include "cep/pattern.h"

#include <algorithm>
#include <unordered_set>

#include "common/strings.h"

namespace pldp {

std::string_view DetectionModeToString(DetectionMode mode) {
  switch (mode) {
    case DetectionMode::kSequence:
      return "SEQ";
    case DetectionMode::kConjunction:
      return "AND";
    case DetectionMode::kDisjunction:
      return "OR";
  }
  return "?";
}

StatusOr<Pattern> Pattern::Create(std::string name,
                                  std::vector<EventTypeId> elements,
                                  DetectionMode mode) {
  if (elements.empty()) {
    return Status::InvalidArgument("pattern '" + name +
                                   "' must have at least one element");
  }
  return Pattern(std::move(name), std::move(elements), mode);
}

bool Pattern::ContainsType(EventTypeId type) const {
  return std::find(elements_.begin(), elements_.end(), type) !=
         elements_.end();
}

std::vector<EventTypeId> Pattern::DistinctTypes() const {
  std::vector<EventTypeId> out;
  std::unordered_set<EventTypeId> seen;
  for (EventTypeId t : elements_) {
    if (seen.insert(t).second) out.push_back(t);
  }
  return out;
}

std::string Pattern::ToString(const EventTypeRegistry* registry) const {
  std::vector<std::string> parts;
  parts.reserve(elements_.size());
  for (EventTypeId t : elements_) {
    if (registry != nullptr) {
      auto n = registry->Name(t);
      parts.push_back(n.ok() ? n.value() : std::to_string(t));
    } else {
      parts.push_back(std::to_string(t));
    }
  }
  return StrFormat("%s=%s(%s)", name_.c_str(),
                   std::string(DetectionModeToString(mode_)).c_str(),
                   Join(parts, ',').c_str());
}

StatusOr<PatternId> PatternRegistry::Register(Pattern pattern) {
  for (const Pattern& p : patterns_) {
    if (p.name() == pattern.name()) {
      return Status::AlreadyExists("pattern already registered: " +
                                   pattern.name());
    }
  }
  PatternId id = static_cast<PatternId>(patterns_.size());
  patterns_.push_back(std::move(pattern));
  return id;
}

}  // namespace pldp
