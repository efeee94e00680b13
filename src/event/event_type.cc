// Copyright 2026 The PLDP Authors.

#include "event/event_type.h"

namespace pldp {

EventTypeId EventTypeRegistry::Intern(const std::string& name) {
  auto it = ids_.find(name);
  if (it != ids_.end()) return it->second;
  EventTypeId id = static_cast<EventTypeId>(names_.size());
  names_.push_back(name);
  ids_.emplace(name, id);
  return id;
}

StatusOr<EventTypeId> EventTypeRegistry::Lookup(const std::string& name) const {
  auto it = ids_.find(name);
  if (it == ids_.end()) {
    return Status::NotFound("unknown event type: " + name);
  }
  return it->second;
}

StatusOr<std::string> EventTypeRegistry::Name(EventTypeId id) const {
  if (id >= names_.size()) {
    return Status::NotFound("unknown event type id: " + std::to_string(id));
  }
  return names_[id];
}

EventTypeRegistry EventTypeRegistry::MakeDense(size_t count,
                                               const std::string& prefix) {
  EventTypeRegistry reg;
  for (size_t i = 0; i < count; ++i) {
    reg.Intern(prefix + std::to_string(i));
  }
  return reg;
}

}  // namespace pldp
