// Copyright 2026 The PLDP Authors.

#include "cep/engine.h"

namespace pldp {

StatusOr<QueryId> CepEngine::RegisterQuery(const std::string& name,
                                           PatternId target) {
  if (!patterns_.Contains(target)) {
    return Status::NotFound("query '" + name +
                            "' references unknown pattern id " +
                            std::to_string(target));
  }
  for (const BinaryQuery& q : queries_) {
    if (q.name == name) {
      return Status::AlreadyExists("query already registered: " + name);
    }
  }
  BinaryQuery q;
  q.id = static_cast<QueryId>(queries_.size());
  q.name = name;
  q.target = target;
  queries_.push_back(q);
  return q.id;
}

}  // namespace pldp
