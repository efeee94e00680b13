// Copyright 2026 The PLDP Authors.
//
// The plain (non-private) CEP engine's registries.
//
// `CepEngine` owns the event-type and pattern registries and the binary
// query registrations. The privacy-preserving engine
// (core/private_engine.h) builds on it and answers the queries window by
// window.
//
// For *serving* workloads use `PipelineBuilder` (api/pipeline_builder.h).

#ifndef PLDP_CEP_ENGINE_H_
#define PLDP_CEP_ENGINE_H_

#include <memory>
#include <string>
#include <vector>

#include "cep/matcher.h"
#include "cep/pattern.h"
#include "cep/query.h"
#include "common/status.h"
#include "stream/event_stream.h"
#include "stream/window.h"

namespace pldp {

/// Event types, patterns and binary continuous queries.
class CepEngine {
 public:
  CepEngine() = default;

  /// Interns an event type name.
  EventTypeId InternEventType(const std::string& name) {
    return event_types_.Intern(name);
  }

  const EventTypeRegistry& event_types() const { return event_types_; }
  EventTypeRegistry* mutable_event_types() { return &event_types_; }

  /// Registers a pattern type.
  StatusOr<PatternId> RegisterPattern(Pattern pattern) {
    return patterns_.Register(std::move(pattern));
  }

  const PatternRegistry& patterns() const { return patterns_; }
  PatternRegistry* mutable_patterns() { return &patterns_; }

  /// Registers a continuous binary query against a registered pattern.
  StatusOr<QueryId> RegisterQuery(const std::string& name, PatternId target);

  const std::vector<BinaryQuery>& queries() const { return queries_; }

 private:
  EventTypeRegistry event_types_;
  PatternRegistry patterns_;
  std::vector<BinaryQuery> queries_;
};

}  // namespace pldp

#endif  // PLDP_CEP_ENGINE_H_
