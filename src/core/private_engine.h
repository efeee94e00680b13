// Copyright 2026 The PLDP Authors.
//
// The trusted CEP engine of the paper's system model (Fig. 2).
//
// Setup phase:    data subjects register private patterns; data consumers
//                 register binary target queries and the quality parameter
//                 α; one privacy mechanism is selected and granted the
//                 pattern-level budget ε.
// Service phase:  raw streams arrive; the engine windows them, lets the
//                 mechanism publish protected views, and answers every
//                 registered query from the protected views only. Raw data
//                 never crosses the engine boundary.
//
// DEPRECATED as a user-facing facade for serving: declare private queries
// through `PipelineBuilder` (api/pipeline_builder.h) instead — the planner
// compiles the sharded private lane and gates results behind typed
// handles. This class remains the setup-phase substrate of the pipeline's
// private lane (core/private_lane.h), the test oracle of its equivalence
// suites, and the evaluation harness's batch entry point.

#ifndef PLDP_CORE_PRIVATE_ENGINE_H_
#define PLDP_CORE_PRIVATE_ENGINE_H_

#include <memory>
#include <string>
#include <vector>

#include "cep/engine.h"
#include "common/random.h"
#include "common/status.h"
#include "ppm/mechanism.h"
#include "stream/window.h"

namespace pldp {

/// Per-query protected answers plus bookkeeping.
struct PrivateQueryResults {
  /// answers[q] aligns with the engine's query ids.
  std::vector<AnswerSeries> answers;
  /// The windows that were evaluated (for inspection / re-evaluation).
  size_t window_count = 0;
};

/// Facade over CepEngine + PrivacyMechanism.
class PrivateCepEngine {
 public:
  PrivateCepEngine() = default;

  // --- Setup phase ---------------------------------------------------------

  /// Interns an event type (data subjects and consumers agree on names).
  EventTypeId InternEventType(const std::string& name) {
    return cep_.InternEventType(name);
  }

  EventTypeRegistry* mutable_event_types() {
    return cep_.mutable_event_types();
  }
  const EventTypeRegistry& event_types() const { return cep_.event_types(); }
  const PatternRegistry& patterns() const { return cep_.patterns(); }
  const std::vector<BinaryQuery>& queries() const { return cep_.queries(); }
  const std::vector<PatternId>& private_patterns() const {
    return private_patterns_;
  }
  const std::vector<PatternId>& target_patterns() const {
    return target_patterns_;
  }

  /// Data subject declares a private pattern.
  StatusOr<PatternId> RegisterPrivatePattern(Pattern pattern);

  /// Consumer registers a target pattern + continuous binary query on it.
  StatusOr<QueryId> RegisterTargetQuery(const std::string& query_name,
                                        Pattern pattern);

  /// Consumer-side quality parameter α (paper eq. 3) used by adaptive
  /// mechanisms.
  void SetAlpha(double alpha) { alpha_ = alpha; }

  /// Historical windows the data subjects granted for adaptive tuning.
  void SetHistory(std::vector<Window> history) {
    history_ = std::move(history);
  }

  /// Selects the mechanism and grants the pattern-level budget; finishes
  /// the setup phase (calls mechanism->Initialize with the assembled
  /// context). Must come after all pattern/query registrations.
  Status Activate(std::unique_ptr<PrivacyMechanism> mechanism, double epsilon);

  /// Assembles the MechanismContext Activate hands to the mechanism. Public
  /// so the private lane can configure its shard-local mechanism
  /// instances with the exact same view of the setup phase. The returned
  /// context borrows from this engine (registries, history) and must not
  /// outlive it.
  MechanismContext BuildContext(double epsilon) const;

  const PrivacyMechanism* mechanism() const { return mechanism_.get(); }

  // --- Service phase -------------------------------------------------------

  /// Windows a raw stream and answers every registered query from the
  /// mechanism's protected views.
  StatusOr<PrivateQueryResults> ProcessStream(
      const EventStream& stream, const TumblingWindower& windower, Rng* rng);

  /// Same, over pre-built windows.
  StatusOr<PrivateQueryResults> ProcessWindows(
      const std::vector<Window>& windows, Rng* rng);

  /// Ground-truth answers (no privacy) — only for evaluation harnesses;
  /// a deployed engine would not expose this.
  StatusOr<PrivateQueryResults> GroundTruth(
      const std::vector<Window>& windows) const;

 private:
  CepEngine cep_;
  std::vector<PatternId> private_patterns_;
  std::vector<PatternId> target_patterns_;
  std::vector<Window> history_;
  double alpha_ = 0.5;
  double epsilon_ = 0.0;
  std::unique_ptr<PrivacyMechanism> mechanism_;
  bool active_ = false;
};

}  // namespace pldp

#endif  // PLDP_CORE_PRIVATE_ENGINE_H_
