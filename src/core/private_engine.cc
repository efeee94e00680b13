// Copyright 2026 The PLDP Authors.

#include "core/private_engine.h"

#include "ppm/adaptive.h"

namespace pldp {

StatusOr<PatternId> PrivateCepEngine::RegisterPrivatePattern(Pattern pattern) {
  if (active_) {
    return Status::FailedPrecondition(
        "setup phase is over (Activate was called)");
  }
  PLDP_ASSIGN_OR_RETURN(PatternId id,
                        cep_.mutable_patterns()->Register(std::move(pattern)));
  private_patterns_.push_back(id);
  return id;
}

StatusOr<QueryId> PrivateCepEngine::RegisterTargetQuery(
    const std::string& query_name, Pattern pattern) {
  if (active_) {
    return Status::FailedPrecondition(
        "setup phase is over (Activate was called)");
  }
  PLDP_ASSIGN_OR_RETURN(PatternId pid,
                        cep_.mutable_patterns()->Register(std::move(pattern)));
  target_patterns_.push_back(pid);
  return cep_.RegisterQuery(query_name, pid);
}

Status PrivateCepEngine::Activate(std::unique_ptr<PrivacyMechanism> mechanism,
                                  double epsilon) {
  if (mechanism == nullptr) {
    return Status::InvalidArgument("mechanism must not be null");
  }
  if (active_) return Status::FailedPrecondition("already active");
  if (private_patterns_.empty()) {
    return Status::FailedPrecondition(
        "no private patterns registered; use the plain CepEngine when "
        "nothing needs protection");
  }
  if (cep_.queries().empty()) {
    return Status::FailedPrecondition("no target queries registered");
  }

  const MechanismContext context = BuildContext(epsilon);
  PLDP_RETURN_IF_ERROR(mechanism->Initialize(context));
  WarnIfAdaptiveFallsBack(*mechanism, context);
  mechanism_ = std::move(mechanism);
  epsilon_ = epsilon;
  active_ = true;
  return Status::OK();
}

MechanismContext PrivateCepEngine::BuildContext(double epsilon) const {
  MechanismContext ctx;
  ctx.event_types = &cep_.event_types();
  ctx.patterns = &cep_.patterns();
  ctx.private_patterns = private_patterns_;
  ctx.target_patterns = target_patterns_;
  ctx.epsilon = epsilon;
  ctx.alpha = alpha_;
  ctx.history = history_.empty() ? nullptr : &history_;
  return ctx;
}

StatusOr<PrivateQueryResults> PrivateCepEngine::ProcessStream(
    const EventStream& stream, const TumblingWindower& windower, Rng* rng) {
  PLDP_ASSIGN_OR_RETURN(auto windows, windower.Apply(stream));
  return ProcessWindows(windows, rng);
}

StatusOr<PrivateQueryResults> PrivateCepEngine::ProcessWindows(
    const std::vector<Window>& windows, Rng* rng) {
  if (!active_) return Status::FailedPrecondition("Activate() not called");
  if (rng == nullptr) return Status::InvalidArgument("rng must not be null");

  PrivateQueryResults results;
  results.window_count = windows.size();
  results.answers.resize(cep_.queries().size());

  for (const Window& w : windows) {
    PLDP_ASSIGN_OR_RETURN(PublishedView view,
                          mechanism_->PublishWindow(w, rng));
    for (const BinaryQuery& q : cep_.queries()) {
      const Pattern& target = cep_.patterns().Get(q.target);
      results.answers[q.id].Append(PatternDetectedInView(view, target));
    }
  }
  return results;
}

StatusOr<PrivateQueryResults> PrivateCepEngine::GroundTruth(
    const std::vector<Window>& windows) const {
  PrivateQueryResults results;
  results.window_count = windows.size();
  results.answers.resize(cep_.queries().size());
  const size_t type_count = cep_.event_types().size();
  for (const Window& w : windows) {
    PublishedView view = TrueView(w, type_count);
    for (const BinaryQuery& q : cep_.queries()) {
      const Pattern& target = cep_.patterns().Get(q.target);
      results.answers[q.id].Append(PatternDetectedInView(view, target));
    }
  }
  return results;
}

}  // namespace pldp
