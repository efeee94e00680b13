// Copyright 2026 The PLDP Authors.

#include "core/evaluation.h"

#include "common/strings.h"
#include "ppm/adaptive.h"
#include "ppm/mechanism.h"
#include "quality/metrics.h"

namespace pldp {

StatusOr<EvaluationResult> RunEvaluation(const Dataset& dataset,
                                         const EvaluationConfig& config) {
  if (dataset.private_patterns.empty() || dataset.target_patterns.empty()) {
    return Status::InvalidArgument(
        "dataset needs private and target patterns");
  }
  if (config.repetitions == 0) {
    return Status::InvalidArgument("repetitions must be > 0");
  }

  PLDP_ASSIGN_OR_RETURN(auto split,
                        dataset.SplitHistory(config.history_fraction));
  const std::vector<Window>& history = split.first;
  const std::vector<Window>& eval_windows = split.second;
  const size_t type_count = dataset.event_types.size();

  // Mechanism setup (adaptive mechanisms tune on `history` here).
  PLDP_ASSIGN_OR_RETURN(
      auto mechanism,
      MakeMechanism(config.mechanism, config.mechanism_options));
  MechanismContext ctx;
  ctx.event_types = &dataset.event_types;
  ctx.patterns = &dataset.patterns;
  ctx.private_patterns = dataset.private_patterns;
  ctx.target_patterns = dataset.target_patterns;
  ctx.epsilon = config.epsilon;
  ctx.alpha = config.alpha;
  ctx.history = &history;
  PLDP_RETURN_IF_ERROR(mechanism->Initialize(ctx));
  WarnIfAdaptiveFallsBack(*mechanism, ctx);

  // Ground truth per evaluation window per target (computed once).
  std::vector<std::vector<bool>> truth(eval_windows.size());
  for (size_t w = 0; w < eval_windows.size(); ++w) {
    PublishedView true_view = TrueView(eval_windows[w], type_count);
    truth[w].reserve(dataset.target_patterns.size());
    for (PatternId target : dataset.target_patterns) {
      truth[w].push_back(
          PatternDetectedInView(true_view, dataset.patterns.Get(target)));
    }
  }

  EvaluationResult result;
  result.mechanism = config.mechanism;
  result.epsilon = config.epsilon;
  result.q_ordinary = 1.0;  // exact detection without a PPM

  Rng seeder(config.seed);
  for (size_t rep = 0; rep < config.repetitions; ++rep) {
    Rng rng = seeder.Fork();
    mechanism->Reset();
    ConfusionMatrix cm;
    for (size_t w = 0; w < eval_windows.size(); ++w) {
      PLDP_ASSIGN_OR_RETURN(PublishedView view,
                            mechanism->PublishWindow(eval_windows[w], &rng));
      for (size_t t = 0; t < dataset.target_patterns.size(); ++t) {
        bool predicted = PatternDetectedInView(
            view, dataset.patterns.Get(dataset.target_patterns[t]));
        cm.Add(truth[w][t], predicted);
      }
    }
    PLDP_ASSIGN_OR_RETURN(double q, cm.Quality(config.alpha));
    PLDP_ASSIGN_OR_RETURN(double mre, MeanRelativeError(result.q_ordinary, q));
    result.q_ppm.Add(q);
    result.precision.Add(cm.Precision());
    result.recall.Add(cm.Recall());
    result.mre.Add(mre);
  }
  return result;
}

ResultTable SweepResult::ToTable(int precision) const {
  std::vector<std::string> headers = {"mechanism"};
  for (double e : epsilons) headers.push_back(StrFormat("eps=%.2f", e));
  ResultTable table(std::move(headers));
  for (size_t m = 0; m < mechanisms.size(); ++m) {
    // AddRow only fails on column-count mismatch, which is impossible here.
    (void)table.AddRow(mechanisms[m], mre[m], precision);
  }
  return table;
}

StatusOr<SweepResult> SweepEpsilons(const Dataset& dataset,
                                    const std::vector<std::string>& mechanisms,
                                    const std::vector<double>& epsilons,
                                    const EvaluationConfig& base_config) {
  if (mechanisms.empty() || epsilons.empty()) {
    return Status::InvalidArgument("need at least one mechanism and epsilon");
  }
  SweepResult sweep;
  sweep.mechanisms = mechanisms;
  sweep.epsilons = epsilons;
  sweep.mre.assign(mechanisms.size(),
                   std::vector<double>(epsilons.size(), 0.0));
  sweep.mre_sem.assign(mechanisms.size(),
                       std::vector<double>(epsilons.size(), 0.0));
  for (size_t m = 0; m < mechanisms.size(); ++m) {
    for (size_t e = 0; e < epsilons.size(); ++e) {
      EvaluationConfig config = base_config;
      config.mechanism = mechanisms[m];
      config.epsilon = epsilons[e];
      PLDP_ASSIGN_OR_RETURN(EvaluationResult r, RunEvaluation(dataset, config));
      sweep.mre[m][e] = r.mre.mean();
      sweep.mre_sem[m][e] = r.mre.sem();
    }
  }
  return sweep;
}

}  // namespace pldp
