// Copyright 2026 The PLDP Authors.
//
// End-to-end integration tests: raw streams through windowing, pattern
// registration, every mechanism, and the evaluation pipeline — on both the
// synthetic (Algorithm 2) and taxi substrates. These tests pin the *shape*
// of the paper's results at small scale.

#include <gtest/gtest.h>

#include "core/pldp.h"

namespace pldp {
namespace {

EvaluationConfig FastConfig(size_t reps = 6) {
  EvaluationConfig cfg;
  cfg.repetitions = reps;
  cfg.mechanism_options.adaptive.trials = 8;
  cfg.mechanism_options.adaptive.max_rounds = 4;
  return cfg;
}

TEST(IntegrationTest, EveryMechanismRunsOnSynthetic) {
  SyntheticOptions opt;
  opt.num_windows = 150;
  Dataset ds = GenerateSynthetic(opt, 17).value().dataset;
  for (const std::string& name : AllMechanismNames()) {
    EvaluationConfig cfg = FastConfig(3);
    cfg.mechanism = name;
    auto r = RunEvaluation(ds, cfg);
    ASSERT_TRUE(r.ok()) << name << ": " << r.status().ToString();
    EXPECT_LE(r->mre.mean(), 1.0) << name;
  }
}

TEST(IntegrationTest, EveryMechanismRunsOnTaxi) {
  TaxiOptions opt;
  opt.grid_width = 8;
  opt.grid_height = 8;
  opt.num_taxis = 25;
  opt.num_ticks = 120;
  Dataset ds = GenerateTaxi(opt, 19).value().dataset;
  for (const std::string& name : AllMechanismNames()) {
    EvaluationConfig cfg = FastConfig(3);
    cfg.mechanism = name;
    auto r = RunEvaluation(ds, cfg);
    ASSERT_TRUE(r.ok()) << name << ": " << r.status().ToString();
  }
}

TEST(IntegrationTest, PaperShapeOnSynthetic) {
  SyntheticOptions opt;
  opt.num_windows = 400;
  Dataset ds = GenerateSynthetic(opt, 7).value().dataset;
  EvaluationConfig cfg = FastConfig(8);
  cfg.mechanism_options.adaptive.trials = 16;
  auto sweep =
      SweepEpsilons(ds, {"uniform", "adaptive", "bd", "ba", "landmark"},
                    {1.0, 5.0}, cfg)
          .value();
  // Pattern-level PPMs beat every stream-level baseline at both budgets.
  for (size_t e = 0; e < 2; ++e) {
    EXPECT_LT(sweep.mre[0][e], sweep.mre[2][e]) << "uniform vs bd, e=" << e;
    EXPECT_LT(sweep.mre[0][e], sweep.mre[3][e]) << "uniform vs ba, e=" << e;
    EXPECT_LT(sweep.mre[0][e], sweep.mre[4][e])
        << "uniform vs landmark, e=" << e;
    EXPECT_LT(sweep.mre[1][e], sweep.mre[2][e]) << "adaptive vs bd, e=" << e;
  }
  // MRE decreases with ε for the pattern-level PPMs.
  EXPECT_GT(sweep.mre[0][0], sweep.mre[0][1]);
  EXPECT_GT(sweep.mre[1][0], sweep.mre[1][1]);
}

TEST(IntegrationTest, UniformEqualsAdaptiveOnSingleElementPatterns) {
  // The taxi experiment's observation: with pattern length 1, Algorithm 1
  // has nothing to redistribute — the two pattern-level PPMs coincide.
  TaxiOptions opt;
  opt.grid_width = 8;
  opt.grid_height = 8;
  opt.num_taxis = 20;
  opt.num_ticks = 100;
  Dataset ds = GenerateTaxi(opt, 23).value().dataset;
  EvaluationConfig cfg = FastConfig(5);
  cfg.epsilon = 1.0;
  cfg.mechanism = "uniform";
  auto uniform = RunEvaluation(ds, cfg).value();
  cfg.mechanism = "adaptive";
  auto adaptive = RunEvaluation(ds, cfg).value();
  EXPECT_DOUBLE_EQ(uniform.mre.mean(), adaptive.mre.mean());
}

TEST(IntegrationTest, FullPipelineDeterministic) {
  SyntheticOptions opt;
  opt.num_windows = 100;
  Dataset ds = GenerateSynthetic(opt, 29).value().dataset;
  EvaluationConfig cfg = FastConfig(4);
  cfg.mechanism = "ba";
  double first = RunEvaluation(ds, cfg).value().mre.mean();
  double second = RunEvaluation(ds, cfg).value().mre.mean();
  EXPECT_DOUBLE_EQ(first, second);
}

TEST(IntegrationTest, PrivateEngineMatchesEvaluationPath) {
  // The PrivateCepEngine facade and the evaluation pipeline publish through
  // the same mechanism; with a huge budget both must reproduce ground truth.
  PrivateCepEngine engine;
  EventTypeId a = engine.InternEventType("a");
  EventTypeId b = engine.InternEventType("b");
  ASSERT_TRUE(engine
                  .RegisterPrivatePattern(
                      Pattern::Create("priv", {a},
                                      DetectionMode::kConjunction)
                          .value())
                  .ok());
  QueryId q = engine
                  .RegisterTargetQuery(
                      "q", Pattern::Create("tgt", {a, b},
                                           DetectionMode::kConjunction)
                               .value())
                  .value();
  ASSERT_TRUE(
      engine.Activate(std::make_unique<UniformPatternPpm>(), 100.0).ok());

  EventStream stream;
  Rng gen(31);
  for (Timestamp t = 0; t < 200; ++t) {
    if (gen.Bernoulli(0.5)) stream.AppendUnchecked(Event(a, t));
    if (gen.Bernoulli(0.5)) stream.AppendUnchecked(Event(b, t));
  }
  TumblingWindower windower(10);
  auto windows = windower.Apply(stream).value();
  Rng rng(37);
  auto published = engine.ProcessWindows(windows, &rng).value();
  auto truth = engine.GroundTruth(windows).value();
  EXPECT_EQ(published.answers[q].answers(), truth.answers[q].answers());
}

}  // namespace
}  // namespace pldp
