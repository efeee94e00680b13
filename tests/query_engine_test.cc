// Copyright 2026 The PLDP Authors.
//
// Tests for AnswerSeries and the plain CepEngine.

#include "cep/engine.h"

#include <gtest/gtest.h>

namespace pldp {
namespace {

TEST(AnswerSeriesTest, AppendAndAccess) {
  AnswerSeries s;
  s.Append(true);
  s.Append(false);
  s.Append(true);
  EXPECT_EQ(s.size(), 3u);
  EXPECT_TRUE(s[0]);
  EXPECT_FALSE(s[1]);
  EXPECT_EQ(s.PositiveCount(), 2u);
}

class CepEngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    a_ = engine_.InternEventType("a");
    b_ = engine_.InternEventType("b");
    c_ = engine_.InternEventType("c");
    seq_ab_ = engine_
                  .RegisterPattern(Pattern::Create(
                                       "seq_ab", {a_, b_},
                                       DetectionMode::kSequence)
                                       .value())
                  .value();
    conj_bc_ = engine_
                   .RegisterPattern(Pattern::Create(
                                        "conj_bc", {b_, c_},
                                        DetectionMode::kConjunction)
                                        .value())
                   .value();
  }

  CepEngine engine_;
  EventTypeId a_ = 0, b_ = 0, c_ = 0;
  PatternId seq_ab_ = 0, conj_bc_ = 0;
};

TEST_F(CepEngineTest, RegisterQueryValidatesPattern) {
  EXPECT_TRUE(engine_.RegisterQuery("q", seq_ab_).ok());
  EXPECT_TRUE(engine_.RegisterQuery("bad", 99).status().IsNotFound());
  EXPECT_TRUE(engine_.RegisterQuery("q", conj_bc_).status().IsAlreadyExists());
}

}  // namespace
}  // namespace pldp
