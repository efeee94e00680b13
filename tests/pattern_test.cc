// Copyright 2026 The PLDP Authors.

#include "cep/pattern.h"

#include <gtest/gtest.h>

namespace pldp {
namespace {

Pattern Make(const std::string& name, std::vector<EventTypeId> elems,
             DetectionMode mode = DetectionMode::kSequence) {
  return Pattern::Create(name, std::move(elems), mode).value();
}

TEST(PatternTest, CreateValidatesNonEmpty) {
  EXPECT_FALSE(Pattern::Create("p", {}, DetectionMode::kSequence).ok());
  EXPECT_TRUE(Pattern::Create("p", {1}, DetectionMode::kSequence).ok());
}

TEST(PatternTest, BasicAccessors) {
  Pattern p = Make("p", {3, 1, 3});
  EXPECT_EQ(p.name(), "p");
  EXPECT_EQ(p.length(), 3u);
  EXPECT_EQ(p.mode(), DetectionMode::kSequence);
  EXPECT_TRUE(p.ContainsType(1));
  EXPECT_TRUE(p.ContainsType(3));
  EXPECT_FALSE(p.ContainsType(2));
}

TEST(PatternTest, DistinctTypesPreservesFirstSeenOrder) {
  Pattern p = Make("p", {3, 1, 3, 2, 1});
  EXPECT_EQ(p.DistinctTypes(), (std::vector<EventTypeId>{3, 1, 2}));
}

TEST(PatternTest, ToStringRendersModeAndElements) {
  EventTypeRegistry reg;
  EventTypeId a = reg.Intern("a");
  EventTypeId b = reg.Intern("b");
  Pattern p = Make("p", {a, b}, DetectionMode::kConjunction);
  EXPECT_EQ(p.ToString(&reg), "p=AND(a,b)");
  EXPECT_EQ(p.ToString(), "p=AND(0,1)");
}

TEST(DetectionModeTest, Names) {
  EXPECT_EQ(DetectionModeToString(DetectionMode::kSequence), "SEQ");
  EXPECT_EQ(DetectionModeToString(DetectionMode::kConjunction), "AND");
  EXPECT_EQ(DetectionModeToString(DetectionMode::kDisjunction), "OR");
}

TEST(PatternRegistryTest, RegisterAssignsDenseIds) {
  PatternRegistry reg;
  EXPECT_EQ(reg.Register(Make("a", {0})).value(), 0u);
  EXPECT_EQ(reg.Register(Make("b", {1})).value(), 1u);
  EXPECT_EQ(reg.size(), 2u);
  EXPECT_TRUE(reg.Contains(1));
  EXPECT_FALSE(reg.Contains(2));
}

TEST(PatternRegistryTest, RejectsDuplicateNames) {
  PatternRegistry reg;
  ASSERT_TRUE(reg.Register(Make("a", {0})).ok());
  EXPECT_TRUE(reg.Register(Make("a", {1})).status().IsAlreadyExists());
}

}  // namespace
}  // namespace pldp
