// Copyright 2026 The PLDP Authors.
//
// Tests for the event model: values, event types, events.

#include "event/event.h"

#include <gtest/gtest.h>

#include "event/event_type.h"
#include "event/value.h"

namespace pldp {
namespace {

// --- Value -----------------------------------------------------------------

TEST(ValueTest, KindsAndAccessors) {
  EXPECT_TRUE(Value(true).is_bool());
  EXPECT_TRUE(Value(int64_t{4}).is_int());
  EXPECT_TRUE(Value(2.5).is_double());
  EXPECT_TRUE(Value("s").is_string());

  EXPECT_EQ(Value(true).AsBool().value(), true);
  EXPECT_EQ(Value(int64_t{4}).AsInt().value(), 4);
  EXPECT_DOUBLE_EQ(Value(2.5).AsDouble().value(), 2.5);
  EXPECT_EQ(Value("s").AsStringView().value(), "s");
}

TEST(ValueTest, KindMismatchErrors) {
  EXPECT_FALSE(Value(true).AsInt().ok());
  EXPECT_FALSE(Value(int64_t{1}).AsStringView().ok());
  EXPECT_FALSE(Value("x").AsDouble().ok());
}

TEST(ValueTest, EqualityRequiresSameKind) {
  EXPECT_EQ(Value(int64_t{1}), Value(int64_t{1}));
  EXPECT_NE(Value(int64_t{1}), Value(1.0));  // int vs double
  EXPECT_NE(Value(int64_t{1}), Value(int64_t{2}));
  EXPECT_EQ(Value("a"), Value(std::string("a")));
}

TEST(ValueTest, ToStringRendering) {
  EXPECT_EQ(Value(true).ToString(), "true");
  EXPECT_EQ(Value(int64_t{42}).ToString(), "42");
  EXPECT_EQ(Value("cell").ToString(), "\"cell\"");
}

TEST(ValueTest, DefaultIsIntZero) {
  Value v;
  EXPECT_TRUE(v.is_int());
  EXPECT_EQ(v.AsInt().value(), 0);
}

TEST(ValueTest, AsStringViewIsNonCopyingAliasOfOwnedPayload) {
  const Value v("payload");
  StatusOr<std::string_view> view = v.AsStringView();
  ASSERT_TRUE(view.ok());
  EXPECT_EQ(view.value(), "payload");
  EXPECT_FALSE(Value(int64_t{1}).AsStringView().ok());
}

TEST(EventTest, FindAttributeReturnsPointerWithoutCopy) {
  Event e(0, 5);
  e.SetAttribute("speed", Value(50.5));
  const Value* found = e.FindAttribute("speed");
  ASSERT_NE(found, nullptr);
  EXPECT_DOUBLE_EQ(found->AsDouble().value(), 50.5);
  // The pointer aliases the event's storage: a replacement shows through.
  e.SetAttribute("speed", Value(60.0));
  EXPECT_DOUBLE_EQ(e.FindAttribute("speed")->AsDouble().value(), 60.0);
  EXPECT_EQ(e.FindAttribute("missing"), nullptr);
}

// --- EventTypeRegistry -------------------------------------------------------

TEST(EventTypeRegistryTest, InternIsIdempotent) {
  EventTypeRegistry reg;
  EventTypeId a = reg.Intern("x");
  EXPECT_EQ(reg.Intern("x"), a);
  EXPECT_EQ(reg.size(), 1u);
}

TEST(EventTypeRegistryTest, LookupAndName) {
  EventTypeRegistry reg;
  EventTypeId id = reg.Intern("sensor");
  EXPECT_EQ(reg.Lookup("sensor").value(), id);
  EXPECT_EQ(reg.Name(id).value(), "sensor");
  EXPECT_TRUE(reg.Lookup("missing").status().IsNotFound());
  EXPECT_TRUE(reg.Name(99).status().IsNotFound());
}

TEST(EventTypeRegistryTest, MakeDenseNamesSequentially) {
  EventTypeRegistry reg = EventTypeRegistry::MakeDense(3, "e");
  EXPECT_EQ(reg.size(), 3u);
  EXPECT_EQ(reg.Name(0).value(), "e0");
  EXPECT_EQ(reg.Name(2).value(), "e2");
}

TEST(EventTypeRegistryTest, ContainsChecksBounds) {
  EventTypeRegistry reg = EventTypeRegistry::MakeDense(2);
  EXPECT_TRUE(reg.Contains(0));
  EXPECT_TRUE(reg.Contains(1));
  EXPECT_FALSE(reg.Contains(2));
  EXPECT_FALSE(reg.Contains(kInvalidEventType));
}

// --- Event --------------------------------------------------------------------

TEST(EventTest, BasicFields) {
  Event e(3, 100, 7);
  EXPECT_EQ(e.type(), 3u);
  EXPECT_EQ(e.timestamp(), 100);
  EXPECT_EQ(e.stream(), 7u);
}

TEST(EventTest, AttributesSetAndGet) {
  Event e(0, 0);
  e.SetAttribute("speed", Value(50.5));
  e.SetAttribute("cell", Value(int64_t{12}));
  EXPECT_EQ(e.attribute_count(), 2u);
  EXPECT_DOUBLE_EQ(e.GetAttribute("speed")->AsDouble().value(), 50.5);
  EXPECT_FALSE(e.GetAttribute("missing").has_value());
}

TEST(EventTest, SetAttributeReplaces) {
  Event e(0, 0);
  e.SetAttribute("x", Value(int64_t{1}));
  e.SetAttribute("x", Value(int64_t{2}));
  EXPECT_EQ(e.attribute_count(), 1u);
  EXPECT_EQ(e.GetAttribute("x")->AsInt().value(), 2);
}

TEST(EventTest, EqualityIncludesAttributes) {
  Event a(1, 5);
  Event b(1, 5);
  EXPECT_EQ(a, b);
  a.SetAttribute("k", Value(int64_t{1}));
  EXPECT_NE(a, b);
  b.SetAttribute("k", Value(int64_t{1}));
  EXPECT_EQ(a, b);
}

TEST(EventTest, ToStringWithRegistry) {
  EventTypeRegistry reg;
  EventTypeId t = reg.Intern("gps");
  Event e(t, 17);
  e.SetAttribute("cell", Value(int64_t{42}));
  EXPECT_EQ(e.ToString(&reg), "gps@17{cell=42}");
  EXPECT_EQ(Event(5, 2).ToString(), "type5@2");
}

TEST(EventTemporalOrderTest, OrdersByTimestampThenStreamThenType) {
  EventTemporalOrder lt;
  EXPECT_TRUE(lt(Event(0, 1), Event(0, 2)));
  EXPECT_FALSE(lt(Event(0, 2), Event(0, 1)));
  // Same timestamp: stream breaks the tie.
  EXPECT_TRUE(lt(Event(0, 1, 0), Event(0, 1, 1)));
  // Same timestamp and stream: type breaks the tie.
  EXPECT_TRUE(lt(Event(0, 1, 0), Event(1, 1, 0)));
  // Identical keys: not less.
  EXPECT_FALSE(lt(Event(1, 1, 1), Event(1, 1, 1)));
}

}  // namespace
}  // namespace pldp
