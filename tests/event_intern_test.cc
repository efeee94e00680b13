// Copyright 2026 The PLDP Authors.
//
// The interning layer and the flyweight event layout: InternTable
// publication semantics, symbol Values, Event's inline attribute buffer
// and its heap spill, and the correlation-key hash contract across the two
// text kinds.

#include "event/symbol_table.h"

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "cep/correlation_key.h"
#include "event/event.h"
#include "event/value.h"

namespace pldp {
namespace {

TEST(InternTableTest, InternIsGetOrCreateAndDense) {
  InternTable table;
  const uint32_t a = table.Intern("alpha");
  const uint32_t b = table.Intern("beta");
  EXPECT_NE(a, b);
  EXPECT_EQ(table.Intern("alpha"), a);
  EXPECT_EQ(table.Intern("beta"), b);
  EXPECT_EQ(table.size(), 2u);
  // Dense: both ids below size.
  EXPECT_LT(a, table.size());
  EXPECT_LT(b, table.size());
}

TEST(InternTableTest, FindNeverGrowsTheTable) {
  InternTable table;
  EXPECT_EQ(table.Find("never-interned"), kInvalidInternId);
  EXPECT_EQ(table.size(), 0u);
  const uint32_t id = table.Intern("present");
  EXPECT_EQ(table.Find("present"), id);
  EXPECT_EQ(table.size(), 1u);
}

TEST(InternTableTest, BudgetCapsNewEntries) {
  InternTable table;
  EXPECT_EQ(table.budget(), InternTable::kMaxEntries);
  table.SetBudget(2);
  EXPECT_EQ(table.budget(), 2u);
  const uint32_t a = table.Intern("alpha");
  const uint32_t b = table.Intern("beta");
  EXPECT_NE(a, kInvalidInternId);
  EXPECT_NE(b, kInvalidInternId);
  // Exhausted: new names fail, existing names keep resolving.
  EXPECT_EQ(table.Intern("gamma"), kInvalidInternId);
  EXPECT_EQ(table.Intern("alpha"), a);
  // Raising the budget unblocks registration.
  table.SetBudget(3);
  EXPECT_NE(table.Intern("gamma"), kInvalidInternId);
  EXPECT_EQ(table.size(), 3u);
}

TEST(InternTableTest, LoweringBudgetBelowSizeKeepsExistingIdsValid) {
  InternTable table;
  const uint32_t a = table.Intern("alpha");
  const uint32_t b = table.Intern("beta");
  table.SetBudget(1);  // below current size
  EXPECT_EQ(table.NameOf(a), "alpha");
  EXPECT_EQ(table.NameOf(b), "beta");
  EXPECT_EQ(table.Intern("alpha"), a);
  EXPECT_EQ(table.Intern("gamma"), kInvalidInternId);
  table.SetBudget(0);  // 0 restores the default cap
  EXPECT_EQ(table.budget(), InternTable::kMaxEntries);
  EXPECT_NE(table.Intern("gamma"), kInvalidInternId);
}

TEST(InternTableTest, NameOfRoundTripsAndRejectsInvalid) {
  InternTable table;
  const uint32_t id = table.Intern("cell");
  EXPECT_EQ(table.NameOf(id), "cell");
  EXPECT_EQ(table.NameOf(id + 1), "");
  EXPECT_EQ(table.NameOf(kInvalidInternId), "");
}

TEST(InternTableTest, ViewsStayValidAcrossBlockGrowth) {
  InternTable table;
  const uint32_t first = table.Intern("first");
  const std::string_view view = table.NameOf(first);
  // Force several blocks' worth of entries (block size is 1024).
  for (int i = 0; i < 3000; ++i) {
    table.Intern("filler_" + std::to_string(i));
  }
  EXPECT_EQ(view, "first");  // the early view must not have moved
  EXPECT_EQ(table.NameOf(table.Find("filler_2500")), "filler_2500");
}

TEST(InternTableTest, ConcurrentInternAndNameOfAgree) {
  // Readers race the writer through the lock-free NameOf path; every id a
  // reader observes below size() must resolve to a fully written name.
  InternTable table;
  std::thread writer([&table] {
    for (int i = 0; i < 2000; ++i) {
      table.Intern("w" + std::to_string(i));
    }
  });
  for (int pass = 0; pass < 200; ++pass) {
    const size_t n = table.size();
    for (uint32_t id = 0; id < n; ++id) {
      EXPECT_FALSE(table.NameOf(id).empty());
    }
  }
  writer.join();
  EXPECT_EQ(table.size(), 2000u);
}

TEST(SymbolValueTest, SymInternsAndComparesByContent) {
  const Value sym = Value::Sym("uptown");
  const Value same = Value::Sym("uptown");
  const Value other = Value::Sym("downtown");
  EXPECT_TRUE(sym.is_symbol());
  EXPECT_TRUE(sym.is_text());
  EXPECT_EQ(sym, same);
  EXPECT_NE(sym, other);
  // Cross-kind text equality: interned and owned payloads interchange.
  EXPECT_EQ(sym, Value("uptown"));
  EXPECT_EQ(Value("uptown"), sym);
  EXPECT_NE(sym, Value("downtown"));
}

TEST(SymbolValueTest, AsStringViewCoversBothTextKinds) {
  EXPECT_EQ(Value("owned").AsStringView().value(), "owned");
  EXPECT_EQ(Value::Sym("interned").AsStringView().value(), "interned");
  EXPECT_FALSE(Value(int64_t{3}).AsStringView().ok());
}

TEST(SymbolValueTest, TextNeverEqualsNonText) {
  EXPECT_NE(Value::Sym("1"), Value(int64_t{1}));
  EXPECT_NE(Value::Sym("true"), Value(true));
}

TEST(SymbolValueTest, ToStringRendersContent) {
  EXPECT_EQ(Value::Sym("cell_7").ToString(), "\"cell_7\"");
}

TEST(CorrelationKeyInternTest, SymbolAndStringWithEqualContentShareKeys) {
  EXPECT_EQ(CorrelationValueKey(Value::Sym("region-9")),
            CorrelationValueKey(Value("region-9")));
  EXPECT_NE(CorrelationValueKey(Value::Sym("region-9")),
            CorrelationValueKey(Value::Sym("region-8")));
}

TEST(EventInlineStorageTest, InlineAttributesNeedNoSpill) {
  Event e(0, 10);
  const AttrId cell = AttrNames().Intern("intern_test_cell");
  const AttrId zone = AttrNames().Intern("intern_test_zone");
  e.SetAttribute(cell, Value(int64_t{42}));
  e.SetAttribute(zone, Value::Sym("z1"));
  ASSERT_EQ(e.attribute_count(), Event::kInlineAttrCapacity);
  ASSERT_NE(e.FindAttribute(cell), nullptr);
  EXPECT_EQ(e.FindAttribute(cell)->AsInt().value(), 42);
  EXPECT_EQ(e.FindAttribute(zone)->AsStringView().value(), "z1");
  EXPECT_EQ(e.FindAttribute(AttrNames().Intern("intern_test_absent")),
            nullptr);
}

TEST(EventInlineStorageTest, SpillPreservesOrderAndLookup) {
  Event e(0, 10);
  // One past the inline capacity forces the spill path; several more walk
  // the spilled append path.
  const size_t total = Event::kInlineAttrCapacity + 3;
  std::vector<AttrId> ids;
  for (size_t i = 0; i < total; ++i) {
    ids.push_back(AttrNames().Intern("spill_attr_" + std::to_string(i)));
    e.SetAttribute(ids.back(), Value(static_cast<int64_t>(i)));
  }
  ASSERT_EQ(e.attribute_count(), total);
  for (size_t i = 0; i < total; ++i) {
    // Insertion order is preserved across the spill...
    EXPECT_EQ(e.attribute(i).id, ids[i]);
    // ...and id lookup still works for pre- and post-spill entries.
    ASSERT_NE(e.FindAttribute(ids[i]), nullptr);
    EXPECT_EQ(e.FindAttribute(ids[i])->AsInt().value(),
              static_cast<int64_t>(i));
  }
  // Replacement works in the spilled regime too.
  e.SetAttribute(ids[0], Value(int64_t{99}));
  EXPECT_EQ(e.attribute_count(), total);
  EXPECT_EQ(e.FindAttribute(ids[0])->AsInt().value(), 99);
}

TEST(EventInlineStorageTest, CopyOfSpilledEventIsDeep) {
  Event e(0, 10);
  const size_t total = Event::kInlineAttrCapacity + 1;
  for (size_t i = 0; i < total; ++i) {
    e.SetAttribute("deep_attr_" + std::to_string(i),
                   Value(static_cast<int64_t>(i)));
  }
  Event copy = e;
  EXPECT_EQ(copy, e);
  copy.SetAttribute("deep_attr_0", Value(int64_t{77}));
  EXPECT_NE(copy, e);
  EXPECT_EQ(e.FindAttribute("deep_attr_0")->AsInt().value(), 0);
}

TEST(EventInlineStorageTest, NameAndIdKeyedWritesMeetInOneIdSpace) {
  Event by_name(0, 1);
  by_name.SetAttribute("shared_name", Value::Sym("payload"));
  Event by_id(0, 1);
  by_id.SetAttribute(AttrNames().Intern("shared_name"), Value("payload"));
  // Same id space + cross-kind text equality => identical events.
  EXPECT_EQ(by_name, by_id);
  EXPECT_EQ(by_name.attribute_name(0), "shared_name");
}

TEST(EventInlineStorageTest, MoveLeavesNoSharing) {
  Event e(0, 10);
  e.SetAttribute("move_attr", Value::Sym("v"));
  Event moved = std::move(e);
  ASSERT_NE(moved.FindAttribute("move_attr"), nullptr);
  EXPECT_EQ(moved.FindAttribute("move_attr")->AsStringView().value(), "v");
}

TEST(EventInlineStorageTest, MovedFromSpilledEventStaysValid) {
  // Regression: the defaulted move nulled spill_ but left attr_count_, so
  // touching a moved-from spilled event read past the inline array.
  Event e(0, 10);
  for (size_t i = 0; i < Event::kInlineAttrCapacity + 2; ++i) {
    e.SetAttribute("moved_spill_" + std::to_string(i),
                   Value(static_cast<int64_t>(i)));
  }
  Event sink = std::move(e);
  EXPECT_EQ(sink.attribute_count(), Event::kInlineAttrCapacity + 2);
  // The moved-from event is valid and attribute-free: every accessor is
  // safe to call.
  EXPECT_EQ(e.attribute_count(), 0u);
  EXPECT_EQ(e.FindAttribute("moved_spill_0"), nullptr);
  EXPECT_NE(e.ToString(), "");
  Event reassigned;
  reassigned = std::move(sink);
  EXPECT_EQ(sink.attribute_count(), 0u);
  EXPECT_EQ(reassigned.attribute_count(), Event::kInlineAttrCapacity + 2);
  EXPECT_EQ(
      reassigned.FindAttribute("moved_spill_1")->AsInt().value(), 1);
}

}  // namespace
}  // namespace pldp
