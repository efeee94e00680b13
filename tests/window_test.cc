// Copyright 2026 The PLDP Authors.
//
// Tests for tumbling windows, including the coverage property (each event
// lands in exactly the window whose bounds contain it).

#include "stream/window.h"

#include <gtest/gtest.h>

#include "common/random.h"

namespace pldp {
namespace {

EventStream MakeStream(std::initializer_list<Timestamp> timestamps) {
  EventStream s;
  EventTypeId t = 0;
  for (Timestamp ts : timestamps) {
    s.AppendUnchecked(Event(t++ % 3, ts));
  }
  return s;
}

TEST(WindowTest, ContainsType) {
  Window w;
  w.events = {Event(0, 1), Event(1, 2), Event(0, 3)};
  EXPECT_TRUE(w.ContainsType(0));
  EXPECT_TRUE(w.ContainsType(1));
  EXPECT_FALSE(w.ContainsType(2));
}

TEST(TumblingWindowerTest, PartitionsStream) {
  auto s = MakeStream({0, 1, 9, 10, 11, 25});
  TumblingWindower w(10);
  auto windows = w.Apply(s).value();
  ASSERT_EQ(windows.size(), 3u);
  EXPECT_EQ(windows[0].start, 0);
  EXPECT_EQ(windows[0].end, 10);
  EXPECT_EQ(windows[0].events.size(), 3u);
  EXPECT_EQ(windows[1].events.size(), 2u);
  EXPECT_EQ(windows[2].events.size(), 1u);
}

TEST(TumblingWindowerTest, EmitsEmptyMiddleWindows) {
  auto s = MakeStream({0, 35});
  TumblingWindower w(10);
  auto windows = w.Apply(s).value();
  ASSERT_EQ(windows.size(), 4u);
  EXPECT_TRUE(windows[1].events.empty());
  EXPECT_TRUE(windows[2].events.empty());
  EXPECT_EQ(windows[3].events.size(), 1u);
}

TEST(TumblingWindowerTest, EmptyStreamNoWindows) {
  TumblingWindower w(10);
  EXPECT_TRUE(w.Apply(EventStream()).value().empty());
}

TEST(TumblingWindowerTest, RejectsNonPositiveSize) {
  TumblingWindower w(0);
  EXPECT_FALSE(w.Apply(MakeStream({1})).ok());
}

TEST(TumblingWindowerTest, NegativeTimestampsAligned) {
  auto s = MakeStream({-15, -5, 5});
  TumblingWindower w(10);
  auto windows = w.Apply(s).value();
  ASSERT_EQ(windows.size(), 3u);
  EXPECT_EQ(windows[0].start, -20);
  EXPECT_EQ(windows[0].events.size(), 1u);
  EXPECT_EQ(windows[1].start, -10);
  EXPECT_EQ(windows[2].start, 0);
}

TEST(TumblingWindowerTest, OriginShiftsAlignment) {
  auto s = MakeStream({0, 4, 5, 9});
  TumblingWindower w(10, /*origin=*/5);
  auto windows = w.Apply(s).value();
  ASSERT_EQ(windows.size(), 2u);
  EXPECT_EQ(windows[0].start, -5);
  EXPECT_EQ(windows[0].events.size(), 2u);  // ts 0, 4
  EXPECT_EQ(windows[1].start, 5);
  EXPECT_EQ(windows[1].events.size(), 2u);  // ts 5, 9
}

TEST(TumblingWindowerTest, EveryEventCoveredExactlyOnce) {
  Rng rng(3);
  EventStream s;
  Timestamp ts = -50;
  for (int i = 0; i < 300; ++i) {
    ts += static_cast<Timestamp>(rng.UniformUint64(4));
    s.AppendUnchecked(Event(0, ts));
  }
  TumblingWindower w(7);
  auto windows = w.Apply(s).value();
  size_t covered = 0;
  for (const Window& win : windows) {
    EXPECT_EQ(win.end - win.start, 7);
    for (const Event& e : win.events) {
      EXPECT_GE(e.timestamp(), win.start);
      EXPECT_LT(e.timestamp(), win.end);
    }
    covered += win.events.size();
  }
  EXPECT_EQ(covered, s.size());
}

}  // namespace
}  // namespace pldp
