// Copyright 2026 The PLDP Authors.
//
// Tests for event streams: ordering invariants, slicing, k-way merge, and
// online replay.

#include "stream/event_stream.h"

#include <gtest/gtest.h>

#include "common/random.h"
#include "stream/replay.h"

namespace pldp {
namespace {

EventStream MakeStream(std::initializer_list<std::pair<EventTypeId, Timestamp>>
                           events,
                       StreamId sid = 0) {
  EventStream s;
  for (auto [type, ts] : events) {
    s.AppendUnchecked(Event(type, ts, sid));
  }
  return s;
}

TEST(EventStreamTest, AppendEnforcesOrder) {
  EventStream s;
  EXPECT_TRUE(s.Append(Event(0, 5)).ok());
  EXPECT_TRUE(s.Append(Event(0, 5)).ok());   // equal timestamps allowed
  EXPECT_TRUE(s.Append(Event(0, 10)).ok());
  EXPECT_TRUE(s.Append(Event(0, 9)).IsInvalidArgument());
  EXPECT_EQ(s.size(), 3u);
}

TEST(EventStreamTest, MinMaxTimestamps) {
  auto s = MakeStream({{0, 3}, {1, 7}, {0, 9}});
  EXPECT_EQ(s.min_timestamp(), 3);
  EXPECT_EQ(s.max_timestamp(), 9);
  EventStream empty;
  EXPECT_EQ(empty.min_timestamp(), 0);
  EXPECT_EQ(empty.max_timestamp(), 0);
}

TEST(EventStreamTest, IsTemporallyOrdered) {
  EXPECT_TRUE(MakeStream({{0, 1}, {0, 1}, {0, 2}}).IsTemporallyOrdered());
  EXPECT_TRUE(EventStream().IsTemporallyOrdered());
}

TEST(MergeStreamsTest, InterleavesByTimestamp) {
  auto a = MakeStream({{0, 1}, {0, 5}, {0, 9}}, 0);
  auto b = MakeStream({{1, 2}, {1, 6}}, 1);
  auto c = MakeStream({{2, 3}}, 2);
  EventStream merged = MergeStreams({a, b, c});
  ASSERT_EQ(merged.size(), 6u);
  EXPECT_TRUE(merged.IsTemporallyOrdered());
  EXPECT_EQ(merged[0].timestamp(), 1);
  EXPECT_EQ(merged[5].timestamp(), 9);
}

TEST(MergeStreamsTest, TiesBrokenByStreamId) {
  auto a = MakeStream({{0, 5}}, 2);
  auto b = MakeStream({{1, 5}}, 1);
  EventStream merged = MergeStreams({a, b});
  ASSERT_EQ(merged.size(), 2u);
  EXPECT_EQ(merged[0].stream(), 1u);
  EXPECT_EQ(merged[1].stream(), 2u);
}

TEST(MergeStreamsTest, HandlesEmptyInputs) {
  EXPECT_EQ(MergeStreams({}).size(), 0u);
  EXPECT_EQ(MergeStreams({EventStream(), EventStream()}).size(), 0u);
  auto a = MakeStream({{0, 1}});
  EXPECT_EQ(MergeStreams({a, EventStream()}).size(), 1u);
}

TEST(MergeStreamsTest, MergeOfManyRandomStreamsIsSorted) {
  Rng rng(99);
  std::vector<EventStream> streams(10);
  for (size_t i = 0; i < streams.size(); ++i) {
    Timestamp ts = 0;
    for (int j = 0; j < 50; ++j) {
      ts += static_cast<Timestamp>(rng.UniformUint64(5));
      streams[i].AppendUnchecked(
          Event(static_cast<EventTypeId>(j % 3), ts,
                static_cast<StreamId>(i)));
    }
  }
  EventStream merged = MergeStreams(streams);
  EXPECT_EQ(merged.size(), 500u);
  EXPECT_TRUE(merged.IsTemporallyOrdered());
}

// --- replay -------------------------------------------------------------------

class RecordingSubscriber : public StreamSubscriber {
 public:
  Status OnEvent(const Event& e) override {
    events.push_back(e.timestamp());
    return Status::OK();
  }
  Status OnTick(Timestamp t) override {
    ticks.push_back(t);
    return Status::OK();
  }
  Status OnEnd() override {
    ended = true;
    return Status::OK();
  }

  std::vector<Timestamp> events;
  std::vector<Timestamp> ticks;
  bool ended = false;
};

TEST(ReplayTest, DeliversEventsTicksAndEnd) {
  auto s = MakeStream({{0, 1}, {1, 1}, {0, 2}, {0, 5}});
  RecordingSubscriber sub;
  StreamReplayer replayer;
  replayer.Subscribe(&sub);
  ASSERT_TRUE(replayer.Run(s).ok());
  EXPECT_EQ(sub.events, (std::vector<Timestamp>{1, 1, 2, 5}));
  // One tick per distinct timestamp.
  EXPECT_EQ(sub.ticks, (std::vector<Timestamp>{1, 2, 5}));
  EXPECT_TRUE(sub.ended);
}

TEST(ReplayTest, MultipleSubscribersAllServed) {
  auto s = MakeStream({{0, 1}, {0, 2}});
  RecordingSubscriber a;
  RecordingSubscriber b;
  StreamReplayer replayer;
  replayer.Subscribe(&a);
  replayer.Subscribe(&b);
  ASSERT_TRUE(replayer.Run(s).ok());
  EXPECT_EQ(a.events.size(), 2u);
  EXPECT_EQ(b.events.size(), 2u);
}

TEST(ReplayTest, CallbackErrorStopsReplay) {
  auto s = MakeStream({{0, 1}, {0, 2}, {0, 3}});
  int count = 0;
  CallbackSubscriber failing([&count](const Event&) {
    if (++count == 2) return Status::Internal("stop");
    return Status::OK();
  });
  StreamReplayer replayer;
  replayer.Subscribe(&failing);
  Status status = replayer.Run(s);
  EXPECT_TRUE(status.IsInternal());
  EXPECT_EQ(count, 2);
}

TEST(ReplayTest, EmptyStreamFiresOnlyEnd) {
  RecordingSubscriber sub;
  StreamReplayer replayer;
  replayer.Subscribe(&sub);
  ASSERT_TRUE(replayer.Run(EventStream()).ok());
  EXPECT_TRUE(sub.events.empty());
  EXPECT_TRUE(sub.ticks.empty());
  EXPECT_TRUE(sub.ended);
}

TEST(ReplayTest, IgnoresNullSubscriber) {
  StreamReplayer replayer;
  replayer.Subscribe(nullptr);
  EXPECT_EQ(replayer.subscriber_count(), 0u);
}

}  // namespace
}  // namespace pldp
