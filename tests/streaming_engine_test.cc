// Copyright 2026 The PLDP Authors.
//
// Tests for the online CEP engine, including the equivalence property
// against the window-batch path on tumbling windows.

#include "cep/streaming_engine.h"

#include <gtest/gtest.h>

#include "cep/engine.h"
#include "common/random.h"
#include "stream/window.h"

namespace pldp {
namespace {

Pattern Seq(std::vector<EventTypeId> elems) {
  return Pattern::Create("seq", std::move(elems), DetectionMode::kSequence)
      .value();
}

TEST(StreamingEngineTest, AddQueryValidates) {
  StreamingCepEngine engine;
  EXPECT_EQ(engine.AddQuery(Seq({0, 1}), 10).value(), 0u);
  EXPECT_EQ(engine.AddQuery(Seq({2}), 10).value(), 1u);
  EXPECT_EQ(engine.query_count(), 2u);
}

TEST(StreamingEngineTest, DetectsAndCounts) {
  StreamingCepEngine engine;
  size_t q = engine.AddQuery(Seq({0, 1}), 10).value();
  ASSERT_TRUE(engine.OnEvent(Event(0, 1)).ok());
  ASSERT_TRUE(engine.OnEvent(Event(1, 3)).ok());
  ASSERT_TRUE(engine.OnEvent(Event(2, 4)).ok());
  EXPECT_EQ(engine.events_processed(), 3u);
  EXPECT_EQ(engine.total_detections(), 1u);
  auto det = engine.DetectionsOf(q).value();
  ASSERT_EQ(det.size(), 1u);
  EXPECT_EQ(det[0], 3);
}

TEST(StreamingEngineTest, DetectionsOfValidatesIndex) {
  StreamingCepEngine engine;
  EXPECT_TRUE(engine.DetectionsOf(0).status().IsOutOfRange());
}

TEST(StreamingEngineTest, CallbackFiresPerDetection) {
  StreamingCepEngine engine;
  engine.AddQuery(Seq({0}), 0).value();
  engine.AddQuery(Seq({0, 0}), 0).value();
  std::vector<StreamingDetection> seen;
  engine.SetCallback(
      [&seen](const StreamingDetection& d) { seen.push_back(d); });
  engine.OnEvent(Event(0, 1)).ok();  // query 0 fires
  engine.OnEvent(Event(0, 2)).ok();  // both fire
  ASSERT_EQ(seen.size(), 3u);
  EXPECT_EQ(seen[0].query_index, 0u);
  EXPECT_EQ(seen[1].query_index, 0u);
  EXPECT_EQ(seen[2].query_index, 1u);
  EXPECT_EQ(seen[2].at, 2);
}

TEST(StreamingEngineTest, WorksAsReplaySubscriber) {
  StreamingCepEngine engine;
  size_t q = engine.AddQuery(Seq({0, 1}), 100).value();
  EventStream s;
  s.AppendUnchecked(Event(0, 1));
  s.AppendUnchecked(Event(1, 5));
  s.AppendUnchecked(Event(0, 9));
  s.AppendUnchecked(Event(1, 12));
  StreamReplayer replayer;
  replayer.Subscribe(&engine);
  ASSERT_TRUE(replayer.Run(s).ok());
  EXPECT_EQ(engine.events_processed(), 4u);
  EXPECT_EQ(engine.DetectionsOf(q).value().size(), 2u);
}

/// Equivalence property: on streams whose events fall in disjoint tumbling
/// windows, the streaming engine with a window constraint equal to the
/// tumbling size detects a pattern iff some batch window contains it —
/// provided matches cannot straddle window boundaries. We enforce that by
/// giving each window its own disjoint timestamp range and a constraint
/// strictly smaller than the gap between windows.
class StreamVsBatchSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(StreamVsBatchSweep, TumblingWindowDetectionAgrees) {
  Rng rng(GetParam());
  const size_t kTypes = 3;
  Pattern p = Seq({0, 1});

  // Build windows of 5 events at timestamps [100k, 100k+5).
  std::vector<Window> windows;
  EventStream stream;
  const size_t num_windows = 10;
  for (size_t wi = 0; wi < num_windows; ++wi) {
    Window w;
    w.start = static_cast<Timestamp>(wi * 100);
    w.end = w.start + 100;
    for (size_t j = 0; j < 5; ++j) {
      Event e(static_cast<EventTypeId>(rng.UniformUint64(kTypes)),
              w.start + static_cast<Timestamp>(j));
      w.events.push_back(e);
      stream.AppendUnchecked(e);
    }
    windows.push_back(std::move(w));
  }

  size_t batch_hits = 0;
  for (const Window& w : windows) {
    if (PatternOccursInWindow(w, p).value()) ++batch_hits;
  }

  StreamingCepEngine engine;
  size_t q = engine.AddQuery(p, /*window=*/10).value();
  for (const Event& e : stream) ASSERT_TRUE(engine.OnEvent(e).ok());

  // The streaming matcher reports every completion; count distinct batch
  // windows with at least one detection.
  auto detections = engine.DetectionsOf(q).value();
  std::set<Timestamp> hit_windows;
  for (Timestamp t : detections) hit_windows.insert(t / 100);
  EXPECT_EQ(hit_windows.size(), batch_hits) << "seed=" << GetParam();
}

INSTANTIATE_TEST_SUITE_P(RandomStreams, StreamVsBatchSweep,
                         ::testing::Range<uint64_t>(0, 30));

}  // namespace
}  // namespace pldp
