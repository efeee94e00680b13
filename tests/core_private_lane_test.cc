// Copyright 2026 The PLDP Authors.
//
// Error propagation out of the private lane's exchange tap: when the
// private lane-group's fabric is aborted mid-stream, the shard sinks'
// Emits of protected views start failing. The first failure must latch
// (no later view is forwarded) and surface from FinalizeStatus(), which is
// what Pipeline::Finish() returns after the runtime's own Finish.

#include "core/private_lane.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/random.h"
#include "ppm/factory.h"

namespace pldp {
namespace {

constexpr Timestamp kWindowSize = 4;
constexpr size_t kSubjects = 64;
constexpr size_t kEvents = 20000;

Pattern MakePattern(const char* name, std::vector<EventTypeId> elems,
                    DetectionMode mode) {
  return Pattern::Create(name, std::move(elems), mode).value();
}

/// Feeds `events[begin, end)` in 256-event batches.
Status Ingest(ParallelStreamingEngine& engine, const std::vector<Event>& events,
              size_t begin, size_t end) {
  constexpr size_t kBatch = 256;
  for (size_t i = begin; i < end; i += kBatch) {
    const size_t n = std::min(kBatch, end - i);
    PLDP_RETURN_IF_ERROR(engine.OnEventBatch(EventSpan(events.data() + i, n)));
  }
  return Status::OK();
}

/// Uniform subjects over 3 types; the clock advances every other event,
/// so every subject closes many windows.
std::vector<Event> MakeStream() {
  Rng rng(0x5eed);
  std::vector<Event> events;
  events.reserve(kEvents);
  for (size_t i = 0; i < kEvents; ++i) {
    events.push_back(
        Event(static_cast<EventTypeId>(rng.UniformUint64(3)),
              static_cast<Timestamp>(i / 2),
              static_cast<StreamId>(rng.UniformUint64(kSubjects))));
  }
  return events;
}

TEST(PrivateLaneTest, AbortedExchangeFailsFinishWithTheFirstEmitError) {
  // Two producers: once the fabric is aborted, every Emit of a protected
  // view fails at once.
  ParallelEngineOptions options;
  options.shard_count = 2;
  options.queue_capacity = 1024;
  options.exchange.shard_count = 1;
  options.exchange.lane_capacity = 64;
  ParallelStreamingEngine engine(options);

  PrivateLane lane(kWindowSize, /*window_origin=*/0, /*seed=*/7);
  const EventTypeId door = lane.InternEventType("door");
  const EventTypeId motion = lane.InternEventType("motion");
  const EventTypeId kettle = lane.InternEventType("kettle");
  const Pattern home_alone =
      MakePattern("home_alone", {door, motion}, DetectionMode::kConjunction);
  const Pattern breakfast =
      MakePattern("breakfast", {door, kettle}, DetectionMode::kSequence);
  const Pattern cross =
      MakePattern("x", {door, kettle}, DetectionMode::kConjunction);
  ASSERT_TRUE(lane.RegisterPrivatePattern(home_alone).ok());
  ASSERT_TRUE(lane.RegisterTargetQuery("breakfast", breakfast).ok());
  const MechanismFactory uniform = NamedMechanismFactory("uniform");
  ASSERT_TRUE(lane.Attach(&engine, uniform, /*epsilon=*/1.0).ok());
  ASSERT_TRUE(lane.AddCrossQuery(cross, 2 * kWindowSize).ok());
  ASSERT_TRUE(engine.Start().ok());

  const std::vector<Event> events = MakeStream();
  const size_t half = events.size() / 2;
  ASSERT_TRUE(Ingest(engine, events, 0, half).ok());
  ASSERT_TRUE(engine.Drain().ok());
  size_t forwarded = 0;
  for (const ShardStats& s : engine.ShardStatsSnapshot()) {
    forwarded += s.forwarded;
  }
  EXPECT_GT(forwarded, 0u) << "no protected view reached the exchange";

  engine.AbortExchange();
  ASSERT_TRUE(Ingest(engine, events, half, events.size()).ok());

  // The runtime's barrier still completes (watermarks never wait); the
  // lane reports the dropped views.
  ASSERT_TRUE(engine.Finish().ok());
  const Status status = lane.FinalizeStatus();
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition) << status;
  EXPECT_NE(status.message().find("aborted"), std::string::npos) << status;
  // Publication itself never failed: every subject's answers are complete.
  EXPECT_EQ(lane.SubjectIds().size(), kSubjects);
  EXPECT_GT(lane.total_windows(), kSubjects);
  EXPECT_TRUE(engine.Stop().ok());
}

}  // namespace
}  // namespace pldp
