// Copyright 2026 The PLDP Authors.
//
// Planner equivalence pinning for the declarative PipelineBuilder API:
// every topology the planner can choose — sharded, exchange (including two
// cross queries with *different* correlation keys in one pipeline), and
// private — must produce detections identical to the sequential engines
// under fixed seeds, at 1/2/4 shards. Also pins
// the typed-handle contract: results are only reachable through
// FinishedPipeline, and invalid/foreign handles are hard errors rather
// than silently empty results.

#include "api/pipeline_builder.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/private_engine.h"
#include "event/symbol_table.h"
#include "ppm/factory.h"
#include "ppm/subject_publisher.h"
#include "stream/replay.h"
#include "stream/window.h"

namespace pldp {
namespace {

constexpr uint64_t kSeed = 0x5eedULL;
constexpr Timestamp kQueryWindow = 8;
constexpr size_t kGroups = 4;
constexpr size_t kTypesPerGroup = 3;
constexpr size_t kSubjects = 16;

Pattern MakePattern(const char* name, std::vector<EventTypeId> elems,
                    DetectionMode mode) {
  return Pattern::Create(name, std::move(elems), mode).value();
}

/// Group-alphabet pattern: all three types of group `g`.
Pattern GroupPattern(size_t g, DetectionMode mode) {
  const auto base = static_cast<EventTypeId>(g * kTypesPerGroup);
  return MakePattern("group", {base, base + 1, base + 2}, mode);
}

/// A stream whose types come from per-group alphabets while subjects are
/// drawn independently, so group matches span subjects — the cross-subject
/// regime. Every event carries the group as a `zone` symbol attribute, so
/// attribute keying and the type-derived grouping agree.
EventStream CrossStream(size_t num_events, uint64_t seed) {
  const AttrId zone_attr = AttrNames().Intern("zone");
  std::vector<Value> zones;
  for (size_t g = 0; g < kGroups; ++g) {
    zones.push_back(Value::Sym("zone-" + std::to_string(g)));
  }
  Rng rng(seed);
  EventStream stream;
  stream.Reserve(num_events);
  for (size_t i = 0; i < num_events; ++i) {
    const size_t group = rng.UniformUint64(kGroups);
    const auto type = static_cast<EventTypeId>(
        group * kTypesPerGroup + rng.UniformUint64(kTypesPerGroup));
    const auto subject = static_cast<StreamId>(rng.UniformUint64(kSubjects));
    Event e(type, static_cast<Timestamp>(i / 8), subject);
    e.SetAttribute(zone_attr, zones[group]);
    stream.AppendUnchecked(std::move(e));
  }
  return stream;
}

/// Subject-local stream: per-subject alphabets (type = subject's group).
EventStream SubjectStream(size_t num_events, uint64_t seed) {
  Rng rng(seed);
  EventStream stream;
  stream.Reserve(num_events);
  for (size_t i = 0; i < num_events; ++i) {
    const auto subject =
        static_cast<StreamId>(rng.UniformUint64(kGroups));
    const auto type = static_cast<EventTypeId>(
        subject * kTypesPerGroup + rng.UniformUint64(kTypesPerGroup));
    stream.AppendUnchecked(
        Event(type, static_cast<Timestamp>(i / 8), subject));
  }
  return stream;
}

/// Hand-wired sequential reference over the full stream.
std::vector<std::vector<Timestamp>> SequentialDetections(
    const EventStream& stream, const std::vector<Pattern>& patterns) {
  StreamingCepEngine reference;
  std::vector<size_t> indices;
  for (const Pattern& p : patterns) {
    indices.push_back(reference.AddQuery(p, kQueryWindow).value());
  }
  for (const Event& e : stream) (void)reference.OnEvent(e);
  std::vector<std::vector<Timestamp>> result;
  for (size_t index : indices) {
    std::vector<Timestamp> d = reference.DetectionsOf(index).value();
    std::sort(d.begin(), d.end());
    result.push_back(std::move(d));
  }
  return result;
}

std::vector<Timestamp> Sorted(std::vector<Timestamp> v) {
  std::sort(v.begin(), v.end());
  return v;
}

/// Polls `pred` until it holds or 20 s pass.
template <typename Pred>
bool Eventually(Pred&& pred) {
  const auto start = std::chrono::steady_clock::now();
  while (!pred()) {
    if (std::chrono::steady_clock::now() - start > std::chrono::seconds(20)) {
      return false;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

// --- Planner decisions -----------------------------------------------------

TEST(PipelinePlannerTest, DistinctKeysGetDistinctLaneGroups) {
  PipelineBuilder builder;
  (void)builder.AddCrossQuery(GroupPattern(0, DetectionMode::kConjunction),
                              kQueryWindow,
                              CorrelationKey::ByAttribute("zone"));
  (void)builder.AddCrossQuery(GroupPattern(1, DetectionMode::kConjunction),
                              kQueryWindow, CorrelationKey::Global());
  (void)builder.AddCrossQuery(GroupPattern(2, DetectionMode::kConjunction),
                              kQueryWindow,
                              CorrelationKey::ByAttribute("zone"));
  auto pipeline_or = builder.WithShards(2).WithCrossShards(2).Build();
  ASSERT_TRUE(pipeline_or.ok()) << pipeline_or.status().ToString();
  const PipelinePlan& plan = pipeline_or.value()->plan();
  ASSERT_EQ(plan.cross_groups.size(), 2u);
  EXPECT_EQ(plan.cross_groups[0].key_id, "attr:zone");
  EXPECT_EQ(plan.cross_groups[0].query_count, 2u);
  EXPECT_EQ(plan.cross_groups[1].key_id, "global");
  EXPECT_EQ(plan.cross_groups[1].query_count, 1u);
}

TEST(PipelinePlannerTest, AutoKeyRunsQueryNeedsAnalysis) {
  const auto t0 = static_cast<EventTypeId>(0);
  PipelineBuilder builder;
  // Single distinct element type -> the analysis picks the event-type key.
  (void)builder.AddCrossQuery(
      MakePattern("pair", {t0, t0}, DetectionMode::kSequence), kQueryWindow);
  // Three distinct types -> nothing finer than global is safe.
  (void)builder.AddCrossQuery(GroupPattern(1, DetectionMode::kConjunction),
                              kQueryWindow);
  auto pipeline_or = builder.WithShards(2).WithCrossShards(2).Build();
  ASSERT_TRUE(pipeline_or.ok()) << pipeline_or.status().ToString();
  const PipelinePlan& plan = pipeline_or.value()->plan();
  ASSERT_EQ(plan.cross_groups.size(), 2u);
  EXPECT_EQ(plan.cross_groups[0].key_id, "event-type");
  EXPECT_EQ(plan.cross_groups[1].key_id, "global");
}

TEST(PipelinePlannerTest, ValidationErrors) {
  {
    PipelineBuilder builder;
    EXPECT_TRUE(builder.Build().status().IsInvalidArgument());
  }
  {
    // Private query without a mechanism.
    PipelineBuilder builder;
    builder.AddPrivatePattern(
        MakePattern("p", {0, 1}, DetectionMode::kConjunction));
    (void)builder.AddPrivateQuery(
        "q", MakePattern("t", {0, 1}, DetectionMode::kConjunction));
    EXPECT_TRUE(
        builder.WithPrivacyWindow(5).Build().status().IsInvalidArgument());
  }
  {
    // Malformed pattern latches and surfaces at Build.
    PipelineBuilder builder;
    QueryHandle handle = builder.AddQuery(
        Pattern::Create("empty", {}, DetectionMode::kSequence), kQueryWindow);
    EXPECT_FALSE(handle.valid());
    EXPECT_FALSE(builder.Build().ok());
  }
  {
    // A key error after planning started tears the half-built pipeline
    // down cleanly.
    PipelineBuilder builder;
    (void)builder.AddCrossQuery(GroupPattern(0, DetectionMode::kConjunction),
                                kQueryWindow,
                                CorrelationKey::Custom("broken", nullptr));
    EXPECT_TRUE(builder.Build().status().IsInvalidArgument());
  }
  {
    // Builders are single-use.
    PipelineBuilder builder;
    (void)builder.AddQuery(GroupPattern(0, DetectionMode::kSequence),
                           kQueryWindow);
    ASSERT_TRUE(builder.WithShards(1).Build().ok());
    EXPECT_TRUE(builder.Build().status().IsFailedPrecondition());
  }
}

// --- Equivalence: plain ----------------------------------------------------

TEST(PipelineEquivalenceTest, PlainQueriesMatchSequentialEngine) {
  const EventStream stream = SubjectStream(20000, 7);
  std::vector<Pattern> patterns;
  for (size_t g = 0; g < kGroups; ++g) {
    patterns.push_back(GroupPattern(g, DetectionMode::kSequence));
  }
  const auto reference = SequentialDetections(stream, patterns);

  for (size_t shards : {1u, 2u, 4u}) {
    PipelineBuilder builder;
    std::vector<QueryHandle> handles;
    for (const Pattern& p : patterns) {
      handles.push_back(builder.AddQuery(p, kQueryWindow));
    }
    auto pipeline_or = builder.WithShards(shards).WithSeed(kSeed).Build();
    ASSERT_TRUE(pipeline_or.ok()) << pipeline_or.status().ToString();
    Pipeline& pipeline = *pipeline_or.value();
    EXPECT_EQ(pipeline.plan().shard_count, shards);

    StreamReplayer replayer;
    replayer.Subscribe(&pipeline);
    ASSERT_TRUE(replayer.Run(stream, ReplayMode::kBatchPerTick).ok());

    auto finished_or = pipeline.Finish();
    ASSERT_TRUE(finished_or.ok());
    const FinishedPipeline& finished = finished_or.value();
    for (size_t q = 0; q < handles.size(); ++q) {
      auto detections = finished.Detections(handles[q]);
      ASSERT_TRUE(detections.ok());
      EXPECT_EQ(Sorted(detections.value()), reference[q])
          << "shards=" << shards << " q=" << q;
    }
    EXPECT_EQ(pipeline.events_processed(), stream.size());
  }
}

// --- Equivalence: two cross queries with different keys in one pipeline ----

TEST(PipelineEquivalenceTest, PerQueryCorrelationKeysMatchSequentialEngine) {
  const EventStream stream = CrossStream(20000, 11);
  const Pattern zone_pattern = GroupPattern(0, DetectionMode::kConjunction);
  const Pattern global_pattern = GroupPattern(1, DetectionMode::kSequence);
  const auto reference =
      SequentialDetections(stream, {zone_pattern, global_pattern});

  for (size_t shards : {1u, 2u, 4u}) {
    PipelineBuilder builder;
    // Two cross queries, each under its own correlation key — the
    // "per-query keys" capability one pipeline could not express before.
    CrossQueryHandle by_zone = builder.AddCrossQuery(
        zone_pattern, kQueryWindow, CorrelationKey::ByAttribute("zone"));
    CrossQueryHandle by_global = builder.AddCrossQuery(
        global_pattern, kQueryWindow, CorrelationKey::Global());
    auto pipeline_or =
        builder.WithShards(shards).WithCrossShards(2).WithSeed(kSeed).Build();
    ASSERT_TRUE(pipeline_or.ok()) << pipeline_or.status().ToString();
    Pipeline& pipeline = *pipeline_or.value();
    if (shards > 1) {
      ASSERT_EQ(pipeline.plan().cross_groups.size(), 2u);
    }

    StreamReplayer replayer;
    replayer.Subscribe(&pipeline);
    ASSERT_TRUE(replayer.Run(stream, ReplayMode::kBatchPerTick).ok());

    auto finished_or = pipeline.Finish();
    ASSERT_TRUE(finished_or.ok());
    const FinishedPipeline& finished = finished_or.value();
    auto zone_hits = finished.Detections(by_zone);
    auto global_hits = finished.Detections(by_global);
    ASSERT_TRUE(zone_hits.ok());
    ASSERT_TRUE(global_hits.ok());
    EXPECT_EQ(Sorted(zone_hits.value()), reference[0]) << "shards=" << shards;
    EXPECT_EQ(Sorted(global_hits.value()), reference[1])
        << "shards=" << shards;
  }
}

// --- Equivalence: custom key functions -------------------------------------

TEST(PipelineEquivalenceTest, CustomKeyFunctionsShareLaneGroupByName) {
  const EventStream stream = CrossStream(12000, 13);
  const auto group_of = [](const Event& e) {
    return static_cast<uint64_t>(e.type()) / kTypesPerGroup;
  };
  std::vector<Pattern> patterns;
  for (size_t g = 0; g < kGroups; ++g) {
    patterns.push_back(GroupPattern(g, DetectionMode::kConjunction));
  }
  const auto reference = SequentialDetections(stream, patterns);

  PipelineBuilder builder;
  std::vector<CrossQueryHandle> handles;
  for (const Pattern& p : patterns) {
    handles.push_back(builder.AddCrossQuery(
        p, kQueryWindow, CorrelationKey::Custom("group", group_of)));
  }
  auto pipeline_or =
      builder.WithShards(2).WithCrossShards(2).WithSeed(kSeed).Build();
  ASSERT_TRUE(pipeline_or.ok()) << pipeline_or.status().ToString();
  Pipeline& pipeline = *pipeline_or.value();
  // Same custom name -> one shared lane-group.
  ASSERT_EQ(pipeline.plan().cross_groups.size(), 1u);
  EXPECT_EQ(pipeline.plan().cross_groups[0].key_id, "custom:group");

  StreamReplayer replayer;
  replayer.Subscribe(&pipeline);
  ASSERT_TRUE(replayer.Run(stream, ReplayMode::kBatchPerTick).ok());
  auto finished_or = pipeline.Finish();
  ASSERT_TRUE(finished_or.ok());
  for (size_t q = 0; q < handles.size(); ++q) {
    auto detections = finished_or.value().Detections(handles[q]);
    ASSERT_TRUE(detections.ok());
    EXPECT_EQ(Sorted(detections.value()), reference[q]) << "q=" << q;
  }
}

// --- Equivalence: the full mixed workload ----------------------------------

/// The acceptance scenario: one pipeline registers a plain query, a
/// cross-subject query with its own correlation key, a private query, and a
/// private cross-subject query; the planner-built topology must match the
/// sequential engines for every lane at 1/2/4 shards, driven both batched
/// and per event (the per-event entry point is a one-element batch). The
/// raw and protected-view lane-groups share the stage-1 shards: neither
/// may see the other's traffic, so the raw cross query still matches the
/// sequential reference and the private cross query matches a private-only
/// pipeline.
TEST(PipelineEquivalenceTest, MixedPlainCrossPrivateMatchesSequentialEngines) {
  constexpr Timestamp kPrivacyWindow = 5;
  constexpr double kEpsilon = 1.0;

  // A 3-type vocabulary for the private lane; plain/cross queries reuse the
  // same low type ids.
  const EventStream stream = SubjectStream(8000, 17);
  const Pattern plain_pattern = GroupPattern(0, DetectionMode::kSequence);
  const Pattern cross_pattern = GroupPattern(1, DetectionMode::kConjunction);
  const auto reference =
      SequentialDetections(stream, {plain_pattern, cross_pattern});

  // Sequential private reference: per-subject PrivateCepEngine with the
  // per-subject seed the sharded engine derives internally.
  const Pattern private_pattern =
      MakePattern("meds", {0, 1}, DetectionMode::kConjunction);
  const Pattern target_pattern =
      MakePattern("came_home", {0, 2}, DetectionMode::kConjunction);
  std::map<StreamId, AnswerSeries> private_reference;
  for (StreamId subject = 0; subject < kGroups * kTypesPerGroup; ++subject) {
    EventStream sub;
    for (const Event& e : stream) {
      if (e.stream() == subject) sub.AppendUnchecked(e);
    }
    if (sub.empty()) continue;
    PrivateCepEngine seq;
    for (size_t t = 0; t < kGroups * kTypesPerGroup; ++t) {
      (void)seq.InternEventType("t" + std::to_string(t));
    }
    ASSERT_TRUE(seq.RegisterPrivatePattern(private_pattern).ok());
    ASSERT_TRUE(seq.RegisterTargetQuery("came_home", target_pattern).ok());
    ASSERT_TRUE(
        seq.Activate(MakeMechanism("uniform").value(), kEpsilon).ok());
    Rng rng(SubjectSeed(kSeed, subject));
    auto results =
        seq.ProcessStream(sub, TumblingWindower(kPrivacyWindow), &rng);
    ASSERT_TRUE(results.ok());
    private_reference.emplace(subject, results.value().answers[0]);
  }

  // Private cross query over the protected-view stream; its reference is a
  // private-only pipeline with the same seed.
  const Pattern private_cross_pattern =
      MakePattern("x_home", {0, 2}, DetectionMode::kConjunction);
  constexpr Timestamp kPrivateCrossWindow = 2 * kPrivacyWindow;
  const auto declare_private = [&](PipelineBuilder& builder) {
    for (size_t t = 0; t < kGroups * kTypesPerGroup; ++t) {
      std::string name = "t";
      name += std::to_string(t);
      (void)builder.InternEventType(name);
    }
    builder.AddPrivatePattern(private_pattern);
    PrivateQueryHandle q = builder.AddPrivateQuery("came_home", target_pattern);
    PrivateCrossQueryHandle x = builder.AddPrivateCrossQuery(
        "x_home", private_cross_pattern, kPrivateCrossWindow);
    builder.WithSeed(kSeed)
        .WithPrivacyWindow(kPrivacyWindow)
        .WithMechanism("uniform")
        .WithEpsilon(kEpsilon);
    return std::make_pair(q, x);
  };
  std::vector<Timestamp> private_cross_reference;
  {
    PipelineBuilder builder;
    const auto handles = declare_private(builder);
    auto pipeline_or = builder.WithShards(2).Build();
    ASSERT_TRUE(pipeline_or.ok()) << pipeline_or.status().ToString();
    StreamReplayer replayer;
    replayer.Subscribe(pipeline_or.value().get());
    ASSERT_TRUE(replayer.Run(stream, ReplayMode::kBatchPerTick).ok());
    auto finished_or = pipeline_or.value()->Finish();
    ASSERT_TRUE(finished_or.ok());
    private_cross_reference =
        finished_or.value().Detections(handles.second).value();
  }
  ASSERT_FALSE(private_cross_reference.empty())
      << "degenerate test: the private cross query detected nothing";

  for (ReplayMode mode : {ReplayMode::kBatchPerTick, ReplayMode::kPerEvent}) {
    for (size_t shards : {1u, 2u, 4u}) {
      const std::string run = std::string("mode=") +
                              (mode == ReplayMode::kPerEvent ? "per-event"
                                                             : "batched") +
                              " shards=" + std::to_string(shards);
      PipelineBuilder builder;
      QueryHandle plain_q = builder.AddQuery(plain_pattern, kQueryWindow);
      CrossQueryHandle cross_q = builder.AddCrossQuery(
          cross_pattern, kQueryWindow, CorrelationKey::Global());
      const auto [private_q, private_cross_q] = declare_private(builder);
      auto pipeline_or =
          builder.WithShards(shards).WithCrossShards(2).Build();
      ASSERT_TRUE(pipeline_or.ok()) << pipeline_or.status().ToString();
      Pipeline& pipeline = *pipeline_or.value();
      EXPECT_TRUE(pipeline.plan().has_private);

      StreamReplayer replayer;
      replayer.Subscribe(&pipeline);
      ASSERT_TRUE(replayer.Run(stream, mode).ok()) << run;
      auto finished_or = pipeline.Finish();
      ASSERT_TRUE(finished_or.ok()) << finished_or.status().ToString();
      const FinishedPipeline& finished = finished_or.value();

      auto plain_hits = finished.Detections(plain_q);
      ASSERT_TRUE(plain_hits.ok());
      EXPECT_EQ(Sorted(plain_hits.value()), reference[0]) << run;
      auto cross_hits = finished.Detections(cross_q);
      ASSERT_TRUE(cross_hits.ok());
      EXPECT_EQ(Sorted(cross_hits.value()), reference[1]) << run;

      ASSERT_EQ(finished.Subjects().size(), private_reference.size()) << run;
      for (const auto& entry : private_reference) {
        auto answers = finished.AnswersOf(private_q, entry.first);
        ASSERT_TRUE(answers.ok()) << "subject=" << entry.first;
        EXPECT_EQ(answers.value().answers(), entry.second.answers())
            << run << " subject=" << entry.first;
      }
      EXPECT_GT(finished.total_windows(), 0u);

      auto private_cross_hits = finished.Detections(private_cross_q);
      ASSERT_TRUE(private_cross_hits.ok());
      EXPECT_EQ(private_cross_hits.value(), private_cross_reference) << run;
    }
  }
}

// --- The typed-handle contract ---------------------------------------------

TEST(PipelineHandleTest, ForeignAndInvalidHandlesAreHardErrors) {
  PipelineBuilder builder_a;
  QueryHandle q_a = builder_a.AddQuery(
      GroupPattern(0, DetectionMode::kSequence), kQueryWindow);
  auto pipeline_a = builder_a.WithShards(1).Build();
  ASSERT_TRUE(pipeline_a.ok());

  PipelineBuilder builder_b;
  QueryHandle q_b = builder_b.AddQuery(
      GroupPattern(0, DetectionMode::kSequence), kQueryWindow);
  auto pipeline_b = builder_b.WithShards(1).Build();
  ASSERT_TRUE(pipeline_b.ok());

  auto finished_a = pipeline_a.value()->Finish();
  ASSERT_TRUE(finished_a.ok());
  // The right handle works; a handle of another pipeline is refused loudly
  // (the old facades' unknown-name lookup returned silently empty results).
  EXPECT_TRUE(finished_a.value().Detections(q_a).ok());
  EXPECT_TRUE(
      finished_a.value().Detections(q_b).status().IsInvalidArgument());
  // A default-constructed (never registered) handle is refused too.
  EXPECT_TRUE(finished_a.value()
                  .Detections(QueryHandle())
                  .status()
                  .IsInvalidArgument());
  (void)pipeline_b.value()->Finish();
}

// --- Detection callbacks (QueryHandle::OnDetection) ------------------------

TEST(PipelineCallbackTest, ShardedPlainAndCrossCallbacksSeeEveryDetection) {
  const EventStream stream = CrossStream(12000, 31);

  for (size_t shards : {1u, 2u, 4u}) {
    PipelineBuilder builder;
    // Callbacks run on worker threads, so the sinks take a lock.
    std::mutex mu;
    std::vector<std::vector<Timestamp>> fired(4);
    auto sink = [&](size_t slot) {
      return [&, slot](Timestamp at) {
        std::lock_guard<std::mutex> lock(mu);
        fired[slot].push_back(at);
      };
    };
    // Plain queries 0 and 2 have callbacks, query 1 between them has none.
    QueryHandle plain_a =
        builder.AddQuery(GroupPattern(0, DetectionMode::kSequence),
                         kQueryWindow);
    plain_a.OnDetection(sink(0));
    QueryHandle plain_silent = builder.AddQuery(
        GroupPattern(2, DetectionMode::kConjunction), kQueryWindow);
    QueryHandle plain_b =
        builder.AddQuery(GroupPattern(3, DetectionMode::kSequence),
                         kQueryWindow);
    plain_b.OnDetection(sink(1));
    // Two cross queries on different keys: each is query 0 of its own
    // lane-group, while their pipeline-wide indices are 0 and 1.
    CrossQueryHandle cross_global = builder.AddCrossQuery(
        GroupPattern(1, DetectionMode::kConjunction), kQueryWindow,
        CorrelationKey::Global());
    cross_global.OnDetection(sink(2));
    CrossQueryHandle cross_zone = builder.AddCrossQuery(
        GroupPattern(0, DetectionMode::kConjunction), kQueryWindow,
        CorrelationKey::ByAttribute("zone"));
    cross_zone.OnDetection(sink(3));
    auto pipeline_or =
        builder.WithShards(shards).WithCrossShards(2).WithSeed(kSeed).Build();
    ASSERT_TRUE(pipeline_or.ok()) << pipeline_or.status().ToString();
    Pipeline& pipeline = *pipeline_or.value();
    ASSERT_EQ(pipeline.plan().cross_groups.size(), 2u);

    StreamReplayer replayer;
    replayer.Subscribe(&pipeline);
    ASSERT_TRUE(replayer.Run(stream, ReplayMode::kBatchPerTick).ok());
    auto finished_or = pipeline.Finish();
    ASSERT_TRUE(finished_or.ok());
    const FinishedPipeline& finished = finished_or.value();

    const std::vector<std::vector<Timestamp>> expected = {
        Sorted(finished.Detections(plain_a).value()),
        Sorted(finished.Detections(plain_b).value()),
        Sorted(finished.Detections(cross_global).value()),
        Sorted(finished.Detections(cross_zone).value()),
    };
    std::lock_guard<std::mutex> lock(mu);
    for (size_t slot = 0; slot < fired.size(); ++slot) {
      EXPECT_FALSE(expected[slot].empty())
          << "shards=" << shards << " slot=" << slot;
      EXPECT_EQ(Sorted(fired[slot]), expected[slot])
          << "shards=" << shards << " slot=" << slot;
    }
    EXPECT_FALSE(finished.Detections(plain_silent).value().empty())
        << "shards=" << shards;
  }
}

TEST(PipelineAffinityTest, PinnedOversubscribedRunMatchesUnpinned) {
  const EventStream stream = CrossStream(12000, 37);
  // Plain then cross detections of one run.
  auto run = [&](bool pinned, std::vector<std::vector<Timestamp>>* out) {
    PipelineBuilder builder;
    QueryHandle plain =
        builder.AddQuery(GroupPattern(0, DetectionMode::kSequence),
                         kQueryWindow);
    CrossQueryHandle cross = builder.AddCrossQuery(
        GroupPattern(1, DetectionMode::kConjunction), kQueryWindow,
        CorrelationKey::Global());
    // 3 stage-1 shards + 2 merge shards on at most 2 cores: the
    // round-robin placement wraps around.
    builder.WithShards(3).WithCrossShards(2).WithSeed(kSeed);
    if (pinned) builder.WithCoreAffinity(2);
    auto pipeline_or = builder.Build();
    ASSERT_TRUE(pipeline_or.ok()) << pipeline_or.status().ToString();
    Pipeline& pipeline = *pipeline_or.value();
    EXPECT_EQ(pipeline.plan().pin_threads, pinned);

    StreamReplayer replayer;
    replayer.Subscribe(&pipeline);
    ASSERT_TRUE(replayer.Run(stream, ReplayMode::kBatchPerTick).ok());
    if (pinned) {
      // Five workers on two cores run out of input once the replay ends:
      // the spin -> yield -> park escalation (runtime/backoff.h) must
      // carry some stage-1 shard all the way to a park.
      EXPECT_TRUE(Eventually([&] {
        size_t parks = 0;
        for (const ShardStats& s : pipeline.ShardStatsSnapshot()) {
          parks += s.parks;
        }
        return parks > 0;
      })) << "no stage-1 shard parked under oversubscription";
    }
    auto finished_or = pipeline.Finish();
    ASSERT_TRUE(finished_or.ok());
    const FinishedPipeline& finished = finished_or.value();
    out->push_back(Sorted(finished.Detections(plain).value()));
    out->push_back(Sorted(finished.Detections(cross).value()));
  };
  std::vector<std::vector<Timestamp>> unpinned;
  std::vector<std::vector<Timestamp>> pinned;
  run(false, &unpinned);
  run(true, &pinned);
  ASSERT_EQ(unpinned.size(), 2u);
  EXPECT_FALSE(unpinned[0].empty());
  EXPECT_FALSE(unpinned[1].empty());
  EXPECT_EQ(pinned, unpinned);
}

TEST(PipelineCallbackTest, InvalidHandleCallbackIsIgnored) {
  PipelineBuilder builder;
  QueryHandle bad = builder.AddQuery(
      Pattern::Create("empty", {}, DetectionMode::kSequence), kQueryWindow);
  EXPECT_FALSE(bad.valid());
  // Must not crash or register anything; the latched pattern error still
  // surfaces at Build().
  bad.OnDetection([](Timestamp) {});
  QueryHandle detached;
  detached.OnDetection([](Timestamp) {});
  EXPECT_FALSE(builder.Build().ok());
}

TEST(PipelineHandleTest, IngestionAfterFinishIsRefusedAndFinishIdempotent) {
  PipelineBuilder builder;
  QueryHandle q = builder.AddQuery(GroupPattern(0, DetectionMode::kSequence),
                                   kQueryWindow);
  auto pipeline_or = builder.WithShards(2).Build();
  ASSERT_TRUE(pipeline_or.ok());
  Pipeline& pipeline = *pipeline_or.value();
  ASSERT_TRUE(pipeline.OnEvent(Event(0, 1, 0)).ok());
  auto first = pipeline.Finish();
  ASSERT_TRUE(first.ok());
  EXPECT_TRUE(pipeline.OnEvent(Event(1, 2, 0)).IsFailedPrecondition());
  auto second = pipeline.Finish();
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second.value().Detections(q).ok());
}

}  // namespace
}  // namespace pldp
