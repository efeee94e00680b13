// Copyright 2026 The PLDP Authors.
//
// Fixed-seed equivalence of the private cross-subject path: private
// cross-subject queries declared on a PipelineBuilder are matched over the
// exchanged *protected-view* stream (presence events derived from each
// published view), and must produce — at every shard count — exactly the
// detections of a sequential reference: one SubjectViewPublisher over the
// whole stream (same seed, same per-subject mechanisms), its published
// views flattened in publication order and fed to a sequential
// StreamingCepEngine (compared as canonical sorted multisets, since view
// timestamps interleave across subjects). This pins the exchange merge
// keys end to end: normal publications ride their trigger's ingest
// sequence number, finalize-time publications ride (finish bound,
// subject) — so the merged processing order equals the sequential
// publication order, and the per-seed detection sets match exactly.

#include "api/pipeline_builder.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/private_engine.h"
#include "ppm/factory.h"
#include "stream/replay.h"
#include "test_util.h"

namespace pldp {
namespace {

constexpr Timestamp kWindowSize = 5;
constexpr Timestamp kCrossWindow = 2 * kWindowSize;
constexpr double kEpsilon = 1.0;
constexpr uint64_t kSeed = 0xfeedULL;

Pattern MakePattern(const char* name, std::vector<EventTypeId> elems,
                    DetectionMode mode) {
  return Pattern::Create(name, std::move(elems), mode).value();
}

/// Same setup phase as the per-subject equivalence test: 3 types, one
/// private pattern, two per-subject target queries.
void RegisterSetup(PrivateCepEngine& engine) {
  const EventTypeId a = engine.InternEventType("door");
  const EventTypeId b = engine.InternEventType("motion");
  const EventTypeId c = engine.InternEventType("kettle");
  ASSERT_TRUE(engine
                  .RegisterPrivatePattern(MakePattern(
                      "private", {a, b}, DetectionMode::kConjunction))
                  .ok());
  ASSERT_TRUE(
      engine
          .RegisterTargetQuery(
              "q0", MakePattern("t0", {a, b}, DetectionMode::kConjunction))
          .ok());
  ASSERT_TRUE(
      engine
          .RegisterTargetQuery(
              "q1", MakePattern("t1", {b, c}, DetectionMode::kSequence))
          .ok());
}

/// Cross-subject queries over the protected-view stream (presence events).
std::vector<std::pair<Pattern, Timestamp>> CrossQueries() {
  return {
      {MakePattern("x_conj", {0, 2}, DetectionMode::kConjunction),
       kCrossWindow},
      {MakePattern("x_seq", {0, 1}, DetectionMode::kSequence), kCrossWindow},
      {MakePattern("x_any", {2}, DetectionMode::kDisjunction), kCrossWindow},
  };
}

/// A multi-subject stream with window-skipping timestamp jumps (mirrors
/// the per-subject equivalence test's generator).
EventStream InterleavedStream(size_t subjects, size_t num_events,
                              uint64_t seed) {
  Rng rng(seed);
  EventStream stream;
  Timestamp ts = 0;
  for (size_t i = 0; i < num_events; ++i) {
    if (rng.UniformUint64(8) == 0) {
      ts += static_cast<Timestamp>(rng.UniformUint64(3 * kWindowSize));
    } else if (rng.UniformUint64(2) == 0) {
      ++ts;
    }
    const auto subject = static_cast<StreamId>(rng.UniformUint64(subjects));
    const auto type = static_cast<EventTypeId>(rng.UniformUint64(3));
    stream.AppendUnchecked(Event(type, ts, subject));
  }
  return stream;
}

/// Sequential reference: one publisher over the whole stream, views
/// flattened to presence events in publication order, matched sequentially.
std::vector<std::vector<Timestamp>> SequentialCrossReference(
    const EventStream& stream, const std::string& mechanism) {
  PrivateCepEngine setup;
  RegisterSetup(setup);

  SubjectPublisherOptions opts;
  opts.context = setup.BuildContext(kEpsilon);
  opts.factory = NamedMechanismFactory(mechanism);
  opts.queries = setup.queries();
  opts.window_size = kWindowSize;
  opts.seed = kSeed;
  SubjectViewPublisher publisher(opts);

  std::vector<Event> protected_events;
  publisher.SetViewCallback(
      [&protected_events](StreamId subject, const Window& window,
                          const PublishedView& view) {
        for (size_t t = 0; t < view.presence.size(); ++t) {
          if (view.presence[t]) {
            protected_events.push_back(Event(static_cast<EventTypeId>(t),
                                             window.start, subject));
          }
        }
      });
  for (const Event& e : stream) publisher.Absorb(e);
  EXPECT_TRUE(publisher.Finalize().ok());

  StreamingCepEngine engine;
  for (auto& [pattern, window] : CrossQueries()) {
    EXPECT_TRUE(engine.AddQuery(pattern, window).ok());
  }
  for (const Event& e : protected_events) {
    EXPECT_TRUE(engine.OnEvent(e).ok());
  }
  std::vector<std::vector<Timestamp>> detections;
  for (size_t q = 0; q < engine.query_count(); ++q) {
    detections.push_back(engine.DetectionsOf(q).value());
    // The view stream is only per-subject ordered (windows close on
    // subject-local triggers), so detection timestamps interleave; compare
    // in the canonical sorted-multiset form CrossDetectionsOf returns.
    std::sort(detections.back().begin(), detections.back().end());
  }
  return detections;
}

/// Declares the same setup phase on a builder; returns the target query
/// handles (q0, q1).
std::vector<PrivateQueryHandle> DeclareSetup(PipelineBuilder& builder) {
  const EventTypeId a = builder.InternEventType("door");
  const EventTypeId b = builder.InternEventType("motion");
  const EventTypeId c = builder.InternEventType("kettle");
  builder.AddPrivatePattern(
      MakePattern("private", {a, b}, DetectionMode::kConjunction));
  return {builder.AddPrivateQuery(
              "q0", MakePattern("t0", {a, b}, DetectionMode::kConjunction)),
          builder.AddPrivateQuery(
              "q1", MakePattern("t1", {b, c}, DetectionMode::kSequence))};
}

std::vector<PrivateCrossQueryHandle> DeclareCrossQueries(
    PipelineBuilder& builder) {
  std::vector<PrivateCrossQueryHandle> handles;
  for (auto& [pattern, window] : CrossQueries()) {
    handles.push_back(
        builder.AddPrivateCrossQuery(pattern.name(), pattern, window));
  }
  return handles;
}

StatusOr<std::unique_ptr<Pipeline>> BuildPrivate(PipelineBuilder& builder,
                                                 size_t shards,
                                                 size_t cross_shards) {
  return builder.WithShards(shards)
      .WithCrossShards(cross_shards)
      .WithSeed(kSeed)
      .WithPrivacyWindow(kWindowSize)
      .WithMechanism("uniform")
      .WithEpsilon(kEpsilon)
      .Build();
}

TEST(PrivateCrossTest, FixedSeedEquivalenceAtEveryShardCount) {
  constexpr size_t kSubjects = 9;
  const EventStream stream = InterleavedStream(kSubjects, 6000, /*seed=*/31);
  const auto reference = SequentialCrossReference(stream, "uniform");
  size_t reference_total = 0;
  for (const auto& d : reference) reference_total += d.size();
  ASSERT_GT(reference_total, 0u)
      << "degenerate test: the reference detected nothing";

  for (size_t shards : {1u, 2u, 4u}) {
    PipelineBuilder builder;
    (void)DeclareSetup(builder);
    const std::vector<PrivateCrossQueryHandle> cross =
        DeclareCrossQueries(builder);
    // Global correlation key: all protected views meet on one merge shard,
    // the always-sound default for multi-type cross patterns.
    auto pipeline_or = BuildPrivate(builder, shards, shards);
    ASSERT_TRUE(pipeline_or.ok()) << pipeline_or.status().ToString();
    Pipeline& pipeline = *pipeline_or.value();

    StreamReplayer replayer;
    replayer.Subscribe(&pipeline);
    // Run's OnEnd finishes the service phase: worker-side Finalize forwards
    // the last views through the exchange before the terminal watermark.
    ASSERT_TRUE(replayer.Run(stream, ReplayMode::kBatchPerTick).ok());
    auto finished_or = pipeline.Finish();
    ASSERT_TRUE(finished_or.ok());
    const FinishedPipeline& finished = finished_or.value();

    ASSERT_EQ(cross.size(), reference.size());
    for (size_t q = 0; q < reference.size(); ++q) {
      EXPECT_EQ(finished.Detections(cross[q]).value(), reference[q])
          << "shards=" << shards << " cross query=" << q;
    }
    EXPECT_EQ(finished.total_cross_detections(), reference_total)
        << "shards=" << shards;
    ASSERT_TRUE(pipeline.Stop().ok());
  }
}

// The whole stream as ONE OnEventBatch, ~50k events per shard against
// 1,024-slot rings and lanes: the private lane's views must still cross
// the exchange and match the sequential reference. Pushing shard by shard
// used to hang here for good (the merge waited on the shard that had not
// been fed yet, while the fed one stalled on exchange credits).
TEST(PrivateCrossTest, OneBatchLargerThanTheRingsDoesNotHang) {
  const EventStream stream =
      InterleavedStream(/*subjects=*/9, 100000, /*seed=*/61);
  const auto reference = SequentialCrossReference(stream, "uniform");
  size_t reference_total = 0;
  for (const auto& d : reference) reference_total += d.size();
  ASSERT_GT(reference_total, 0u);

  PipelineBuilder builder;
  (void)DeclareSetup(builder);
  const std::vector<PrivateCrossQueryHandle> cross =
      DeclareCrossQueries(builder);
  builder.WithQueueCapacity(1024).WithExchangeCapacity(1024);
  auto pipeline_or = BuildPrivate(builder, /*shards=*/2, /*cross_shards=*/1);
  ASSERT_TRUE(pipeline_or.ok()) << pipeline_or.status().ToString();
  Pipeline& pipeline = *pipeline_or.value();

  std::vector<std::vector<Timestamp>> detections(cross.size());
  testing_util::RunWithWatchdog(
      [&] {
        const std::vector<Event>& all = stream.events();
        ASSERT_TRUE(
            pipeline.OnEventBatch(EventSpan(all.data(), all.size())).ok());
        auto finished_or = pipeline.Finish();
        ASSERT_TRUE(finished_or.ok());
        for (size_t q = 0; q < cross.size(); ++q) {
          detections[q] = finished_or.value().Detections(cross[q]).value();
        }
      },
      std::chrono::seconds(60));
  EXPECT_EQ(detections, reference);
  ASSERT_TRUE(pipeline.Stop().ok());
}

TEST(PrivateCrossTest, PerSubjectAnswersUnaffectedByExchange) {
  constexpr size_t kSubjects = 6;
  const EventStream stream = InterleavedStream(kSubjects, 3000, /*seed=*/53);

  // One pipeline with the exchange, one without; the per-subject protected
  // answers must be identical (the exchange only observes, never perturbs).
  std::vector<std::vector<std::vector<bool>>> answers(2);
  for (int with_cross = 0; with_cross < 2; ++with_cross) {
    PipelineBuilder builder;
    const std::vector<PrivateQueryHandle> handles = DeclareSetup(builder);
    if (with_cross == 1) (void)DeclareCrossQueries(builder);
    auto pipeline_or = BuildPrivate(builder, 2, 2);
    ASSERT_TRUE(pipeline_or.ok()) << pipeline_or.status().ToString();
    Pipeline& pipeline = *pipeline_or.value();
    StreamReplayer replayer;
    replayer.Subscribe(&pipeline);
    ASSERT_TRUE(replayer.Run(stream, ReplayMode::kBatchPerTick).ok());
    auto finished_or = pipeline.Finish();
    ASSERT_TRUE(finished_or.ok());
    const FinishedPipeline& finished = finished_or.value();

    for (StreamId subject : finished.Subjects()) {
      for (const PrivateQueryHandle& handle : handles) {
        StatusOr<AnswerSeries> series = finished.AnswersOf(handle, subject);
        ASSERT_TRUE(series.ok());
        answers[with_cross].push_back(series.value().answers());
      }
    }
    ASSERT_TRUE(pipeline.Stop().ok());
  }
  EXPECT_EQ(answers[0], answers[1]);
}

TEST(PrivateCrossTest, EmptyStreamAndLifecycle) {
  PipelineBuilder builder;
  (void)DeclareSetup(builder);
  const std::vector<PrivateCrossQueryHandle> cross =
      DeclareCrossQueries(builder);
  auto pipeline_or = BuildPrivate(builder, 2, 2);
  ASSERT_TRUE(pipeline_or.ok()) << pipeline_or.status().ToString();
  Pipeline& pipeline = *pipeline_or.value();
  ASSERT_TRUE(pipeline.Finish().ok());
  auto finished_or = pipeline.Finish();  // idempotent
  ASSERT_TRUE(finished_or.ok());
  for (const PrivateCrossQueryHandle& handle : cross) {
    EXPECT_TRUE(finished_or.value().Detections(handle).value().empty());
  }
  EXPECT_EQ(finished_or.value().total_cross_detections(), 0u);
  EXPECT_EQ(pipeline.CrossShardStatsSnapshot().size(), 2u);
  ASSERT_TRUE(pipeline.Stop().ok());
}

}  // namespace
}  // namespace pldp
