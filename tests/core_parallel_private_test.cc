// Copyright 2026 The PLDP Authors.
//
// Fixed-seed equivalence of the sharded service phase: a private-only
// pipeline (PipelineBuilder; the private lane of core/private_lane.h on the
// pipeline's runtime) must produce, for every data subject and every shard
// count, exactly the protected answers a sequential PrivateCepEngine
// produces on that subject's substream with the same per-subject seed
// (SubjectSeed) and the same mechanism configuration (mechanism, α and
// history). Perturbation happens shard-locally, so this pins the
// per-subject windowing state machine, the deterministic per-subject Rng
// derivation, and the builder's hand-off of every privacy knob to the
// shards' publishers.

#include "api/pipeline_builder.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/private_engine.h"
#include "ppm/factory.h"
#include "stream/replay.h"
#include "stream/window.h"

namespace pldp {
namespace {

constexpr Timestamp kWindowSize = 5;
constexpr double kEpsilon = 1.0;
constexpr uint64_t kSeed = 0xfeedULL;

Pattern MakePattern(const char* name, std::vector<EventTypeId> elems,
                    DetectionMode mode) {
  return Pattern::Create(name, std::move(elems), mode).value();
}

/// Registers the setup phase on the sequential oracle: 3 types, one private
/// pattern, two target queries.
void RegisterSetup(PrivateCepEngine& engine) {
  const EventTypeId a = engine.InternEventType("door");
  const EventTypeId b = engine.InternEventType("motion");
  const EventTypeId c = engine.InternEventType("kettle");
  ASSERT_TRUE(engine
                  .RegisterPrivatePattern(MakePattern(
                      "private", {a, b}, DetectionMode::kConjunction))
                  .ok());
  ASSERT_TRUE(engine
                  .RegisterTargetQuery("q0", MakePattern("t0", {a, b},
                                                         DetectionMode::kConjunction))
                  .ok());
  ASSERT_TRUE(engine
                  .RegisterTargetQuery("q1", MakePattern("t1", {b, c},
                                                         DetectionMode::kSequence))
                  .ok());
}

/// A multi-subject stream over a shared 3-type alphabet, with timestamp
/// jumps so subjects skip whole windows (empty windows must be published).
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

/// The subject's substream, in order.
EventStream SubstreamOf(const EventStream& stream, StreamId subject) {
  EventStream sub;
  for (const Event& e : stream) {
    if (e.stream() == subject) sub.AppendUnchecked(e);
  }
  return sub;
}

/// The mechanism configuration both sides get: a named mechanism, its α
/// and its history windows (empty: none).
struct MechanismSetup {
  MechanismSetup(std::string name_in, double alpha_in = 0.5,
                 std::vector<Window> history_in = {})
      : name(std::move(name_in)),
        alpha(alpha_in),
        history(std::move(history_in)) {}

  std::string name;
  double alpha;
  std::vector<Window> history;
};

/// Sequential reference: per-subject PrivateCepEngine runs with the
/// per-subject seed the sharded engine derives internally.
std::map<StreamId, PrivateQueryResults> SequentialReference(
    const EventStream& stream, size_t subjects,
    const MechanismSetup& mechanism) {
  std::map<StreamId, PrivateQueryResults> reference;
  for (StreamId subject = 0; subject < subjects; ++subject) {
    const EventStream sub = SubstreamOf(stream, subject);
    if (sub.empty()) continue;
    PrivateCepEngine seq;
    RegisterSetup(seq);
    seq.SetAlpha(mechanism.alpha);
    seq.SetHistory(mechanism.history);
    EXPECT_TRUE(
        seq.Activate(MakeMechanism(mechanism.name).value(), kEpsilon).ok());
    Rng rng(SubjectSeed(kSeed, subject));
    auto results =
        seq.ProcessStream(sub, TumblingWindower(kWindowSize), &rng);
    EXPECT_TRUE(results.ok());
    reference.emplace(subject, std::move(results).value());
  }
  return reference;
}

/// Declares the same setup phase on a builder; returns the target query
/// handles in registration order (q0, q1).
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

StatusOr<std::unique_ptr<Pipeline>> BuildPrivate(
    PipelineBuilder& builder, size_t shards, const MechanismSetup& mechanism) {
  return builder.WithShards(shards)
      .WithSeed(kSeed)
      .WithPrivacyWindow(kWindowSize)
      .WithMechanismFactory(NamedMechanismFactory(mechanism.name))
      .WithAlpha(mechanism.alpha)
      .WithHistory(mechanism.history)
      .WithEpsilon(kEpsilon)
      .Build();
}

/// Answers only, for comparing two references.
std::map<StreamId, std::vector<std::vector<bool>>> AnswersOf(
    const std::map<StreamId, PrivateQueryResults>& reference) {
  std::map<StreamId, std::vector<std::vector<bool>>> answers;
  for (const auto& entry : reference) {
    for (const AnswerSeries& series : entry.second.answers) {
      answers[entry.first].push_back(series.answers());
    }
  }
  return answers;
}

void ExpectMatchesReference(
    const FinishedPipeline& finished,
    const std::vector<PrivateQueryHandle>& handles,
    const std::map<StreamId, PrivateQueryResults>& reference,
    const std::string& label) {
  std::vector<StreamId> expected_ids;
  for (const auto& entry : reference) expected_ids.push_back(entry.first);
  EXPECT_EQ(finished.Subjects(), expected_ids) << label;
  for (const auto& entry : reference) {
    ASSERT_EQ(handles.size(), entry.second.answers.size());
    for (size_t q = 0; q < handles.size(); ++q) {
      StatusOr<AnswerSeries> got_or =
          finished.AnswersOf(handles[q], entry.first);
      ASSERT_TRUE(got_or.ok()) << label << " subject=" << entry.first;
      EXPECT_EQ(got_or.value().answers().size(), entry.second.window_count)
          << label << " subject=" << entry.first;
      EXPECT_EQ(got_or.value().answers(), entry.second.answers[q].answers())
          << label << " subject=" << entry.first << " query=" << q;
    }
  }
}

TEST(PrivateLaneTest, FixedSeedEquivalenceWithSequentialEngine) {
  constexpr size_t kSubjects = 10;
  const EventStream stream = InterleavedStream(kSubjects, 6000, /*seed=*/17);

  // The adaptive mechanism tunes its allocation on the history at α. The
  // data must make both knobs matter: without history it falls back to a
  // uniform allocation, and the default α tunes a different one.
  const MechanismSetup adaptive{
      "adaptive", 0.1,
      TumblingWindower(kWindowSize)
          .Apply(InterleavedStream(1, 1200, /*seed=*/43))
          .value()};
  const auto adaptive_reference =
      SequentialReference(stream, kSubjects, adaptive);
  ASSERT_TRUE(AnswersOf(adaptive_reference) !=
              AnswersOf(SequentialReference(stream, kSubjects,
                                            {"adaptive", adaptive.alpha})))
      << "degenerate test: history does not change the answers";
  ASSERT_TRUE(AnswersOf(adaptive_reference) !=
              AnswersOf(SequentialReference(
                  stream, kSubjects, {"adaptive", 0.5, adaptive.history})))
      << "degenerate test: alpha does not change the answers";

  for (const MechanismSetup& mechanism :
       {MechanismSetup{"uniform"}, adaptive}) {
    const auto reference = SequentialReference(stream, kSubjects, mechanism);
    ASSERT_FALSE(reference.empty());

    for (size_t shards : {1u, 2u, 4u}) {
      PipelineBuilder builder;
      const std::vector<PrivateQueryHandle> handles = DeclareSetup(builder);
      auto pipeline_or = BuildPrivate(builder, shards, mechanism);
      ASSERT_TRUE(pipeline_or.ok()) << pipeline_or.status().ToString();
      Pipeline& pipeline = *pipeline_or.value();

      StreamReplayer replayer;
      replayer.Subscribe(&pipeline);
      // Batched per-tick ingestion; Run's OnEnd finishes the service phase.
      ASSERT_TRUE(replayer.Run(stream, ReplayMode::kBatchPerTick).ok());
      auto finished_or = pipeline.Finish();
      ASSERT_TRUE(finished_or.ok());

      EXPECT_EQ(finished_or.value().events_processed(), stream.size());
      ExpectMatchesReference(
          finished_or.value(), handles, reference,
          mechanism.name + " shards=" + std::to_string(shards));
      ASSERT_TRUE(pipeline.Stop().ok());
    }
  }
}

TEST(PrivateLaneTest, PassthroughEqualsGroundTruthPerSubject) {
  constexpr size_t kSubjects = 6;
  const EventStream stream = InterleavedStream(kSubjects, 3000, /*seed=*/23);

  PipelineBuilder builder;
  const std::vector<PrivateQueryHandle> handles = DeclareSetup(builder);
  auto pipeline_or = BuildPrivate(builder, 3, {"passthrough"});
  ASSERT_TRUE(pipeline_or.ok()) << pipeline_or.status().ToString();
  Pipeline& pipeline = *pipeline_or.value();

  // Per-event ingestion this time (both ingest paths must agree).
  for (const Event& e : stream) ASSERT_TRUE(pipeline.OnEvent(e).ok());
  auto finished_or = pipeline.Finish();
  ASSERT_TRUE(finished_or.ok());

  for (StreamId subject = 0; subject < kSubjects; ++subject) {
    const EventStream sub = SubstreamOf(stream, subject);
    if (sub.empty()) continue;
    PrivateCepEngine seq;
    RegisterSetup(seq);
    auto windows = TumblingWindower(kWindowSize).Apply(sub);
    ASSERT_TRUE(windows.ok());
    auto truth = seq.GroundTruth(windows.value());
    ASSERT_TRUE(truth.ok());

    ASSERT_EQ(handles.size(), truth.value().answers.size());
    for (size_t q = 0; q < handles.size(); ++q) {
      StatusOr<AnswerSeries> got_or =
          finished_or.value().AnswersOf(handles[q], subject);
      ASSERT_TRUE(got_or.ok());
      EXPECT_EQ(got_or.value().answers(), truth.value().answers[q].answers())
          << "subject=" << subject << " query=" << q;
    }
  }
  ASSERT_TRUE(pipeline.Stop().ok());
}

// Every data subject's publisher initializes its own adaptive mechanism,
// but the "no history, uniform fallback" warning is a property of the
// pipeline's configuration: it must be logged once, at Build, not once
// per subject.
TEST(PrivateLaneTest, AdaptiveFallbackWarnsOncePerPipeline) {
  constexpr size_t kSubjects = 1024;
  const EventStream stream =
      InterleavedStream(kSubjects, 8 * kSubjects, /*seed=*/29);
  testing::internal::CaptureStderr();
  PipelineBuilder builder;
  DeclareSetup(builder);
  auto pipeline_or = BuildPrivate(builder, 3, {"adaptive"});
  ASSERT_TRUE(pipeline_or.ok()) << pipeline_or.status().ToString();
  Pipeline& pipeline = *pipeline_or.value();
  for (const Event& e : stream) ASSERT_TRUE(pipeline.OnEvent(e).ok());
  auto finished_or = pipeline.Finish();
  ASSERT_TRUE(finished_or.ok());
  const std::string err = testing::internal::GetCapturedStderr();
  EXPECT_GT(finished_or.value().Subjects().size(), 1000u);
  size_t warnings = 0;
  for (size_t at = err.find("falling back to uniform");
       at != std::string::npos;
       at = err.find("falling back to uniform", at + 1)) {
    ++warnings;
  }
  EXPECT_EQ(warnings, 1u) << err.substr(0, 2000);
  ASSERT_TRUE(pipeline.Stop().ok());
}

TEST(PrivateLaneTest, ResultsIdenticalAcrossShardCounts) {
  constexpr size_t kSubjects = 7;
  const EventStream stream = InterleavedStream(kSubjects, 4000, /*seed=*/41);

  std::map<StreamId, std::vector<std::vector<bool>>> first;
  for (size_t shards : {1u, 3u}) {
    PipelineBuilder builder;
    const std::vector<PrivateQueryHandle> handles = DeclareSetup(builder);
    auto pipeline_or = BuildPrivate(builder, shards, {"uniform"});
    ASSERT_TRUE(pipeline_or.ok()) << pipeline_or.status().ToString();
    Pipeline& pipeline = *pipeline_or.value();
    StreamReplayer replayer;
    replayer.Subscribe(&pipeline);
    ASSERT_TRUE(replayer.Run(stream, ReplayMode::kBatchPerTick).ok());
    auto finished_or = pipeline.Finish();
    ASSERT_TRUE(finished_or.ok());
    const FinishedPipeline& finished = finished_or.value();

    for (StreamId subject : finished.Subjects()) {
      std::vector<std::vector<bool>> answers;
      for (const PrivateQueryHandle& handle : handles) {
        StatusOr<AnswerSeries> series = finished.AnswersOf(handle, subject);
        ASSERT_TRUE(series.ok());
        answers.push_back(series.value().answers());
      }
      if (shards == 1) {
        first.emplace(subject, std::move(answers));
      } else {
        ASSERT_EQ(first.count(subject), 1u);
        EXPECT_EQ(answers, first[subject]) << "subject=" << subject;
      }
    }
    ASSERT_TRUE(pipeline.Stop().ok());
  }
}

TEST(PrivateLaneTest, LifecycleErrors) {
  {
    // Private queries without private patterns are refused.
    PipelineBuilder builder;
    (void)builder.AddPrivateQuery(
        "q0", MakePattern("t0", {0, 1}, DetectionMode::kConjunction));
    EXPECT_FALSE(BuildPrivate(builder, 2, {"uniform"}).ok());
  }
  {
    // The privacy window is mandatory.
    PipelineBuilder builder;
    (void)DeclareSetup(builder);
    EXPECT_FALSE(builder.WithShards(2).WithMechanism("uniform").Build().ok());
  }
  {
    PipelineBuilder builder;
    const std::vector<PrivateQueryHandle> handles = DeclareSetup(builder);
    auto pipeline_or = BuildPrivate(builder, 2, {"uniform"});
    ASSERT_TRUE(pipeline_or.ok()) << pipeline_or.status().ToString();
    Pipeline& pipeline = *pipeline_or.value();
    ASSERT_TRUE(pipeline.OnEvent(Event(0, 0, /*stream=*/1)).ok());
    ASSERT_TRUE(pipeline.Finish().ok());
    auto finished_or = pipeline.Finish();  // idempotent
    ASSERT_TRUE(finished_or.ok());
    // Ingest after Finish is refused; results for unseen subjects NotFound.
    EXPECT_FALSE(pipeline.OnEvent(Event(0, 1)).ok());
    EXPECT_FALSE(finished_or.value().AnswersOf(handles[0], 999).ok());
    EXPECT_TRUE(finished_or.value().AnswersOf(handles[0], 1).ok());
    ASSERT_TRUE(pipeline.Stop().ok());
  }
}

TEST(PrivateLaneTest, EmptyStreamHasNoSubjects) {
  PipelineBuilder builder;
  (void)DeclareSetup(builder);
  auto pipeline_or = BuildPrivate(builder, 2, {"uniform"});
  ASSERT_TRUE(pipeline_or.ok()) << pipeline_or.status().ToString();
  Pipeline& pipeline = *pipeline_or.value();
  auto finished_or = pipeline.Finish();
  ASSERT_TRUE(finished_or.ok());
  EXPECT_TRUE(finished_or.value().Subjects().empty());
  EXPECT_EQ(finished_or.value().total_windows(), 0u);
  ASSERT_TRUE(pipeline.Stop().ok());
}

}  // namespace
}  // namespace pldp
