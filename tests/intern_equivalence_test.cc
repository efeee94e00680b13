// Copyright 2026 The PLDP Authors.
//
// Interned and legacy-constructed events must be indistinguishable to the
// engines: a stream whose attributes are set by name with owned-string
// payloads and the same stream built with pre-bound AttrIds and interned
// symbols must produce identical detections — plain (stage-1), across the
// attribute-keyed exchange (stage-2, where the correlation key hashes the
// payload), and through the private service phase — at 1, 2, and 4 shards.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "api/pipeline_builder.h"
#include "core/private_engine.h"
#include "event/symbol_table.h"
#include "ppm/factory.h"
#include "runtime/parallel_engine.h"
#include "stream/event_stream.h"
#include "stream/replay.h"

namespace pldp {
namespace {

constexpr size_t kSubjects = 12;
constexpr size_t kZones = 4;
constexpr Timestamp kWindow = 6;

std::string ZoneName(size_t z) { return "equiv-zone-" + std::to_string(z); }

/// One logical stream, materialized in two styles. Types are drawn from a
/// shared 3-letter alphabet; every event carries an int `cell` and a text
/// `zone` drawn from kZones values, uncorrelated with the subject (so
/// attribute-keyed exchange matches span subjects).
EventStream BuildStream(size_t num_events, uint64_t seed, bool interned) {
  const AttrId cell_id = AttrNames().Intern("equiv_cell");
  const AttrId zone_id = AttrNames().Intern("equiv_zone");
  Rng rng(seed);
  EventStream stream;
  stream.Reserve(num_events);
  Timestamp ts = 0;
  for (size_t i = 0; i < num_events; ++i) {
    if (rng.UniformUint64(4) == 0) ++ts;
    const auto subject = static_cast<StreamId>(rng.UniformUint64(kSubjects));
    const auto type = static_cast<EventTypeId>(rng.UniformUint64(3));
    const auto zone = rng.UniformUint64(kZones);
    const auto cell = static_cast<int64_t>(rng.UniformUint64(32));
    Event e(type, ts, subject);
    if (interned) {
      e.SetAttribute(cell_id, Value(cell));
      e.SetAttribute(zone_id, Value::Sym(ZoneName(zone)));
    } else {
      e.SetAttribute("equiv_cell", Value(cell));
      e.SetAttribute("equiv_zone", Value(ZoneName(zone)));
    }
    stream.AppendUnchecked(std::move(e));
  }
  return stream;
}

Pattern MakePattern(const char* name, std::vector<EventTypeId> elems,
                    DetectionMode mode) {
  return Pattern::Create(name, std::move(elems), mode).value();
}

/// Detections of the plain sharded engine (one seq + one conj query).
std::vector<std::vector<Timestamp>> PlainDetections(const EventStream& stream,
                                                    size_t shards) {
  ParallelEngineOptions options;
  options.shard_count = shards;
  ParallelStreamingEngine engine(options);
  EXPECT_TRUE(
      engine
          .AddQuery(MakePattern("seq", {0, 1, 2}, DetectionMode::kSequence),
                    kWindow)
          .ok());
  EXPECT_TRUE(
      engine
          .AddQuery(
              MakePattern("conj", {2, 0}, DetectionMode::kConjunction),
              kWindow)
          .ok());
  EXPECT_TRUE(engine.Start().ok());
  StreamReplayer replayer;
  replayer.Subscribe(&engine);
  EXPECT_TRUE(replayer.Run(stream, ReplayMode::kBatchPerTick).ok());
  std::vector<std::vector<Timestamp>> result;
  for (size_t q = 0; q < engine.query_count(); ++q) {
    result.push_back(engine.DetectionsOf(q).value());
  }
  EXPECT_TRUE(engine.Stop().ok());
  return result;
}

/// Cross detections with the exchange keyed by the `equiv_zone` attribute.
/// Stage-2 grouping is a pure function of the correlation key, so the
/// result must not depend on the stage-1 shard count — and must be
/// identical for the two construction styles (symbols hash like strings).
std::vector<Timestamp> ZoneKeyedCrossDetections(const EventStream& stream,
                                                size_t stage1_shards) {
  ParallelEngineOptions options;
  options.shard_count = stage1_shards;
  options.exchange.shard_count = 2;
  ParallelStreamingEngine engine(options);
  const CorrelationKeyFn zone_key =
      MakeCorrelationKeyFn(CorrelationKeySpec::ByAttribute("equiv_zone"))
          .value();
  EXPECT_TRUE(
      engine
          .AddCrossQuery(
              MakePattern("xseq", {0, 1}, DetectionMode::kSequence), kWindow,
              "attr:equiv_zone", zone_key, /*forward_raw_events=*/true)
          .ok());
  EXPECT_TRUE(engine.Start().ok());
  StreamReplayer replayer;
  replayer.Subscribe(&engine);
  EXPECT_TRUE(replayer.Run(stream, ReplayMode::kBatchPerTick).ok());
  std::vector<Timestamp> result = engine.CrossDetectionsOf(0).value();
  EXPECT_TRUE(engine.Stop().ok());
  return result;
}

TEST(InternEquivalenceTest, PlainDetectionsMatchAcrossConstructionStyles) {
  const EventStream legacy = BuildStream(6000, 0x5eedULL, /*interned=*/false);
  const EventStream interned = BuildStream(6000, 0x5eedULL, /*interned=*/true);
  ASSERT_EQ(legacy.size(), interned.size());

  for (size_t shards : {1u, 2u, 4u}) {
    const auto legacy_detections = PlainDetections(legacy, shards);
    const auto interned_detections = PlainDetections(interned, shards);
    EXPECT_EQ(legacy_detections, interned_detections)
        << "shards=" << shards;
  }
}

TEST(InternEquivalenceTest, AttributeKeyedExchangeRoutesBothStylesAlike) {
  const EventStream legacy = BuildStream(5000, 0xabcULL, /*interned=*/false);
  const EventStream interned = BuildStream(5000, 0xabcULL, /*interned=*/true);

  const std::vector<Timestamp> reference =
      ZoneKeyedCrossDetections(legacy, /*stage1_shards=*/1);
  ASSERT_FALSE(reference.empty());
  for (size_t shards : {1u, 2u, 4u}) {
    EXPECT_EQ(ZoneKeyedCrossDetections(legacy, shards), reference)
        << "legacy, stage1=" << shards;
    EXPECT_EQ(ZoneKeyedCrossDetections(interned, shards), reference)
        << "interned, stage1=" << shards;
  }
}

TEST(InternEquivalenceTest, PrivateServicePhaseMatchesAcrossStyles) {
  const EventStream legacy = BuildStream(4000, 0x777ULL, /*interned=*/false);
  const EventStream interned = BuildStream(4000, 0x777ULL, /*interned=*/true);

  for (size_t shards : {1u, 2u, 4u}) {
    std::vector<std::vector<std::vector<bool>>> answers_by_style;
    for (const EventStream* stream : {&legacy, &interned}) {
      PipelineBuilder builder;
      const EventTypeId a = builder.InternEventType("equiv_a");
      const EventTypeId b = builder.InternEventType("equiv_b");
      builder.AddPrivatePattern(
          MakePattern("private", {a, b}, DetectionMode::kConjunction));
      const PrivateQueryHandle q0 = builder.AddPrivateQuery(
          "q0", MakePattern("t0", {a, b}, DetectionMode::kSequence));
      auto pipeline_or = builder.WithShards(shards)
                             .WithSeed(0xfeedULL)
                             .WithPrivacyWindow(kWindow)
                             .WithMechanism("uniform")
                             .WithEpsilon(1.0)
                             .Build();
      ASSERT_TRUE(pipeline_or.ok()) << pipeline_or.status().ToString();
      Pipeline& pipeline = *pipeline_or.value();
      StreamReplayer replayer;
      replayer.Subscribe(&pipeline);
      ASSERT_TRUE(replayer.Run(*stream, ReplayMode::kBatchPerTick).ok());
      auto finished_or = pipeline.Finish();
      ASSERT_TRUE(finished_or.ok());
      const FinishedPipeline& finished = finished_or.value();

      std::vector<std::vector<bool>> answers;
      for (StreamId subject : finished.Subjects()) {
        answers.push_back(finished.AnswersOf(q0, subject).value().answers());
      }
      ASSERT_FALSE(answers.empty());
      answers_by_style.push_back(std::move(answers));
      ASSERT_TRUE(pipeline.Stop().ok());
    }
    EXPECT_EQ(answers_by_style[0], answers_by_style[1])
        << "shards=" << shards;
  }
}

}  // namespace
}  // namespace pldp
