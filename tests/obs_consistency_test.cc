// Copyright 2026 The PLDP Authors.
//
// Metrics-consistency pinning: under fixed seeds, the telemetry layer must
// reconcile EXACTLY with ground truth at 1/2/4 shards — not "roughly
// agree". Sum of per-shard events == events ingested; exchange forwarded
// == merge received == merge released; per-event latency histogram count
// == events processed; private windows/subjects/budget gauges == the
// engine's own result counters. A telemetry layer that drops or
// double-counts under concurrency is worse than none.
//
// The scrape-concurrency test runs snapshot/render/health loops against a
// live ingesting pipeline; under the TSan CI configuration it doubles as a
// data-race check of the whole instrument plane.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "api/pipeline_builder.h"
#include "common/random.h"
#include "obs/metrics.h"
#include "stream/event_stream.h"
#include "stream/replay.h"

namespace pldp {
namespace {

constexpr uint64_t kSeed = 0x0b5e7eedULL;
constexpr Timestamp kQueryWindow = 8;
constexpr size_t kTypes = 3;
constexpr size_t kSubjects = 8;

Pattern MakePattern(const char* name, std::vector<EventTypeId> elems,
                    DetectionMode mode) {
  return Pattern::Create(name, std::move(elems), mode).value();
}

/// Subjects and types drawn independently, so both subject-local and
/// cross-subject queries see work.
EventStream MakeStream(size_t num_events, uint64_t seed) {
  Rng rng(seed);
  EventStream stream;
  stream.Reserve(num_events);
  for (size_t i = 0; i < num_events; ++i) {
    const auto type = static_cast<EventTypeId>(rng.UniformUint64(kTypes));
    const auto subject = static_cast<StreamId>(rng.UniformUint64(kSubjects));
    stream.AppendUnchecked(
        Event(type, static_cast<Timestamp>(i / 8), subject));
  }
  return stream;
}

/// Sum of a family's sample values restricted to one label value.
double SumWhere(const obs::MetricFamily* family, const std::string& key,
                const std::string& value) {
  if (family == nullptr) return 0.0;
  double total = 0.0;
  for (const obs::MetricSample& sample : family->samples) {
    for (const auto& kv : sample.labels) {
      if (kv.first == key && kv.second == value) {
        total += sample.value;
        break;
      }
    }
  }
  return total;
}

/// Total histogram count restricted to one label value.
uint64_t HistCountWhere(const obs::MetricFamily* family,
                        const std::string& key, const std::string& value) {
  if (family == nullptr) return 0;
  uint64_t total = 0;
  for (const obs::MetricSample& sample : family->samples) {
    for (const auto& kv : sample.labels) {
      if (kv.first == key && kv.second == value) {
        total += sample.histogram.count;
        break;
      }
    }
  }
  return total;
}

TEST(MetricsConsistencyTest, PlainAndCrossReconcileExactly) {
  const EventStream stream = MakeStream(20000, 21);
  const Pattern plain_pattern =
      MakePattern("seq", {0, 1, 2}, DetectionMode::kSequence);
  const Pattern cross_pattern =
      MakePattern("conj", {0, 1, 2}, DetectionMode::kConjunction);

  for (size_t shards : {1u, 2u, 4u}) {
    PipelineBuilder builder;
    (void)builder.AddQuery(plain_pattern, kQueryWindow);
    (void)builder.AddCrossQuery(cross_pattern, kQueryWindow,
                                CorrelationKey::Global());
    auto pipeline_or = builder.WithShards(shards)
                           .WithCrossShards(2)
                           .WithSeed(kSeed)
                           .EnableMetrics()
                           .Build();
    ASSERT_TRUE(pipeline_or.ok()) << pipeline_or.status().ToString();
    Pipeline& pipeline = *pipeline_or.value();
    ASSERT_NE(pipeline.metrics(), nullptr);

    StreamReplayer replayer;
    replayer.Subscribe(&pipeline);
    ASSERT_TRUE(replayer.Run(stream, ReplayMode::kBatchPerTick).ok());
    ASSERT_TRUE(pipeline.Finish().ok());

    const obs::MetricsSnapshot snapshot = pipeline.MetricsSnapshot();
    const double n = static_cast<double>(stream.size());

    // Ingest == sum of per-shard processed events, exactly.
    EXPECT_EQ(obs::SumSamples(
                  snapshot.Find("pldp_pipeline_events_ingested_total")),
              n)
        << "shards=" << shards;
    EXPECT_EQ(obs::SumSamples(snapshot.Find("pldp_shard_events_total")), n)
        << "shards=" << shards;
    // Every processed event recorded exactly one latency sample, and the
    // pop-burst histogram accounted for every event once.
    EXPECT_EQ(obs::AggregateHistogram(
                  snapshot.Find("pldp_shard_process_latency_ns"))
                  .count,
              stream.size())
        << "shards=" << shards;
    const obs::HistogramData bursts = obs::AggregateHistogram(
        snapshot.Find("pldp_shard_batch_size"));
    EXPECT_EQ(bursts.sum, stream.size()) << "shards=" << shards;

    // Conservation across the exchange (a 1-shard pipeline has one too):
    // after Finish everything forwarded was released.
    const double forwarded = SumWhere(
        snapshot.Find("pldp_exchange_forwarded_total"), "lane", "plain");
    const double merged = SumWhere(snapshot.Find("pldp_merge_events_total"),
                                   "lane", "plain");
    EXPECT_EQ(forwarded, n) << "shards=" << shards;
    EXPECT_EQ(merged, forwarded) << "shards=" << shards;
    EXPECT_EQ(HistCountWhere(snapshot.Find("pldp_merge_latency_ns"), "lane",
                             "plain"),
              static_cast<uint64_t>(merged))
        << "shards=" << shards;
    // Watermark broadcasts happened (producer floors + the end seal).
    EXPECT_GT(SumWhere(snapshot.Find("pldp_exchange_watermarks_total"),
                       "lane", "plain"),
              0.0)
        << "shards=" << shards;

    // Drained pipeline: every occupancy gauge reads empty.
    EXPECT_EQ(obs::SumSamples(snapshot.Find("pldp_shard_queue_depth")), 0.0)
        << "shards=" << shards;
    EXPECT_EQ(obs::SumSamples(snapshot.Find("pldp_exchange_lane_depth")), 0.0)
        << "shards=" << shards;
    EXPECT_EQ(obs::SumSamples(snapshot.Find("pldp_merge_reorder_depth")), 0.0)
        << "shards=" << shards;

    // Intern-table gauges report live occupancy against their budgets.
    EXPECT_GT(obs::SumSamples(snapshot.Find("pldp_intern_attr_budget")), 0.0);
    EXPECT_GT(obs::SumSamples(snapshot.Find("pldp_intern_symbol_budget")),
              0.0);
  }
}

TEST(MetricsConsistencyTest, PrivateLaneReconcilesExactly) {
  constexpr Timestamp kPrivacyWindow = 5;
  constexpr double kEpsilon = 1.0;
  const EventStream stream = MakeStream(8000, 23);

  // Private-only, and mixed: plain + cross + private on one set of shards,
  // where every event is still processed exactly once.
  for (const bool mixed : {false, true}) {
    for (size_t shards : {1u, 2u, 4u}) {
      const std::string run = std::string(mixed ? "mixed" : "private-only") +
                              " shards=" + std::to_string(shards);
      PipelineBuilder builder;
      for (size_t t = 0; t < kTypes; ++t) {
        (void)builder.InternEventType("t" + std::to_string(t));
      }
      if (mixed) {
        (void)builder.AddQuery(
            MakePattern("seq", {0, 1, 2}, DetectionMode::kSequence),
            kQueryWindow);
        (void)builder.AddCrossQuery(
            MakePattern("conj", {0, 1, 2}, DetectionMode::kConjunction),
            kQueryWindow, CorrelationKey::Global());
      }
      builder.AddPrivatePattern(
          MakePattern("meds", {0, 1}, DetectionMode::kConjunction));
      PrivateQueryHandle q = builder.AddPrivateQuery(
          "came_home",
          MakePattern("home", {0, 2}, DetectionMode::kConjunction));
      auto pipeline_or = builder.WithShards(shards)
                             .WithSeed(kSeed)
                             .WithPrivacyWindow(kPrivacyWindow)
                             .WithMechanism("uniform")
                             .WithEpsilon(kEpsilon)
                             .EnableMetrics()
                             .Build();
      ASSERT_TRUE(pipeline_or.ok()) << pipeline_or.status().ToString();
      Pipeline& pipeline = *pipeline_or.value();

      StreamReplayer replayer;
      replayer.Subscribe(&pipeline);
      ASSERT_TRUE(replayer.Run(stream, ReplayMode::kBatchPerTick).ok());
      auto finished_or = pipeline.Finish();
      ASSERT_TRUE(finished_or.ok()) << finished_or.status().ToString();
      const FinishedPipeline& finished = finished_or.value();
      ASSERT_TRUE(finished.AnswersOf(q, finished.Subjects().front()).ok());

      const obs::MetricsSnapshot snapshot = pipeline.MetricsSnapshot();
      EXPECT_EQ(obs::SumSamples(snapshot.Find("pldp_shard_events_total")),
                static_cast<double>(stream.size()))
          << run;
      size_t processed = 0;
      for (const ShardStats& s : pipeline.ShardStatsSnapshot()) {
        processed += s.events_processed;
      }
      EXPECT_EQ(processed, stream.size()) << run;
      EXPECT_EQ(obs::SumSamples(snapshot.Find("pldp_private_windows_total")),
                static_cast<double>(finished.total_windows()))
          << run;
      EXPECT_EQ(obs::SumSamples(snapshot.Find("pldp_private_subjects")),
                static_cast<double>(finished.Subjects().size()))
          << run;
      // The budget ledger granted ε to the one private pattern and charged
      // the activation against it in full.
      EXPECT_EQ(obs::SumSamples(snapshot.Find("pldp_dp_budget_granted")),
                kEpsilon)
          << run;
      EXPECT_EQ(obs::SumSamples(snapshot.Find("pldp_dp_budget_spent")),
                kEpsilon)
          << run;
    }
  }
}

TEST(MetricsConsistencyTest, DisabledMetricsExposeNothing) {
  PipelineBuilder builder;
  (void)builder.AddQuery(MakePattern("seq", {0, 1}, DetectionMode::kSequence),
                         kQueryWindow);
  auto pipeline_or = builder.WithShards(2).Build();
  ASSERT_TRUE(pipeline_or.ok());
  Pipeline& pipeline = *pipeline_or.value();
  EXPECT_EQ(pipeline.metrics(), nullptr);
  EXPECT_TRUE(pipeline.MetricsSnapshot().families.empty());
  // Health still works without metrics (it reads live runtime state).
  EXPECT_EQ(pipeline.Health().state, obs::PipelineHealth::State::kHealthy);
  ASSERT_TRUE(pipeline.Finish().ok());
}

/// The shed counter reconciles with Pipeline::events_shed(): a worker
/// stalled inside a detection callback makes kShedOldest drop part of a
/// flood, and every drop is counted once, on its shard's series.
TEST(MetricsConsistencyTest, ShedCounterMatchesEventsShed) {
  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  std::atomic<bool> blocked{false};
  PipelineBuilder builder;
  builder
      .AddQuery(MakePattern("seq", {0, 1}, DetectionMode::kSequence),
                kQueryWindow)
      .OnDetection([&](Timestamp) {
        std::unique_lock<std::mutex> lock(mu);
        blocked.store(true);
        cv.wait(lock, [&] { return release; });
      });
  auto pipeline_or = builder.WithShards(2)
                         .WithQueueCapacity(8)
                         .WithOverloadPolicy(OverloadPolicy::kShedOldest, 4)
                         .EnableMetrics()
                         .Build();
  ASSERT_TRUE(pipeline_or.ok()) << pipeline_or.status().ToString();
  Pipeline& pipeline = *pipeline_or.value();

  // Complete the pattern on subject 1, then wait until its worker is stuck.
  ASSERT_TRUE(pipeline.OnEvent(Event(0, 0, /*subject=*/1)).ok());
  ASSERT_TRUE(pipeline.OnEvent(Event(1, 1, /*subject=*/1)).ok());
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (!blocked.load() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_TRUE(blocked.load()) << "worker never reached the callback";

  // Flood the stalled shard (and the other one) without blocking ingest.
  for (size_t i = 0; i < 2000; ++i) {
    const auto subject = static_cast<StreamId>(i % kSubjects);
    ASSERT_TRUE(
        pipeline.OnEvent(Event(2, static_cast<Timestamp>(2 + i), subject))
            .ok());
  }
  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  ASSERT_TRUE(pipeline.Finish().ok());

  const obs::MetricsSnapshot snapshot = pipeline.MetricsSnapshot();
  const double shed = SumWhere(snapshot.Find("pldp_shed_events_total"),
                               "policy", "shed-oldest");
  EXPECT_GT(pipeline.events_shed(), 0u);
  EXPECT_EQ(shed, static_cast<double>(pipeline.events_shed()));
  EXPECT_EQ(obs::SumSamples(snapshot.Find("pldp_shed_events_total")), shed);
}

/// Scrapes (snapshot + both renderings + health) race ingestion. Exactness
/// still holds at the end; under TSan this covers the whole instrument
/// plane for data races.
TEST(MetricsConsistencyTest, ConcurrentScrapeWhileIngesting) {
  const EventStream stream = MakeStream(60000, 29);
  PipelineBuilder builder;
  (void)builder.AddQuery(MakePattern("seq", {0, 1, 2},
                                     DetectionMode::kSequence),
                         kQueryWindow);
  (void)builder.AddCrossQuery(
      MakePattern("conj", {0, 1, 2}, DetectionMode::kConjunction),
      kQueryWindow, CorrelationKey::Global());
  auto pipeline_or =
      builder.WithShards(2).WithCrossShards(2).WithSeed(kSeed).EnableMetrics()
          .Build();
  ASSERT_TRUE(pipeline_or.ok()) << pipeline_or.status().ToString();
  Pipeline& pipeline = *pipeline_or.value();

  std::atomic<bool> stop{false};
  std::atomic<size_t> scrapes{0};
  std::thread scraper([&] {
    while (!stop.load(std::memory_order_acquire)) {
      const obs::MetricsSnapshot snapshot = pipeline.MetricsSnapshot();
      const std::string text = obs::RenderPrometheusText(snapshot);
      const std::string json = obs::RenderJson(snapshot);
      const obs::PipelineHealth health = pipeline.Health();
      if (!text.empty() && !json.empty() && !health.Describe().empty()) {
        scrapes.fetch_add(1, std::memory_order_relaxed);
      }
    }
  });

  constexpr size_t kBatch = 256;
  const std::vector<Event>& events = stream.events();
  for (size_t i = 0; i < events.size(); i += kBatch) {
    const size_t n = std::min(kBatch, events.size() - i);
    ASSERT_TRUE(
        pipeline.OnEventBatch(EventSpan(events.data() + i, n)).ok());
  }
  ASSERT_TRUE(pipeline.Finish().ok());
  stop.store(true, std::memory_order_release);
  scraper.join();
  EXPECT_GT(scrapes.load(), 0u);

  const obs::MetricsSnapshot snapshot = pipeline.MetricsSnapshot();
  const double n = static_cast<double>(stream.size());
  EXPECT_EQ(
      obs::SumSamples(snapshot.Find("pldp_pipeline_events_ingested_total")),
      n);
  EXPECT_EQ(obs::SumSamples(snapshot.Find("pldp_shard_events_total")), n);
  EXPECT_EQ(SumWhere(snapshot.Find("pldp_merge_events_total"), "lane",
                     "plain"),
            SumWhere(snapshot.Find("pldp_exchange_forwarded_total"), "lane",
                     "plain"));
}

}  // namespace
}  // namespace pldp
