// Copyright 2026 The PLDP Authors.
//
// Allocation-regression pin for the zero-allocation data plane: after
// warmup, the sharded plain pipeline must process events carrying interned
// attributes with ZERO heap allocations — across the router, the shard
// rings, and the per-shard engines, worker threads included. The
// measurement uses the same operator-new counting hook the bench harness
// ships (bench/bench_util.h); under sanitizer builds the hook is inactive
// and the test skips (the sanitizer owns the allocator).
//
// The measured segment emits only pattern prefixes (never a completion),
// so matcher detection vectors — which legitimately grow with results —
// stay quiet and the assertion can be exact, not approximate.

#define PLDP_ENABLE_ALLOC_HOOK
#include "bench/bench_util.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "api/pipeline_builder.h"
#include "common/random.h"
#include "event/symbol_table.h"
#include "obs/metrics.h"
#include "runtime/parallel_engine.h"
#include "stream/event_stream.h"

namespace pldp {
namespace {

constexpr size_t kSubjects = 8;
constexpr size_t kTypesPerSubject = 3;
constexpr Timestamp kWindow = 4;

/// `full_alphabet` draws all three per-subject types (warmup: completions
/// happen, detection vectors grow); the measurement
/// stream draws only the first two (prefix updates, no completions, no
/// growth). `ts_base` keeps timestamps monotone across the two segments.
EventStream MakeStream(size_t num_events, bool full_alphabet,
                       Timestamp ts_base, uint64_t seed) {
  const AttrId cell = AttrNames().Intern("alloc_test_cell");
  const AttrId zone = AttrNames().Intern("alloc_test_zone");
  const Value zones[2] = {Value::Sym("alloc-test-zone-east"),
                          Value::Sym("alloc-test-zone-west")};
  Rng rng(seed);
  EventStream stream;
  stream.Reserve(num_events);
  const size_t alphabet = full_alphabet ? kTypesPerSubject
                                        : kTypesPerSubject - 1;
  for (size_t i = 0; i < num_events; ++i) {
    const auto subject = static_cast<StreamId>(rng.UniformUint64(kSubjects));
    const auto type = static_cast<EventTypeId>(
        subject * kTypesPerSubject + rng.UniformUint64(alphabet));
    Event e(type, ts_base + static_cast<Timestamp>(i / 8), subject);
    e.SetAttribute(cell, Value(static_cast<int64_t>(i % 64)));
    e.SetAttribute(zone, zones[i % 2]);
    stream.AppendUnchecked(std::move(e));
  }
  return stream;
}

Status IngestBatched(ParallelStreamingEngine& engine,
                     const EventStream& stream) {
  constexpr size_t kBatch = 1024;
  const std::vector<Event>& events = stream.events();
  for (size_t i = 0; i < events.size(); i += kBatch) {
    const size_t n = std::min(kBatch, events.size() - i);
    PLDP_RETURN_IF_ERROR(engine.OnEventBatch(EventSpan(events.data() + i, n)));
  }
  return Status::OK();
}

TEST(AllocRegressionTest, ShardedPlainPipelineSteadyStateIsAllocationFree) {
  if (!bench::kAllocHookActive) {
    GTEST_SKIP() << "allocation hook inactive under sanitizers";
  }

  ParallelEngineOptions options;
  options.shard_count = 2;
  options.queue_capacity = 4096;
  ParallelStreamingEngine engine(options);
  for (size_t k = 0; k < kSubjects; ++k) {
    const auto base = static_cast<EventTypeId>(k * kTypesPerSubject);
    auto pattern = Pattern::Create("seq", {base, base + 1, base + 2},
                                   DetectionMode::kSequence);
    ASSERT_TRUE(pattern.ok());
    ASSERT_TRUE(engine.AddQuery(std::move(pattern).value(), kWindow).ok());
  }
  ASSERT_TRUE(engine.Start().ok());

  // Warmup: completions occur, every buffer reaches steady-state capacity.
  const EventStream warmup =
      MakeStream(40000, /*full_alphabet=*/true, /*ts_base=*/0, /*seed=*/7);
  ASSERT_TRUE(IngestBatched(engine, warmup).ok());
  ASSERT_TRUE(engine.Drain().ok());

  // Steady state: batched AND per-event ingest, drains included — all of
  // it allocation-free. Streams are built before counting starts (event
  // construction interns and may grow the stream vector; the data plane
  // under test is everything from OnEvent on).
  const Timestamp warm_end = 40000 / 8 + 1;
  const EventStream batched =
      MakeStream(50000, /*full_alphabet=*/false, warm_end, /*seed=*/11);
  const EventStream per_event =
      MakeStream(10000, /*full_alphabet=*/false, warm_end + 50000 / 8 + 1,
                 /*seed=*/13);

  bench::ResetAllocCounters();
  bench::SetAllocCounting(true);
  ASSERT_TRUE(IngestBatched(engine, batched).ok());
  ASSERT_TRUE(engine.Drain().ok());
  for (const Event& e : per_event) {
    ASSERT_TRUE(engine.OnEvent(e).ok());
  }
  ASSERT_TRUE(engine.Drain().ok());
  bench::SetAllocCounting(false);

  const bench::AllocCounters counters = bench::GetAllocCounters();
  EXPECT_EQ(counters.allocs, 0u)
      << "steady-state hot path allocated " << counters.allocs << " times ("
      << counters.bytes << " bytes) across "
      << (batched.size() + per_event.size()) << " events";

  EXPECT_EQ(engine.events_processed(),
            warmup.size() + batched.size() + per_event.size());
  ASSERT_TRUE(engine.Stop().ok());
}

// Telemetry must not break the zero-allocation guarantee: with every
// metric registered (read functions over the stages' counters and depths,
// hot-path latency and burst histograms), the steady-state hot path still
// performs ZERO heap allocations — histogram records are relaxed atomics
// on pre-registered slots, never lookups.
TEST(AllocRegressionTest, MetricsEnabledSteadyStateIsAllocationFree) {
  if (!bench::kAllocHookActive) {
    GTEST_SKIP() << "allocation hook inactive under sanitizers";
  }

  ParallelEngineOptions options;
  options.shard_count = 2;
  options.queue_capacity = 4096;
  ParallelStreamingEngine engine(options);
  for (size_t k = 0; k < kSubjects; ++k) {
    const auto base = static_cast<EventTypeId>(k * kTypesPerSubject);
    auto pattern = Pattern::Create("seq", {base, base + 1, base + 2},
                                   DetectionMode::kSequence);
    ASSERT_TRUE(pattern.ok());
    ASSERT_TRUE(engine.AddQuery(std::move(pattern).value(), kWindow).ok());
  }
  obs::MetricsRegistry registry;
  ASSERT_TRUE(engine.EnableMetrics(&registry).ok());
  ASSERT_TRUE(engine.Start().ok());

  const EventStream warmup =
      MakeStream(40000, /*full_alphabet=*/true, /*ts_base=*/0, /*seed=*/7);
  ASSERT_TRUE(IngestBatched(engine, warmup).ok());
  ASSERT_TRUE(engine.Drain().ok());

  const Timestamp warm_end = 40000 / 8 + 1;
  const EventStream batched =
      MakeStream(50000, /*full_alphabet=*/false, warm_end, /*seed=*/11);

  bench::ResetAllocCounters();
  bench::SetAllocCounting(true);
  ASSERT_TRUE(IngestBatched(engine, batched).ok());
  ASSERT_TRUE(engine.Drain().ok());
  bench::SetAllocCounting(false);

  const bench::AllocCounters counters = bench::GetAllocCounters();
  EXPECT_EQ(counters.allocs, 0u)
      << "metrics-enabled hot path allocated " << counters.allocs
      << " times (" << counters.bytes << " bytes) across " << batched.size()
      << " events";

  // The instruments reconciled exactly while staying allocation-free.
  const obs::MetricsSnapshot snapshot = registry.Snapshot();
  const size_t total = warmup.size() + batched.size();
  EXPECT_EQ(obs::SumSamples(snapshot.Find("pldp_shard_events_total")),
            static_cast<double>(total));
  EXPECT_EQ(
      obs::AggregateHistogram(snapshot.Find("pldp_shard_process_latency_ns"))
          .count,
      static_cast<uint64_t>(total));
  ASSERT_TRUE(engine.Stop().ok());
}

/// Cross-subject variant of MakeStream for the exchange pipeline: the
/// type is drawn from a per-group alphabet while the subject is drawn
/// independently, and every event carries the group as an inline int
/// attribute (`grp`) — the exchange correlation key. Prefix-only
/// measurement streams draw only the first two types of each group, so
/// the registered sequences never complete and detection vectors stay
/// quiet.
EventStream MakeCrossStream(size_t num_events, bool full_alphabet,
                            Timestamp ts_base, uint64_t seed) {
  const AttrId grp = AttrNames().Intern("grp");
  Rng rng(seed);
  EventStream stream;
  stream.Reserve(num_events);
  const size_t alphabet = full_alphabet ? kTypesPerSubject
                                        : kTypesPerSubject - 1;
  for (size_t i = 0; i < num_events; ++i) {
    const auto group = rng.UniformUint64(kSubjects);
    const auto type = static_cast<EventTypeId>(
        group * kTypesPerSubject + rng.UniformUint64(alphabet));
    const auto subject = static_cast<StreamId>(rng.UniformUint64(kSubjects));
    Event e(type, ts_base + static_cast<Timestamp>(i / 8), subject);
    e.SetAttribute(grp, Value(static_cast<int64_t>(group)));
    stream.AppendUnchecked(std::move(e));
  }
  return stream;
}

// The two-stage exchange pipeline must hold the same steady-state
// contract as the plain pipeline: after warmup, batched ingest through a
// 2x2 topology (2 stage-1 shards emitting over the lane matrix into 2
// watermark-gated merge shards) stays allocation-free up to a small
// drain-barrier allowance, with metrics off and with every exchange and
// merge instrument wired. This pins the merge-shard reorder-ring
// pre-sizing: before the rings were pre-sized from the per-lane credit
// budget, every reorder past the initial capacity grew a heap ring —
// a per-event cost this assertion would catch immediately.
void ExpectExchangeSteadyStateAllocationFree(bool metrics) {
  SCOPED_TRACE(metrics ? "metrics on" : "metrics off");
  ParallelEngineOptions options;
  options.shard_count = 2;
  options.queue_capacity = 4096;
  options.exchange.shard_count = 2;
  options.exchange.lane_capacity = 1024;
  const CorrelationKeyFn key =
      MakeCorrelationKeyFn(CorrelationKeySpec::ByAttribute("grp")).value();
  ParallelStreamingEngine engine(options);
  for (size_t k = 0; k < kSubjects; ++k) {
    const auto base = static_cast<EventTypeId>(k * kTypesPerSubject);
    auto pattern = Pattern::Create("seq", {base, base + 1, base + 2},
                                   DetectionMode::kSequence);
    ASSERT_TRUE(pattern.ok());
    ASSERT_TRUE(engine
                    .AddCrossQuery(std::move(pattern).value(), kWindow, "grp",
                                   key, /*forward_raw_events=*/true)
                    .ok());
  }
  obs::MetricsRegistry registry;
  if (metrics) {
    ASSERT_TRUE(engine.EnableMetrics(&registry).ok());
  }
  ASSERT_TRUE(engine.Start().ok());

  // Warmup: completions occur; exchange lanes and the merge reorder
  // rings reach steady-state capacity.
  const EventStream warmup = MakeCrossStream(40000, /*full_alphabet=*/true,
                                             /*ts_base=*/0, /*seed=*/17);
  ASSERT_TRUE(IngestBatched(engine, warmup).ok());
  ASSERT_TRUE(engine.Drain().ok());

  const Timestamp warm_end = 40000 / 8 + 1;
  const EventStream batched =
      MakeCrossStream(50000, /*full_alphabet=*/false, warm_end, /*seed=*/19);

  bench::ResetAllocCounters();
  bench::SetAllocCounting(true);
  ASSERT_TRUE(IngestBatched(engine, batched).ok());
  ASSERT_TRUE(engine.Drain().ok());
  bench::SetAllocCounting(false);

  const bench::AllocCounters counters = bench::GetAllocCounters();
  // The drain barrier's watermark round-trip may allocate O(shards) small
  // bookkeeping nodes; per-EVENT costs would blow through this bound by
  // three orders of magnitude (0.007 allocs/event over 50k events = 350).
  const double per_event = static_cast<double>(counters.allocs) /
                           static_cast<double>(batched.size());
  EXPECT_LE(per_event, 0.007)
      << "exchange steady state allocated " << counters.allocs << " times ("
      << counters.bytes << " bytes) across " << batched.size() << " events";

  if (metrics) {
    // The exchange and merge instruments were live: every event crossed
    // the lane matrix and reached a merge shard.
    const obs::MetricsSnapshot snapshot = registry.Snapshot();
    const double total = static_cast<double>(warmup.size() + batched.size());
    EXPECT_EQ(obs::SumSamples(snapshot.Find("pldp_exchange_forwarded_total")),
              total);
    EXPECT_EQ(obs::SumSamples(snapshot.Find("pldp_merge_events_total")),
              total);
  }
  ASSERT_TRUE(engine.Stop().ok());
}

TEST(AllocRegressionTest, ExchangePipelineSteadyStateIsAllocationFree) {
  if (!bench::kAllocHookActive) {
    GTEST_SKIP() << "allocation hook inactive under sanitizers";
  }
  for (bool metrics : {false, true}) {
    ExpectExchangeSteadyStateAllocationFree(metrics);
  }
}

/// The private lane's shape, scaled down from perfbench's `private`
/// workload: uniform subjects over 8 types, 64 events per tick, and a
/// privacy window of 64 ticks, so a subject closes a window about every
/// 4 of its events.
constexpr size_t kPrivateSubjects = 1024;
constexpr size_t kPrivateEventsPerTick = 64;
constexpr Timestamp kPrivateWindow = 64;

std::vector<Event> MakePrivateStream(size_t num_events, size_t first_event,
                                     uint64_t seed) {
  Rng rng(seed);
  std::vector<Event> events;
  events.reserve(num_events);
  for (size_t i = first_event; i < first_event + num_events; ++i) {
    events.push_back(
        Event(static_cast<EventTypeId>(rng.UniformUint64(8)),
              static_cast<Timestamp>(i / kPrivateEventsPerTick),
              static_cast<StreamId>(rng.UniformUint64(kPrivateSubjects))));
  }
  return events;
}

// The private lane publishes from per-type counts into a reused view:
// once every subject has been seen, absorbing an event and closing a
// window allocate nothing. What remains is each subject's answer series
// growing (three bits per window, in doubling steps), well under the
// bound; buffering each window's events and allocating the view and its
// scratch per window costs about 0.75 allocations per event here.
TEST(AllocRegressionTest, PrivatePipelineSteadyStateAllocations) {
  if (!bench::kAllocHookActive) {
    GTEST_SKIP() << "allocation hook inactive under sanitizers";
  }
  PipelineBuilder builder;
  builder.WithShards(3).WithQueueCapacity(4096);
  const char* const kTypes[] = {"door",   "motion", "kettle", "tv",
                                "fridge", "shower", "light",  "lock"};
  for (const char* name : kTypes) builder.InternEventType(name);
  builder.AddPrivatePattern(
      Pattern::Create("home_alone", {0, 1}, DetectionMode::kConjunction));
  const Pattern targets[] = {
      Pattern::Create("breakfast", {0, 2}, DetectionMode::kSequence).value(),
      Pattern::Create("evening", {3, 4}, DetectionMode::kConjunction).value(),
      Pattern::Create("bedtime", {5, 6, 7}, DetectionMode::kSequence).value()};
  for (const Pattern& p : targets) builder.AddPrivateQuery(p.name(), p);
  // A plain query on a type the stream never carries: it matches nothing
  // and makes Drain() the runtime barrier (a private-only pipeline's
  // Drain returns at once), so the measured segment ends once the shards
  // have absorbed it.
  builder.AddQuery(Pattern::Create("never", {8}, DetectionMode::kSequence),
                   kPrivateWindow);
  builder.WithPrivacyWindow(kPrivateWindow)
      .WithEpsilon(1.0)
      .WithMechanism("uniform")
      .WithSeed(0x5eed);
  auto built = builder.Build();
  ASSERT_TRUE(built.ok()) << built.status();
  std::unique_ptr<Pipeline> pipeline = std::move(built).value();

  // Warmup: every subject is created (mechanism, counts, map node) and
  // has published about 32 windows.
  constexpr size_t kWarmup = 131072;
  constexpr size_t kMeasured = 262144;
  const std::vector<Event> warmup = MakePrivateStream(kWarmup, 0, 21);
  const std::vector<Event> measured =
      MakePrivateStream(kMeasured, kWarmup, 23);
  constexpr size_t kBatch = 1024;
  for (size_t i = 0; i < warmup.size(); i += kBatch) {
    ASSERT_TRUE(
        pipeline->OnEventBatch(EventSpan(warmup.data() + i, kBatch)).ok());
  }
  ASSERT_TRUE(pipeline->Drain().ok());

  bench::ResetAllocCounters();
  bench::SetAllocCounting(true);
  for (size_t i = 0; i < measured.size(); i += kBatch) {
    ASSERT_TRUE(
        pipeline->OnEventBatch(EventSpan(measured.data() + i, kBatch)).ok());
  }
  ASSERT_TRUE(pipeline->Drain().ok());
  bench::SetAllocCounting(false);

  const bench::AllocCounters counters = bench::GetAllocCounters();
  const double per_event = static_cast<double>(counters.allocs) /
                           static_cast<double>(measured.size());
  EXPECT_LE(per_event, 0.05)
      << "private steady state allocated " << counters.allocs << " times ("
      << counters.bytes << " bytes) across " << measured.size() << " events";

  auto finished = pipeline->Finish();
  ASSERT_TRUE(finished.ok()) << finished.status();
  EXPECT_EQ(finished.value().Subjects().size(), kPrivateSubjects);
  // About 96 windows per subject; a publisher that closed no windows in
  // the measured segment would pass the bound above vacuously.
  EXPECT_GT(finished.value().total_windows(), 90 * kPrivateSubjects);
}

TEST(AllocRegressionTest, EventCopyWithInlineInternedAttrsIsAllocationFree) {
  if (!bench::kAllocHookActive) {
    GTEST_SKIP() << "allocation hook inactive under sanitizers";
  }
  Event e(3, 17, 5);
  e.SetAttribute("alloc_test_cell", Value(int64_t{12}));
  e.SetAttribute("alloc_test_zone", Value::Sym("alloc-test-zone-east"));

  bench::ResetAllocCounters();
  bench::SetAllocCounting(true);
  Event copy = e;            // flyweight copy
  Event assigned;
  assigned = copy;           // and copy-assignment
  bench::SetAllocCounting(false);

  EXPECT_EQ(assigned, e);
  EXPECT_EQ(bench::GetAllocCounters().allocs, 0u);
}

}  // namespace
}  // namespace pldp
