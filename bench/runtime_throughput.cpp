// Copyright 2026 The PLDP Authors.
//
// Scaling + allocation benchmark for the sharded parallel streaming
// runtime, in three sections sharing one result table (rows labeled "N",
// "N+attrs", "NxN"):
//
// All workloads are declared through the PipelineBuilder API (the planner
// compiles the topology: a budget of 1 plans a one-worker runtime, so the
// 1-shard row and the speedup_vs_1 baseline measure the runtime on one
// worker thread — queue hop included — not the in-process sequential
// engine; the exchange workload's custom "group" key compiles into one
// shared lane-group):
//
//   1. Subject-local workload: ingest a keyed synthetic stream (many data
//      subjects, per-subject event-type alphabets, one sequence + one
//      conjunction query per subject) through the planned pipeline at
//      shard budgets 1/2/4/8 — once per-event (OnEvent) and once batched
//      (OnEventBatch in fixed chunks) — reporting events/sec for both, the
//      batched-vs-per-event ratio, and speedup vs 1 shard.
//   2. Attributed subject-local workload: the same stream shape but every
//      event carries two attributes (an int `cell` and an interned-symbol
//      `zone`), the regime the zero-allocation data plane exists for:
//      before attribute interning + Event's inline attribute buffer this
//      measured ~2 heap allocations per event; now it must be ~0.
//   3. Cross-subject workload: the alphabet keyed by a *group* attribute
//      uncorrelated with the subject, so every match spans subjects and
//      must ride the repartition/exchange stage onto NxN merge shards.
//
// Allocation accounting: the PLDP_ENABLE_ALLOC_HOOK counting hook
// (bench_util.h) measures heap allocations and bytes per event across the
// steady-state segment of each batched run — the first ~6% of the stream
// is ingested and drained as warmup (first-touch growth of staging
// buffers, detection vectors, subject maps), then counting covers the
// rest, including everything the worker threads allocate. The columns land
// in BENCH_runtime.json, which CI archives per push, so allocation
// regressions are as diffable as throughput regressions.
//
// Telemetry columns: each shard budget additionally runs the batched
// ingest once with metrics enabled (EnableMetrics on the builder — every
// counter/histogram/gauge wired). The run reports p50/p99/p999 per-event
// processing latency from the pipeline-wide aggregate of the
// pldp_shard_process_latency_ns histograms, plus the relative throughput
// overhead of instrumentation vs the metrics-off batched run (target:
// under ~2% — instrument updates are relaxed atomics on pre-registered
// slots).
//
// Core affinity: `--cores N` pins workers round-robin to the first N
// cores via WithCoreAffinity (stage-1 shards first, then merge shards).
// The `cores` column records the pinning budget (0 = unpinned) and the
// `parks` column the total doorbell parks across the three runs of each
// row — both land in the schema_version-2 JSON so CI can assert the
// parking path actually engages on idle-heavy runs.
//
// Every configuration is cross-checked against the sequential
// StreamingCepEngine's detection count; the bench exits non-zero on a
// mismatch.
//
// Acceptance targets: > 1.5x events/sec at 4 shards vs 1 shard (ISSUE 1),
// batched >= 2x per-event at 4 shards (ISSUE 2) — both on a multi-core
// machine; a 1-core container only measures overhead, not scaling — and
// ~0 allocations/event steady-state on the attributed plain workload
// (ISSUE 4).

#define PLDP_ENABLE_ALLOC_HOOK

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "core/pldp.h"

namespace pldp {
namespace {

constexpr size_t kTypesPerSubject = 3;
constexpr size_t kIngestBatch = 1024;

/// Interned zone payloads for the attributed workload (two distinct
/// values, both longer than SSO so the legacy std::string layout really
/// paid heap for them).
const char* ZoneName(size_t i) {
  return i % 2 == 0 ? "district-downtown-3" : "district-uptown-007";
}

EventStream KeyedStream(size_t subjects, size_t num_events, uint64_t seed,
                        bool attributed) {
  // Bind the attribute ids once; per-event attribute writes are then pure
  // integer-keyed inline stores.
  const AttrId cell_attr = AttrNames().Intern("cell");
  const AttrId zone_attr = AttrNames().Intern("zone");
  const Value zones[2] = {Value::Sym(ZoneName(0)), Value::Sym(ZoneName(1))};
  Rng rng(seed);
  EventStream stream;
  stream.Reserve(num_events);
  for (size_t i = 0; i < num_events; ++i) {
    const auto subject = static_cast<StreamId>(rng.UniformUint64(subjects));
    const auto type = static_cast<EventTypeId>(
        subject * kTypesPerSubject + rng.UniformUint64(kTypesPerSubject));
    Event e(type, static_cast<Timestamp>(i / 8), subject);
    if (attributed) {
      e.SetAttribute(cell_attr, Value(static_cast<int64_t>(i % 64)));
      e.SetAttribute(zone_attr, zones[i % 2]);
    }
    stream.AppendUnchecked(std::move(e));
  }
  return stream;
}

/// Cross-subject variant: the type is drawn from a *group* alphabet while
/// the subject is drawn independently, so group matches span subjects.
/// The correlation key is recoverable from the type (group = type /
/// kTypesPerSubject), which keeps the hot path attribute-free.
EventStream CrossKeyedStream(size_t groups, size_t subjects,
                             size_t num_events, uint64_t seed) {
  Rng rng(seed);
  EventStream stream;
  stream.Reserve(num_events);
  for (size_t i = 0; i < num_events; ++i) {
    const auto group = rng.UniformUint64(groups);
    const auto type = static_cast<EventTypeId>(
        group * kTypesPerSubject + rng.UniformUint64(kTypesPerSubject));
    const auto subject = static_cast<StreamId>(rng.UniformUint64(subjects));
    stream.AppendUnchecked(
        Event(type, static_cast<Timestamp>(i / 8), subject));
  }
  return stream;
}

uint64_t GroupOfType(const Event& e) {
  return static_cast<uint64_t>(e.type()) / kTypesPerSubject;
}

template <typename AddQueryFn>
int RegisterAlphabetQueries(AddQueryFn add, size_t groups, Timestamp window) {
  for (size_t k = 0; k < groups; ++k) {
    const auto base = static_cast<EventTypeId>(k * kTypesPerSubject);
    auto seq = Pattern::Create("seq", {base, base + 1, base + 2},
                               DetectionMode::kSequence);
    auto conj = Pattern::Create("conj", {base + 2, base},
                                DetectionMode::kConjunction);
    if (!seq.ok() || !conj.ok() ||
        !add(std::move(seq).value(), window).ok() ||
        !add(std::move(conj).value(), window).ok()) {
      return 1;
    }
  }
  return 0;
}

/// Declares the alphabet queries on a PipelineBuilder: plain per-subject
/// queries, or cross queries sharing the group-keyed lane (one custom key
/// name -> one exchange lane-group for all of them).
void DeclareAlphabetQueries(PipelineBuilder& builder, size_t groups,
                            Timestamp window, bool exchange) {
  for (size_t k = 0; k < groups; ++k) {
    const auto base = static_cast<EventTypeId>(k * kTypesPerSubject);
    auto seq = Pattern::Create("seq", {base, base + 1, base + 2},
                               DetectionMode::kSequence);
    auto conj = Pattern::Create("conj", {base + 2, base},
                                DetectionMode::kConjunction);
    if (exchange) {
      (void)builder.AddCrossQuery(std::move(seq), window,
                                  CorrelationKey::Custom("group",
                                                         GroupOfType));
      (void)builder.AddCrossQuery(std::move(conj), window,
                                  CorrelationKey::Custom("group",
                                                         GroupOfType));
    } else {
      (void)builder.AddQuery(std::move(seq), window);
      (void)builder.AddQuery(std::move(conj), window);
    }
  }
}

double Seconds(std::chrono::steady_clock::time_point start,
               std::chrono::steady_clock::time_point end) {
  return std::chrono::duration<double>(end - start).count();
}

enum class IngestMode { kPerEvent, kBatched };

Status IngestRange(StreamSubscriber& subscriber,
                   const std::vector<Event>& events, size_t begin, size_t end,
                   IngestMode mode) {
  if (mode == IngestMode::kPerEvent) {
    for (size_t i = begin; i < end; ++i) {
      PLDP_RETURN_IF_ERROR(subscriber.OnEvent(events[i]));
    }
    return Status::OK();
  }
  for (size_t i = begin; i < end; i += kIngestBatch) {
    const size_t n = std::min(kIngestBatch, end - i);
    PLDP_RETURN_IF_ERROR(
        subscriber.OnEventBatch(EventSpan(events.data() + i, n)));
  }
  return Status::OK();
}

/// Per-run allocation readout; negative when the hook is inactive.
struct AllocPerEvent {
  double allocs = -1.0;
  double bytes = -1.0;
};

/// Per-event processing latency quantiles (ns) from the pipeline-wide
/// aggregate of the per-shard latency histograms; negative when the run
/// had metrics disabled.
struct LatencyQuantiles {
  double p50 = -1.0;
  double p99 = -1.0;
  double p999 = -1.0;
};

/// Ingests `stream` into a fresh engine; returns steady-state events/sec,
/// or a negative value on error. With `exchange`, the queries run as cross
/// queries on an NxN exchange pipeline keyed by group. The first ~6% of
/// the stream is untimed, uncounted warmup (see file comment);
/// `waits`/`detections`/`alloc` report the steady-state segment's
/// counters (waits = stage-1 queue + exchange lane backpressure). With
/// `metrics`, the pipeline is built fully instrumented and `latency` (if
/// non-null) receives p50/p99/p999 of the pipeline-wide
/// pldp_shard_process_latency_ns aggregate (warmup events included — the
/// histogram spans the pipeline's whole life, and the steady state
/// dominates the distribution).
double TimedIngest(const EventStream& stream, size_t groups,
                   Timestamp window, size_t shards, bool exchange,
                   IngestMode mode, size_t* waits, size_t* detections,
                   AllocPerEvent* alloc, size_t cores, size_t* parks,
                   bool metrics = false,
                   LatencyQuantiles* latency = nullptr) {
  // Declarative construction: the builder plans the topology from the
  // queries (a shard budget of 1 plans a one-worker runtime; the exchange
  // workload's custom "group" key compiles into one shared lane-group).
  PipelineBuilder builder;
  DeclareAlphabetQueries(builder, groups, window, exchange);
  builder.WithShards(shards)
      .WithCrossShards(shards)
      .WithQueueCapacity(4096)
      .WithExchangeCapacity(4096)
      .EnableMetrics(metrics);
  // --cores N: pin workers round-robin to the first N cores (graceful
  // no-op on machines without pthread affinity support).
  if (cores > 0) builder.WithCoreAffinity(cores);
  auto pipeline_or = builder.Build();
  if (!pipeline_or.ok()) return -1.0;
  Pipeline& pipeline = *pipeline_or.value();

  const std::vector<Event>& events = stream.events();
  const size_t warmup = std::min<size_t>(events.size() / 16, 65536);
  if (!IngestRange(pipeline, events, 0, warmup, mode).ok()) return -1.0;
  if (!pipeline.Drain().ok()) return -1.0;

  bench::ResetAllocCounters();
  bench::SetAllocCounting(true);
  const auto t0 = std::chrono::steady_clock::now();
  if (!IngestRange(pipeline, events, warmup, events.size(), mode).ok()) {
    return -1.0;
  }
  if (!pipeline.Drain().ok()) return -1.0;
  const auto t1 = std::chrono::steady_clock::now();
  bench::SetAllocCounting(false);

  const size_t measured = events.size() - warmup;
  if (bench::kAllocHookActive && alloc != nullptr) {
    const bench::AllocCounters counters = bench::GetAllocCounters();
    alloc->allocs =
        static_cast<double>(counters.allocs) / static_cast<double>(measured);
    alloc->bytes =
        static_cast<double>(counters.bytes) / static_cast<double>(measured);
  }

  if (metrics && latency != nullptr) {
    const obs::MetricsSnapshot snapshot = pipeline.MetricsSnapshot();
    const obs::HistogramData hist = obs::AggregateHistogram(
        snapshot.Find("pldp_shard_process_latency_ns"));
    latency->p50 = hist.Quantile(0.50);
    latency->p99 = hist.Quantile(0.99);
    latency->p999 = hist.Quantile(0.999);
  }

  *waits = 0;
  size_t park_total = 0;
  for (const ShardStats& s : pipeline.ShardStatsSnapshot()) {
    *waits += s.backpressure_waits + s.exchange_backpressure_waits;
    park_total += s.parks;
  }
  for (const ShardStats& s : pipeline.CrossShardStatsSnapshot()) {
    park_total += s.parks;
  }
  if (parks != nullptr) *parks = park_total;
  // Detections live behind the typed drain barrier.
  auto finished = pipeline.Finish();
  if (!finished.ok()) return -1.0;
  *detections = exchange ? finished.value().total_cross_detections()
                         : finished.value().total_detections();
  if (!pipeline.Stop().ok()) return -1.0;
  return static_cast<double>(measured) / Seconds(t0, t1);
}

/// Sequential detection-count ground truth + baseline rate.
double SequentialReference(const EventStream& stream, size_t groups,
                           Timestamp window, size_t* detections) {
  StreamingCepEngine reference;
  const auto add = [&reference](Pattern p, Timestamp w) {
    return reference.AddQuery(std::move(p), w);
  };
  if (RegisterAlphabetQueries(add, groups, window) != 0) return -1.0;
  const auto t0 = std::chrono::steady_clock::now();
  for (const Event& e : stream) (void)reference.OnEvent(e);
  const auto t1 = std::chrono::steady_clock::now();
  *detections = reference.total_detections();
  return static_cast<double>(stream.size()) / Seconds(t0, t1);
}

/// Benches one workload into `table` (label_suffix distinguishes the
/// sections: "" plain, "+attrs" attributed, exchange rows are "NxN");
/// returns false on a detection mismatch. Allocation columns come from the
/// metrics-off batched run (the production ingest path); the latency
/// quantiles, the overhead column, and metrics_allocs_per_event (the
/// zero-allocation guarantee must survive full instrumentation) come from
/// a third, fully instrumented batched run against the same stream.
bool BenchWorkload(const EventStream& stream, size_t groups,
                   Timestamp window, bool exchange, size_t reference_count,
                   const char* label_suffix, size_t cores,
                   ResultTable* table) {
  double one_shard_batched = 0.0;
  bool ok = true;
  for (size_t shards : {1u, 2u, 4u, 8u}) {
    size_t pe_waits = 0, pe_detections = 0, pe_parks = 0;
    const double per_event_eps =
        TimedIngest(stream, groups, window, shards, exchange,
                    IngestMode::kPerEvent, &pe_waits, &pe_detections,
                    nullptr, cores, &pe_parks);
    size_t b_waits = 0, b_detections = 0, b_parks = 0;
    AllocPerEvent alloc;
    const double batched_eps = TimedIngest(
        stream, groups, window, shards, exchange, IngestMode::kBatched,
        &b_waits, &b_detections, &alloc, cores, &b_parks);
    size_t m_waits = 0, m_detections = 0, m_parks = 0;
    AllocPerEvent metrics_alloc;
    LatencyQuantiles latency;
    const double metrics_eps = TimedIngest(
        stream, groups, window, shards, exchange, IngestMode::kBatched,
        &m_waits, &m_detections, &metrics_alloc, cores, &m_parks,
        /*metrics=*/true, &latency);
    if (per_event_eps < 0 || batched_eps < 0 || metrics_eps < 0) return false;
    if (shards == 1) one_shard_batched = batched_eps;

    for (size_t detections : {pe_detections, b_detections, m_detections}) {
      if (detections != reference_count) {
        std::fprintf(
            stderr,
            "DETECTION MISMATCH (%s) at %zu shards: %zu vs %zu (sequential)\n",
            exchange ? "exchange" : label_suffix[0] != '\0' ? "attributed"
                                                           : "plain",
            shards, detections, reference_count);
        ok = false;
      }
    }
    const std::string label =
        exchange ? StrFormat("%zux%zu", shards, shards)
                 : StrFormat("%zu%s", shards, label_suffix);
    const double overhead_pct = (batched_eps / metrics_eps - 1.0) * 100.0;
    (void)table->AddRow(label,
                        {per_event_eps, batched_eps,
                         batched_eps / per_event_eps,
                         batched_eps / one_shard_batched,
                         static_cast<double>(pe_waits + b_waits),
                         alloc.allocs, alloc.bytes, metrics_eps,
                         overhead_pct, metrics_alloc.allocs, latency.p50,
                         latency.p99, latency.p999,
                         static_cast<double>(cores),
                         static_cast<double>(pe_parks + b_parks + m_parks)});
  }
  return ok;
}

int Run(const bench::HarnessArgs& args) {
  const size_t num_events =
      args.effort == bench::Effort::kQuick
          ? 200000
          : (args.effort == bench::Effort::kFull ? 4000000 : 1000000);
  // Enough subjects that per-event matcher work (2 matchers per subject,
  // every event visits all of its shard's matchers) dominates the routing
  // cost — the regime sharding is for. With few queries the single router
  // thread is the bottleneck and extra shards cannot help.
  const size_t groups = 256;
  const Timestamp window = 4;

  const unsigned hw_threads = std::thread::hardware_concurrency();
  std::printf("hardware threads: %u\n", hw_threads);
  if (hw_threads < 4) {
    std::printf(
        "WARNING: fewer than 4 hardware threads — shards time-slice one "
        "core, so expect speedup ~1.0x (the run then measures runtime "
        "overhead, not scaling).\n");
  }
  // The widest configuration below runs 8 stage-1 shards (the exchange
  // rows add 8 merge workers on top); warn when the machine cannot give
  // each worker a hardware thread, because the scaling columns are then
  // measuring time-slicing, not parallelism.
  if (hw_threads < 8) {
    std::fprintf(stderr,
                 "WARNING: hardware_concurrency()=%u < %u worker threads at "
                 "the widest shard budget; throughput/speedup columns "
                 "measure oversubscription on this machine.\n",
                 hw_threads, 8u);
  }
  if (args.cores > 0) {
    std::printf("core affinity: pinning workers round-robin to %zu cores\n",
                args.cores);
    if (hw_threads != 0 && args.cores > hw_threads) {
      std::fprintf(stderr,
                   "WARNING: --cores %zu exceeds hardware_concurrency()=%u; "
                   "pinning is clamped to the cores that exist.\n",
                   args.cores, hw_threads);
    }
  }
  if (!bench::kAllocHookActive) {
    std::printf(
        "NOTE: allocation hook inactive (sanitizer build); allocs/bytes "
        "columns will read -1.\n");
  }
  std::printf("generating streams: %zu events x 3 workloads, %zu %s...\n",
              num_events, groups, "subjects/groups");
  const EventStream keyed =
      KeyedStream(groups, num_events, 42, /*attributed=*/false);
  const EventStream attributed =
      KeyedStream(groups, num_events, 44, /*attributed=*/true);
  const EventStream crossed =
      CrossKeyedStream(groups, /*subjects=*/groups, num_events, 43);

  size_t plain_reference = 0;
  const double seq_eps =
      SequentialReference(keyed, groups, window, &plain_reference);
  std::printf(
      "sequential StreamingCepEngine (subject-local): %.0f events/sec, %zu "
      "detections\n",
      seq_eps, plain_reference);
  size_t attr_reference = 0;
  const double attr_seq_eps =
      SequentialReference(attributed, groups, window, &attr_reference);
  std::printf(
      "sequential StreamingCepEngine (attributed): %.0f events/sec, %zu "
      "detections\n",
      attr_seq_eps, attr_reference);
  size_t cross_reference = 0;
  const double cross_seq_eps =
      SequentialReference(crossed, groups, window, &cross_reference);
  std::printf(
      "sequential StreamingCepEngine (cross-subject): %.0f events/sec, %zu "
      "detections\n",
      cross_seq_eps, cross_reference);
  if (seq_eps < 0 || attr_seq_eps < 0 || cross_seq_eps < 0) return 1;

  ResultTable table({"shards", "per_event_eps", "batched_eps",
                     "batched_vs_per_event", "batched_speedup_vs_1",
                     "backpressure_waits", "allocs_per_event",
                     "bytes_per_event", "metrics_batched_eps",
                     "metrics_overhead_pct", "metrics_allocs_per_event",
                     "latency_p50_ns", "latency_p99_ns", "latency_p999_ns",
                     "cores", "parks"});
  bool ok = BenchWorkload(keyed, groups, window, /*exchange=*/false,
                          plain_reference, "", args.cores, &table);
  ok = BenchWorkload(attributed, groups, window, /*exchange=*/false,
                     attr_reference, "+attrs", args.cores, &table) &&
       ok;
  ok = BenchWorkload(crossed, groups, window, /*exchange=*/true,
                     cross_reference, "", args.cores, &table) &&
       ok;

  const int rc = bench::EmitTable(
      table, args,
      "Runtime throughput + steady-state allocations + telemetry: per-event "
      "vs batched ingest; N = subject-local shards, N+attrs = attributed "
      "events, NxN = exchange pipeline (stage1 x stage2); metrics_* columns "
      "and latency quantiles from a fully instrumented batched run");
  return ok ? rc : 1;
}

}  // namespace
}  // namespace pldp

int main(int argc, char** argv) {
  return pldp::Run(pldp::bench::ParseArgs(argc, argv));
}
