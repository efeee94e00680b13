// Copyright 2026 The PLDP Authors.
//
// Production-flavour deployment of the sharded runtime via the declarative
// pipeline API: a fleet of smart homes (data subjects) streams events into
// the trusted CEP middleware. The builder plans the topology — here a
// subject-sharded runtime with one shard per hardware thread (one worker
// on a 1-core machine) — and the typed query handle is the only way to read the detections, which
// are only reachable after Finish()'s drain barrier.
//
// This is the concurrency substrate for the paper's system model (Fig. 2):
// private patterns live inside one subject's stream, so subject-key
// sharding preserves detection semantics exactly while scaling ingest
// across cores.

// `--metrics-port=P` builds the pipeline with telemetry and serves
// GET /metrics, /metrics.json, /healthz on port P until SIGINT or SIGTERM,
// then stops the endpoint and the pipeline and exits 0; without the flag
// the example runs to completion and exits.
// `--overload-policy=block|shed-oldest|shed-by-subject` selects the
// full-queue ingest behavior (docs/OPERATIONS.md, "Overload policy
// tuning").

#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstdlib>

#include "core/pldp.h"
#include "example_util.h"

namespace {

constexpr example_util::OptionDoc kOptions[] = {
    {"--metrics-port=PORT",
     "enable telemetry and serve /metrics, /metrics.json, /healthz "
     "(0 = ephemeral port)"},
    {"--overload-policy=NAME",
     "full-queue ingest policy: block (default, lossless), shed-oldest, "
     "shed-by-subject"},
};

pldp::Status Run(int metrics_port, pldp::OverloadPolicy overload_policy) {
  // Event vocabulary shared by every home: each subject emits the same
  // logical types; the subject id on the event keeps streams apart.
  pldp::EventTypeRegistry types;
  pldp::EventTypeId door = types.Intern("front_door");
  pldp::EventTypeId motion = types.Intern("hall_motion");
  pldp::EventTypeId kettle = types.Intern("kettle_on");

  constexpr size_t kHomes = 1000;
  constexpr size_t kTicks = 200;

  // Synthesize the merged arrival stream: at every tick a random subset of
  // homes emits one event.
  pldp::Rng gen(2026);
  pldp::EventStream arrivals;
  for (pldp::Timestamp t = 0; t < static_cast<pldp::Timestamp>(kTicks); ++t) {
    for (pldp::StreamId home = 0; home < kHomes; ++home) {
      if (!gen.Bernoulli(0.2)) continue;
      const pldp::EventTypeId which =
          static_cast<pldp::EventTypeId>(gen.UniformUint64(3));
      arrivals.AppendUnchecked(pldp::Event(which, t, home));
    }
  }

  // One continuous query, evaluated per subject by construction:
  // SEQ(front_door, hall_motion, kettle_on) within 10 time units
  // ("resident came home and settled in"). The builder plans one shard per
  // hardware thread (WithShards(0)) with bounded queues and subject-key
  // routing; registration returns the typed handle.
  pldp::PipelineBuilder builder;
  pldp::QueryHandle came_home = builder.AddQuery(
      pldp::Pattern::Create("came_home", {door, motion, kettle},
                            pldp::DetectionMode::kSequence),
      /*window=*/10);
  // Streaming observer: fires the moment a match completes, on the owning
  // shard's worker thread — hence the atomic.
  std::atomic<size_t> live_detections{0};
  came_home.OnDetection([&live_detections](pldp::Timestamp) {
    live_detections.fetch_add(1, std::memory_order_relaxed);
  });
  // A serving run ends on SIGINT/SIGTERM (see the end of Run); the mask
  // must be in place before Build() starts the workers.
  sigset_t shutdown_signals;
  sigemptyset(&shutdown_signals);
  if (metrics_port >= 0) {
    shutdown_signals = example_util::BlockShutdownSignals();
  }

  PLDP_ASSIGN_OR_RETURN(std::unique_ptr<pldp::Pipeline> pipeline,
                        builder.WithShards(0)
                            .WithQueueCapacity(1024)
                            .WithOverloadPolicy(overload_policy)
                            .EnableMetrics(metrics_port >= 0)
                            .Build());
  std::printf("planned topology:\n%s\n", pipeline->plan().Describe().c_str());

  std::unique_ptr<pldp::obs::TextEndpoint> endpoint;
  if (metrics_port >= 0) {
    pldp::obs::TextEndpoint::Routes routes;
    pldp::Pipeline* p = pipeline.get();
    routes.metrics_text = [p] {
      return pldp::obs::RenderPrometheusText(p->MetricsSnapshot());
    };
    routes.metrics_json = [p] {
      return pldp::obs::RenderJson(p->MetricsSnapshot());
    };
    routes.health_json = [p] {
      return pldp::obs::RenderHealthJson(p->Health());
    };
    endpoint = std::make_unique<pldp::obs::TextEndpoint>(std::move(routes));
    PLDP_RETURN_IF_ERROR(
        endpoint->Start(static_cast<uint16_t>(metrics_port)));
    std::printf("metrics endpoint: http://localhost:%u/metrics\n",
                endpoint->port());
  }

  // Per-tick batch delivery: the replayer hands the pipeline one span per
  // tick and OnEventBatch bulk-pushes per shard — the cheap ingest path.
  pldp::StreamReplayer replayer;
  replayer.Subscribe(pipeline.get());
  PLDP_RETURN_IF_ERROR(
      replayer.Run(arrivals, pldp::ReplayMode::kBatchPerTick));

  // Results only exist behind the Finish() barrier — the typed handle plus
  // FinishedPipeline replace the old "remember to Drain() first" contract.
  PLDP_ASSIGN_OR_RETURN(pldp::FinishedPipeline finished, pipeline->Finish());
  PLDP_ASSIGN_OR_RETURN(std::vector<pldp::Timestamp> detections,
                        finished.Detections(came_home));
  std::printf("ingested %zu events from %zu homes across %zu shards\n",
              finished.events_processed(), kHomes,
              pipeline->plan().shard_count);
  std::printf("'came_home' detections: %zu (%zu seen live via OnDetection)",
              detections.size(), live_detections.load());
  if (!detections.empty()) {
    std::printf(" (first at t=%lld, last at t=%lld)",
                static_cast<long long>(detections.front()),
                static_cast<long long>(detections.back()));
  }
  std::printf("\n\nper-shard load:\n");
  for (const pldp::ShardStats& s : pipeline->ShardStatsSnapshot()) {
    std::printf(
        "  shard %zu: %zu events, %zu detections, %zu backpressure waits\n",
        s.shard_index, s.events_processed, s.detections,
        s.backpressure_waits);
  }
  if (overload_policy != pldp::OverloadPolicy::kBlock) {
    std::printf("events shed (%s policy): %llu\n",
                pldp::OverloadPolicyName(overload_policy),
                static_cast<unsigned long long>(pipeline->events_shed()));
  }

  if (endpoint != nullptr) {
    std::printf("serving metrics until SIGINT or SIGTERM (Ctrl-C to exit)\n");
    std::fflush(stdout);
    const int sig = example_util::WaitForShutdownSignal(shutdown_signals);
    std::printf("%s: stopping the endpoint and the pipeline\n",
                sig == SIGINT ? "SIGINT" : "SIGTERM");
    endpoint->Stop();
  }
  return pipeline->Stop();
}

}  // namespace

int main(int argc, char** argv) {
  if (example_util::WantsHelp(argc, argv)) {
    example_util::PrintUsage(
        argv[0],
        "Sharded-runtime deployment demo: 1000 smart homes stream into\n"
        "a subject-sharded pipeline answering one sequence query, with\n"
        "live detection callbacks and per-shard load stats.",
        kOptions, sizeof(kOptions) / sizeof(kOptions[0]));
    return 0;
  }
  const char* port_arg =
      example_util::FlagValue(argc, argv, "--metrics-port");
  const int metrics_port = port_arg != nullptr ? std::atoi(port_arg) : -1;
  pldp::OverloadPolicy policy = pldp::OverloadPolicy::kBlock;
  if (const char* name =
          example_util::FlagValue(argc, argv, "--overload-policy")) {
    pldp::StatusOr<pldp::OverloadPolicy> parsed =
        pldp::ParseOverloadPolicy(name);
    if (!parsed.ok()) {
      std::fprintf(stderr, "error: %s\n",
                   parsed.status().ToString().c_str());
      return 2;
    }
    policy = parsed.value();
  }
  pldp::Status status = Run(metrics_port, policy);
  if (!status.ok()) {
    std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
    return 1;
  }
  return 0;
}
