// Copyright 2026 The PLDP Authors.
//
// The north-star scenario the declarative API exists for: ONE pipeline
// serving a mixed workload that previously took three hand-wired engines —
//
//   * a plain per-subject query   ("vehicle refuelled then resumed"),
//   * two cross-subject queries, EACH WITH ITS OWN CORRELATION KEY
//     (a zone-keyed incident conjunction and a globally-keyed city-wide
//     sequence — two independent exchange lane-groups in one topology),
//   * a private query answered from PLDP-protected views only
//     ("vehicle visited a clinic stop", protected per subject by a
//     uniform pattern-level mechanism with budget ε).
//
// The builder plans the topology from the declarations — one runtime whose
// stage-1 shards every lane shares, so each event is routed and queued
// once; the typed handles are the only way to read each lane's results,
// and only after Finish().
//
// With `--metrics-port=P` the pipeline is built with telemetry enabled and
// a scrape endpoint serves GET /metrics (Prometheus text), /metrics.json,
// and /healthz on port P until SIGINT or SIGTERM, which stops the endpoint
// and the pipeline and exits 0:
//
//   ./example_unified_pipeline --metrics-port=9464 &
//   curl http://localhost:9464/metrics
//   kill -TERM %1
//
// `--overload-policy=block|shed-oldest|shed-by-subject` selects what
// ingestion does when a shard queue stays full (docs/OPERATIONS.md,
// "Overload policy tuning"); any shed events are reported at the end.

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
  using pldp::DetectionMode;
  using pldp::Event;
  using pldp::EventTypeId;
  using pldp::Pattern;
  using pldp::Timestamp;

  constexpr size_t kVehicles = 64;
  constexpr size_t kZones = 6;
  constexpr size_t kEvents = 40000;
  constexpr double kEpsilon = 1.5;

  // Shared vocabulary. The private lane needs names (the paper's setup
  // phase); plain/cross queries reuse the ids.
  pldp::PipelineBuilder builder;
  const EventTypeId refuel = builder.InternEventType("refuel");
  const EventTypeId resume = builder.InternEventType("resume");
  const EventTypeId entry = builder.InternEventType("zone_entry");
  const EventTypeId congestion = builder.InternEventType("congestion");
  const EventTypeId incident = builder.InternEventType("incident");
  const EventTypeId clinic = builder.InternEventType("clinic_stop");
  const EventTypeId alarm = builder.InternEventType("city_alarm");

  // Lane 1 — plain, subject-local.
  pldp::QueryHandle refuelled = builder.AddQuery(
      Pattern::Create("refuelled", {refuel, resume}, DetectionMode::kSequence),
      /*window=*/12);

  // Lane 2 — cross-subject, zone-keyed: all three reports in one zone,
  // from any mix of vehicles.
  pldp::CrossQueryHandle zone_alert = builder.AddCrossQuery(
      Pattern::Create("zone_alert", {entry, congestion, incident},
                      DetectionMode::kConjunction),
      /*window=*/10, pldp::CorrelationKey::ByAttribute("zone"));

  // Lane 2b — cross-subject under a DIFFERENT key (global): two city-wide
  // alarms in short succession, regardless of zone.
  pldp::CrossQueryHandle double_alarm = builder.AddCrossQuery(
      Pattern::Create("double_alarm", {alarm, alarm}, DetectionMode::kSequence),
      /*window=*/6, pldp::CorrelationKey::Global());

  // Lane 3 — private: clinic visits are sensitive; the consumer only ever
  // sees per-window answers derived from protected views.
  builder.AddPrivatePattern(Pattern::Create("clinic_visit", {entry, clinic},
                                            DetectionMode::kConjunction));
  pldp::PrivateQueryHandle clinic_q = builder.AddPrivateQuery(
      "clinic_visit", Pattern::Create("clinic_visit_q", {entry, clinic},
                                      DetectionMode::kConjunction));

  // A serving run ends on SIGINT/SIGTERM (see the end of Run); the mask
  // must be in place before Build() starts the workers.
  sigset_t shutdown_signals;
  sigemptyset(&shutdown_signals);
  if (metrics_port >= 0) {
    shutdown_signals = example_util::BlockShutdownSignals();
  }

  PLDP_ASSIGN_OR_RETURN(std::unique_ptr<pldp::Pipeline> pipeline,
                        builder.WithShards(4)
                            .WithCrossShards(2)
                            .WithSeed(2026)
                            .WithPrivacyWindow(20)
                            .WithMechanism("uniform")
                            .WithEpsilon(kEpsilon)
                            .WithOverloadPolicy(overload_policy)
                            .EnableMetrics(metrics_port >= 0)
                            .Build());
  std::printf("planned topology:\n%s\n", pipeline->plan().Describe().c_str());

  // Scrape endpoint (only with --metrics-port): every route reads the live
  // pipeline — MetricsSnapshot/Health are safe concurrent with ingestion.
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

  // Synthetic city traffic.
  const pldp::AttrId zone_attr = pldp::AttrNames().Intern("zone");
  std::vector<pldp::Value> zone_names;
  for (size_t z = 0; z < kZones; ++z) {
    zone_names.push_back(pldp::Value::Sym("zone-" + std::to_string(z)));
  }
  pldp::Rng rng(99);
  pldp::EventStream stream;
  for (size_t i = 0; i < kEvents; ++i) {
    const auto vehicle =
        static_cast<pldp::StreamId>(rng.UniformUint64(kVehicles));
    const auto t = static_cast<Timestamp>(i / 16);
    const uint64_t dice = rng.UniformUint64(16);
    EventTypeId type;
    if (dice < 3) {
      type = refuel;
    } else if (dice < 6) {
      type = resume;
    } else if (dice < 9) {
      type = entry;
    } else if (dice < 11) {
      type = congestion;
    } else if (dice < 13) {
      type = incident;
    } else if (dice < 15) {
      type = clinic;
    } else {
      type = alarm;
    }
    Event e(type, t, vehicle);
    e.SetAttribute(zone_attr, zone_names[rng.UniformUint64(kZones)]);
    stream.AppendUnchecked(std::move(e));
  }

  pldp::StreamReplayer replayer;
  replayer.Subscribe(pipeline.get());
  PLDP_RETURN_IF_ERROR(replayer.Run(stream, pldp::ReplayMode::kBatchPerTick));

  PLDP_ASSIGN_OR_RETURN(pldp::FinishedPipeline finished, pipeline->Finish());
  PLDP_ASSIGN_OR_RETURN(auto refuel_hits, finished.Detections(refuelled));
  PLDP_ASSIGN_OR_RETURN(auto zone_hits, finished.Detections(zone_alert));
  PLDP_ASSIGN_OR_RETURN(auto alarm_hits, finished.Detections(double_alarm));
  size_t clinic_positives = 0;
  for (pldp::StreamId subject : finished.Subjects()) {
    PLDP_ASSIGN_OR_RETURN(pldp::AnswerSeries answers,
                          finished.AnswersOf(clinic_q, subject));
    clinic_positives += answers.PositiveCount();
  }

  std::printf("events ingested:                  %zu\n",
              finished.events_processed());
  std::printf("plain 'refuelled' detections:     %zu\n", refuel_hits.size());
  std::printf("zone-keyed 'zone_alert' hits:     %zu\n", zone_hits.size());
  std::printf("global 'double_alarm' hits:       %zu\n", alarm_hits.size());
  std::printf("protected 'clinic_visit' windows: %zu positive of %zu "
              "(ε=%.1f)\n",
              clinic_positives, finished.total_windows(), kEpsilon);
  if (overload_policy != pldp::OverloadPolicy::kBlock) {
    std::printf("events shed (%s policy):          %llu\n",
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
        "One declarative pipeline serving three lanes at once: a plain\n"
        "per-subject query, two cross-subject queries under different\n"
        "correlation keys, and a PLDP-protected private query.",
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
