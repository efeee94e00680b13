// Copyright 2026 The PLDP Authors.
//
// Umbrella header: include <core/pldp.h> to get the whole public API.
//
// Library map:
//   api/       PipelineBuilder — the declarative entry point: plans the
//              minimal topology from the declared queries, typed handles
//   common/    Status/StatusOr, deterministic Rng, logging, CSV, math
//   event/     Value, Event, EventTypeRegistry
//   stream/    EventStream, tumbling windows, merge, replay
//   cep/       Pattern, event-type set filter, matchers, queries, CepEngine
//   dp/        budgets, randomized response, Laplace, budget conversion,
//              neighbor models
//   ppm/       PrivacyMechanism: uniform/adaptive pattern-level PPMs,
//              BD/BA/landmark baselines, factory
//   quality/   precision/recall/Q/MRE metrics, report tables
//   datasets/  Algorithm-2 synthetic generator, taxi simulator
//   runtime/   internal: the sharded streaming runtime the planner
//              executes on (SPSC queues, router, shards, exchange); not
//              included here, reached only through api/
//   obs/       telemetry: metrics registry, per-stage instruments,
//              Prometheus/JSON exposition, health roll-up, TCP endpoint
//   core/      PrivateCepEngine facade, the pipeline's private lane
//              (sharded service phase), evaluation pipeline

#ifndef PLDP_CORE_PLDP_H_
#define PLDP_CORE_PLDP_H_

#include "api/pipeline_builder.h"
#include "cep/engine.h"
#include "cep/matcher.h"
#include "cep/pattern.h"
#include "cep/correlation.h"
#include "cep/predicate.h"
#include "cep/query.h"
#include "cep/streaming_engine.h"
#include "common/csv.h"
#include "common/logging.h"
#include "common/math_utils.h"
#include "common/random.h"
#include "common/status.h"
#include "common/strings.h"
#include "core/evaluation.h"
#include "core/private_lane.h"
#include "core/private_engine.h"
#include "datasets/dataset.h"
#include "datasets/synthetic.h"
#include "datasets/taxi.h"
#include "datasets/tdrive_loader.h"
#include "dp/budget.h"
#include "dp/budget_conversion.h"
#include "dp/laplace.h"
#include "dp/ledger.h"
#include "dp/neighbors.h"
#include "dp/randomized_response.h"
#include "event/event.h"
#include "event/event_type.h"
#include "event/value.h"
#include "obs/endpoint.h"
#include "obs/health.h"
#include "obs/instruments.h"
#include "obs/metrics.h"
#include "ppm/adaptive.h"
#include "ppm/factory.h"
#include "ppm/landmark.h"
#include "ppm/mechanism.h"
#include "ppm/pattern_level.h"
#include "ppm/subject_publisher.h"
#include "ppm/w_event.h"
#include "quality/metrics.h"
#include "quality/report.h"
#include "stream/event_stream.h"
#include "stream/replay.h"
#include "stream/window.h"

#endif  // PLDP_CORE_PLDP_H_
