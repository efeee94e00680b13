// Copyright 2026 The PLDP Authors.
//
// Golden exposition schema: the ordered list of metric families a mixed
// pipeline registers — name, type, HELP text and every sample's label set,
// in exposition order — compared against a literal. Values are not part of
// the schema. Any rename, relabel, reorder, added or dropped series shows
// up here as a one-line diff, so dashboards and alert rules built on the
// scrape surface cannot drift silently.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "api/pipeline_builder.h"
#include "obs/metrics.h"

namespace pldp {
namespace {

constexpr Timestamp kWindow = 8;

Pattern MakePattern(const char* name, std::vector<EventTypeId> elems,
                    DetectionMode mode) {
  return Pattern::Create(name, std::move(elems), mode).value();
}

const char* TypeName(obs::MetricType type) {
  switch (type) {
    case obs::MetricType::kCounter:
      return "counter";
    case obs::MetricType::kGauge:
      return "gauge";
    case obs::MetricType::kHistogram:
      return "histogram";
  }
  return "untyped";
}

/// One line per family: `name type | help`, then one indented line per
/// sample holding its labels as `k=v` in registration order.
std::vector<std::string> Schema(const obs::MetricsSnapshot& snapshot) {
  std::vector<std::string> lines;
  for (const obs::MetricFamily& family : snapshot.families) {
    lines.push_back(family.name + " " + TypeName(family.type) + " | " +
                    family.help);
    for (const obs::MetricSample& sample : family.samples) {
      std::string labels = "  {";
      for (size_t i = 0; i < sample.labels.size(); ++i) {
        if (i != 0) labels += ",";
        labels += sample.labels[i].first + "=" + sample.labels[i].second;
      }
      lines.push_back(labels + "}");
    }
  }
  return lines;
}

TEST(MetricsSchemaTest, MixedPipelineExpositionIsPinned) {
  PipelineBuilder builder;
  for (const char* name : {"t0", "t1", "t2"}) {
    (void)builder.InternEventType(name);
  }
  (void)builder.AddQuery(MakePattern("seq", {0, 1}, DetectionMode::kSequence),
                         kWindow);
  (void)builder.AddCrossQuery(
      MakePattern("conj", {0, 2}, DetectionMode::kConjunction), kWindow,
      CorrelationKey::Global());
  (void)builder.AddCrossQuery(
      MakePattern("zoned", {1, 2}, DetectionMode::kConjunction), kWindow,
      CorrelationKey::ByAttribute("zone"));
  builder.AddPrivatePattern(
      MakePattern("meds", {0, 1}, DetectionMode::kConjunction));
  (void)builder.AddPrivateQuery(
      "home", MakePattern("home", {0, 2}, DetectionMode::kConjunction));
  auto pipeline_or = builder.WithShards(2)
                         .WithCrossShards(1)
                         .WithOverloadPolicy(OverloadPolicy::kShedOldest)
                         .WithPrivacyWindow(4)
                         .WithMechanism("uniform")
                         .WithEpsilon(1.0)
                         .EnableMetrics()
                         .Build();
  ASSERT_TRUE(pipeline_or.ok()) << pipeline_or.status().ToString();
  Pipeline& pipeline = *pipeline_or.value();
  ASSERT_TRUE(pipeline.OnEvent(Event(0, 0, 1)).ok());
  ASSERT_TRUE(pipeline.Finish().ok());

  const std::vector<std::string> expected = {
      // clang-format off
      "pldp_shard_events_total counter | Events popped and processed by a shard",
      "  {shard=0}",
      "  {shard=1}",
      "pldp_shard_backpressure_waits_total counter | Full-queue waits a producer spent pushing to a shard",
      "  {shard=0}",
      "  {shard=1}",
      "pldp_shard_batch_size histogram | Events per worker pop burst",
      "  {shard=0}",
      "  {shard=1}",
      "pldp_shard_process_latency_ns histogram | Per-event shard processing latency (engine + sink + exchange), ns",
      "  {shard=0}",
      "  {shard=1}",
      "pldp_shard_parks_total counter | Times an idle shard worker parked on its doorbell",
      "  {shard=0}",
      "  {shard=1}",
      "pldp_shard_wakes_total counter | Slow-path doorbell notifies that woke a parked shard worker",
      "  {shard=0}",
      "  {shard=1}",
      "pldp_shard_idle_yields_total counter | Yields an idle shard worker spent between spinning and parking",
      "  {shard=0}",
      "  {shard=1}",
      "pldp_shard_queue_depth gauge | Instantaneous shard input-queue depth",
      "  {shard=0}",
      "  {shard=1}",
      "pldp_shed_events_total counter | Events deliberately dropped by the overload policy",
      "  {shard=0,policy=shed-oldest}",
      "  {shard=1,policy=shed-oldest}",
      "pldp_exchange_forwarded_total counter | Events a producer emitted into an exchange lane-group",
      "  {lane=plain,group=global,producer=0}",
      "  {lane=plain,group=global,producer=1}",
      "  {lane=plain,group=attr:zone,producer=0}",
      "  {lane=plain,group=attr:zone,producer=1}",
      "pldp_exchange_watermarks_total counter | Watermark broadcasts on a producer's exchange row",
      "  {lane=plain,group=global,producer=0}",
      "  {lane=plain,group=global,producer=1}",
      "  {lane=plain,group=attr:zone,producer=0}",
      "  {lane=plain,group=attr:zone,producer=1}",
      "pldp_exchange_backpressure_waits_total counter | Full-lane waits a producer spent emitting downstream",
      "  {lane=plain,group=global,producer=0}",
      "  {lane=plain,group=global,producer=1}",
      "  {lane=plain,group=attr:zone,producer=0}",
      "  {lane=plain,group=attr:zone,producer=1}",
      "pldp_exchange_credit_exhausted_waits_total counter | Credit-exhausted stalls a producer spent waiting on a merge shard",
      "  {lane=plain,group=global,producer=0}",
      "  {lane=plain,group=global,producer=1}",
      "  {lane=plain,group=attr:zone,producer=0}",
      "  {lane=plain,group=attr:zone,producer=1}",
      "pldp_exchange_lane_depth gauge | Instantaneous occupancy of a producer's exchange row",
      "  {lane=plain,group=global,producer=0}",
      "  {lane=plain,group=global,producer=1}",
      "  {lane=plain,group=attr:zone,producer=0}",
      "  {lane=plain,group=attr:zone,producer=1}",
      "pldp_merge_events_received_total counter | Events a merge shard popped from its exchange lanes",
      "  {lane=plain,group=global,shard=0}",
      "  {lane=plain,group=attr:zone,shard=0}",
      "pldp_merge_events_total counter | Events a merge shard released to its engine in global order",
      "  {lane=plain,group=global,shard=0}",
      "  {lane=plain,group=attr:zone,shard=0}",
      "pldp_merge_latency_ns histogram | Per-released-event merge+match latency, ns",
      "  {lane=plain,group=global,shard=0}",
      "  {lane=plain,group=attr:zone,shard=0}",
      "pldp_merge_parks_total counter | Times an idle merge-shard worker parked on its doorbell",
      "  {lane=plain,group=global,shard=0}",
      "  {lane=plain,group=attr:zone,shard=0}",
      "pldp_merge_wakes_total counter | Slow-path doorbell notifies that woke a parked merge worker",
      "  {lane=plain,group=global,shard=0}",
      "  {lane=plain,group=attr:zone,shard=0}",
      "pldp_merge_idle_yields_total counter | Yields an idle merge-shard worker spent between spinning and parking",
      "  {lane=plain,group=global,shard=0}",
      "  {lane=plain,group=attr:zone,shard=0}",
      "pldp_merge_reorder_depth gauge | Instantaneous reorder-buffer occupancy of a merge shard",
      "  {lane=plain,group=global,shard=0}",
      "  {lane=plain,group=attr:zone,shard=0}",
      "pldp_merge_watermark_lag gauge | Ingest frontier minus a merge shard's safe watermark (events)",
      "  {lane=plain,group=global,shard=0}",
      "  {lane=plain,group=attr:zone,shard=0}",
      "pldp_merge_reorder_capacity gauge | Hard reorder-buffer bound of a merge shard (sum of lane credits)",
      "  {lane=plain,group=global,shard=0}",
      "  {lane=plain,group=attr:zone,shard=0}",
      "pldp_private_windows_total counter | Protected windows published by a shard's publisher",
      "  {lane=private,shard=0}",
      "  {lane=private,shard=1}",
      "pldp_private_subjects gauge | Distinct data subjects with live state on a shard",
      "  {lane=private,shard=0}",
      "  {lane=private,shard=1}",
      "pldp_dp_budget_granted gauge | Lifetime privacy budget granted to a private pattern (epsilon)",
      "  {pattern=meds}",
      "pldp_dp_budget_spent gauge | Privacy budget charged against a private pattern (epsilon)",
      "  {pattern=meds}",
      "pldp_pipeline_events_ingested_total counter | Events accepted by Pipeline::OnEvent/OnEventBatch",
      "  {}",
      "pldp_intern_attr_entries gauge | Interned attribute names (process-wide AttrNames table)",
      "  {}",
      "pldp_intern_attr_budget gauge | Entry cap of the AttrNames intern table",
      "  {}",
      "pldp_intern_symbol_entries gauge | Interned string payloads (process-wide SymbolNames table)",
      "  {}",
      "pldp_intern_symbol_budget gauge | Entry cap of the SymbolNames intern table",
      "  {}",
      // clang-format on
  };
  EXPECT_EQ(Schema(pipeline.MetricsSnapshot()), expected);
}

}  // namespace
}  // namespace pldp
