// Copyright 2026 The PLDP Authors.
//
// Online deployment flavour: events arrive one at a time through the
// stream replayer; the incremental CEP engine fires detections the moment
// a pattern completes; and — before any data flows — the §V-C correlation
// advisor inspects historical data to warn the data subject about event
// types that correlate with their private pattern but were not declared.

#include <cstdio>

#include "core/pldp.h"
#include "example_util.h"

namespace {

pldp::Status Run() {
  // Event vocabulary of a small smart-home deployment.
  pldp::EventTypeRegistry types;
  pldp::EventTypeId door = types.Intern("front_door");
  pldp::EventTypeId motion = types.Intern("hall_motion");
  pldp::EventTypeId tv = types.Intern("tv_on");
  pldp::EventTypeId kettle = types.Intern("kettle_on");

  // The resident declares SEQ(front_door, hall_motion) private ("I came
  // home"). Historically the kettle goes on right after — a latent
  // correlate they did not think of.
  PLDP_ASSIGN_OR_RETURN(
      pldp::Pattern came_home,
      pldp::Pattern::Create("came_home", {door, motion},
                            pldp::DetectionMode::kSequence));

  // Historical windows: when the private pattern occurs, the kettle almost
  // always fires too; the TV is independent background.
  std::vector<pldp::Window> history;
  pldp::Rng gen(11);
  for (size_t i = 0; i < 300; ++i) {
    pldp::Window w;
    w.start = static_cast<pldp::Timestamp>(i * 60);
    w.end = w.start + 60;
    bool home = gen.Bernoulli(0.3);
    if (home) {
      w.events.emplace_back(door, w.start + 1);
      w.events.emplace_back(motion, w.start + 5);
      if (gen.Bernoulli(0.9)) w.events.emplace_back(kettle, w.start + 12);
    } else if (gen.Bernoulli(0.05)) {
      w.events.emplace_back(kettle, w.start + 3);
    }
    if (gen.Bernoulli(0.4)) w.events.emplace_back(tv, w.start + 20);
    history.push_back(std::move(w));
  }

  // --- Correlation advisory (paper §V-C) -------------------------------------
  PLDP_ASSIGN_OR_RETURN(
      auto suggestions,
      pldp::SuggestRelevantEvents(history, came_home, types.size()));
  std::printf("privacy advisory for pattern '%s':\n", came_home.name().c_str());
  if (suggestions.empty()) {
    std::printf("  no undeclared correlated events found\n");
  }
  for (pldp::EventTypeId t : suggestions) {
    PLDP_ASSIGN_OR_RETURN(std::string name, types.Name(t));
    std::printf("  '%s' strongly correlates with the private pattern — "
                "consider protecting it too\n",
                name.c_str());
  }

  // --- Online detection --------------------------------------------------------
  // A single-shard budget plans a one-worker runtime — the same declarative
  // API and the same engine as the sharded deployments, one worker thread.
  pldp::PipelineBuilder builder;
  pldp::QueryHandle came_home_q = builder.AddQuery(came_home, /*window=*/30);
  pldp::QueryHandle evening_q = builder.AddQuery(
      pldp::Pattern::Create("evening_routine", {tv, kettle},
                            pldp::DetectionMode::kConjunction),
      /*window=*/120);
  PLDP_ASSIGN_OR_RETURN(std::unique_ptr<pldp::Pipeline> pipeline,
                        builder.WithShards(1).Build());

  pldp::EventStream live;
  live.AppendUnchecked(pldp::Event(tv, 10));
  live.AppendUnchecked(pldp::Event(door, 95));
  live.AppendUnchecked(pldp::Event(motion, 102));   // came_home fires
  live.AppendUnchecked(pldp::Event(kettle, 110));   // evening_routine fires
  live.AppendUnchecked(pldp::Event(motion, 400));   // stale: no door nearby

  pldp::StreamReplayer replayer;
  replayer.Subscribe(pipeline.get());
  PLDP_RETURN_IF_ERROR(replayer.Run(live));

  PLDP_ASSIGN_OR_RETURN(pldp::FinishedPipeline finished, pipeline->Finish());
  PLDP_ASSIGN_OR_RETURN(auto home_hits, finished.Detections(came_home_q));
  PLDP_ASSIGN_OR_RETURN(auto evening_hits, finished.Detections(evening_q));
  std::printf("\nlive stream detections:\n");
  for (pldp::Timestamp t : home_hits) {
    std::printf("  t=%lld: came_home fired\n", static_cast<long long>(t));
  }
  for (pldp::Timestamp t : evening_hits) {
    std::printf("  t=%lld: evening_routine fired\n",
                static_cast<long long>(t));
  }
  std::printf("\nsummary: %zu events, came_home x%zu, evening_routine x%zu\n",
              finished.events_processed(), home_hits.size(),
              evening_hits.size());
  return pipeline->Stop();
}

}  // namespace

int main(int argc, char** argv) {
  if (example_util::WantsHelp(argc, argv)) {
    example_util::PrintUsage(
        argv[0],
        "Online deployment flavour: event-at-a-time replay through the\n"
        "incremental CEP engine, after the correlation advisor warns about\n"
        "event types correlated with the private pattern but undeclared.",
        nullptr, 0);
    return 0;
  }
  pldp::Status status = Run();
  if (!status.ok()) {
    std::fprintf(stderr, "streaming_monitor failed: %s\n",
                 status.ToString().c_str());
    return 1;
  }
  return 0;
}
