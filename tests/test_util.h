// Copyright 2026 The PLDP Authors.
//
// Shared fixtures for the PPM and pipeline tests: a small world with a
// known event-type space, private/target patterns, and handcrafted windows;
// plus a watchdog for tests whose failure mode is a hang.

#ifndef PLDP_TESTS_TEST_UTIL_H_
#define PLDP_TESTS_TEST_UTIL_H_

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <initializer_list>
#include <thread>
#include <utility>
#include <vector>

#include "cep/pattern.h"
#include "event/event_type.h"
#include "ppm/mechanism.h"
#include "stream/window.h"

namespace pldp {
namespace testing_util {

/// Runs `work` on its own thread and ends the test binary with a failure
/// if it has not returned within `deadline`: a hung ingest can be neither
/// recovered nor joined, so the watchdog reports it instead of stalling
/// the suite.
template <typename Fn>
void RunWithWatchdog(Fn work, std::chrono::seconds deadline) {
  std::promise<void> done;
  std::future<void> finished = done.get_future();
  std::thread worker([&] {
    work();
    done.set_value();
  });
  if (finished.wait_for(deadline) != std::future_status::ready) {
    std::fprintf(stderr, "watchdog: still blocked after %lld s (hang)\n",
                 static_cast<long long>(deadline.count()));
    std::_Exit(EXIT_FAILURE);
  }
  worker.join();
}

/// A self-contained mechanism test world. Keeps the registries alive for
/// the duration of the test (MechanismContext holds raw pointers).
struct World {
  EventTypeRegistry types;
  PatternRegistry patterns;
  std::vector<PatternId> private_ids;
  std::vector<PatternId> target_ids;
  std::vector<Window> history;
  double epsilon = 1.0;
  double alpha = 0.5;

  MechanismContext Context() const {
    MechanismContext ctx;
    ctx.event_types = &types;
    ctx.patterns = &patterns;
    ctx.private_patterns = private_ids;
    ctx.target_patterns = target_ids;
    ctx.epsilon = epsilon;
    ctx.alpha = alpha;
    ctx.history = history.empty() ? nullptr : &history;
    return ctx;
  }
};

/// Builds a world with `num_types` event types named t0.. and no patterns.
inline World MakeWorld(size_t num_types) {
  World w;
  w.types = EventTypeRegistry::MakeDense(num_types, "t");
  return w;
}

/// Registers a pattern; returns its id.
inline PatternId AddPattern(World* w, const std::string& name,
                            std::vector<EventTypeId> elems,
                            DetectionMode mode, bool is_private,
                            bool is_target) {
  PatternId id =
      w->patterns.Register(Pattern::Create(name, std::move(elems), mode)
                               .value())
          .value();
  if (is_private) w->private_ids.push_back(id);
  if (is_target) w->target_ids.push_back(id);
  return id;
}

/// A window at [index, index+1) containing one event per listed type.
inline Window MakeWindow(size_t index,
                         std::initializer_list<EventTypeId> types) {
  Window win;
  win.start = static_cast<Timestamp>(index);
  win.end = win.start + 1;
  for (EventTypeId t : types) {
    win.events.emplace_back(t, win.start);
  }
  return win;
}

}  // namespace testing_util
}  // namespace pldp

#endif  // PLDP_TESTS_TEST_UTIL_H_
