// Copyright 2026 The PLDP Authors.
//
// Fixed-seed golden hashes of every mechanism's published output.
//
// For each mechanism of AllMechanismNames() and two seeds, a
// SubjectViewPublisher runs over a 64-subject stream shaped like the
// `private` benchmark workload (8 registered types, the home_alone private
// pattern, the breakfast/evening/bedtime targets), with two extra private
// patterns: one overlapping home_alone and one repeating a type, so the
// order in which overlapping randomized-response outputs are written back
// is pinned too. The stream has window-skipping gaps (empty windows still
// publish) and a sprinkle of unregistered types (ignored by every
// mechanism). The hash covers every view the ViewCallback sees (subject,
// bounds, presence bits, in publication order) and every subject's answer
// series. A second hash covers the batch helper, PublishWindow, over
// pre-cut windows.
//
// The expected values were recorded from the implementation that buffered
// each window's events and published from them; any change to a
// mechanism's RNG draw order (one Bernoulli per private-pattern element,
// in element order; Laplace draws per type, in type order) or to what a
// window contributes changes them.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/private_engine.h"
#include "ppm/factory.h"
#include "ppm/subject_publisher.h"

namespace pldp {
namespace {

constexpr size_t kSubjects = 64;
constexpr size_t kEvents = 5120;
constexpr size_t kRegisteredTypes = 8;
constexpr Timestamp kWindowSize = 256;
constexpr double kEpsilon = 1.0;

/// FNV-1a over 64-bit words.
class Hasher {
 public:
  void Add(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xffu;
      h_ *= 0x100000001b3ULL;
    }
  }
  void AddBits(const std::vector<bool>& bits) {
    Add(bits.size());
    for (bool b : bits) Add(b ? 1 : 0);
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 0xcbf29ce484222325ULL;
};

Pattern MakePattern(const char* name, std::vector<EventTypeId> elems,
                    DetectionMode mode) {
  return Pattern::Create(name, std::move(elems), mode).value();
}

/// The `private` workload's setup plus two extra private patterns, and a
/// history that lets adaptive tune and landmark estimate its horizon.
void RegisterSetup(PrivateCepEngine* engine, uint64_t seed) {
  const char* const kTypes[kRegisteredTypes] = {
      "door", "motion", "kettle", "tv", "fridge", "shower", "light", "lock"};
  for (size_t i = 0; i < kRegisteredTypes; ++i) {
    ASSERT_EQ(engine->InternEventType(kTypes[i]), i);
  }
  const Pattern private_patterns[] = {
      MakePattern("home_alone", {0, 1}, DetectionMode::kConjunction),
      MakePattern("night", {1, 6, 7}, DetectionMode::kSequence),
      MakePattern("pacing", {5, 1, 5}, DetectionMode::kSequence)};
  for (const Pattern& p : private_patterns) {
    ASSERT_TRUE(engine->RegisterPrivatePattern(p).ok());
  }
  const Pattern targets[] = {
      MakePattern("breakfast", {0, 2}, DetectionMode::kSequence),
      MakePattern("evening", {3, 4}, DetectionMode::kConjunction),
      MakePattern("bedtime", {5, 6, 7}, DetectionMode::kSequence)};
  for (const Pattern& p : targets) {
    ASSERT_TRUE(engine->RegisterTargetQuery(p.name(), p).ok());
  }

  Rng rng(seed ^ 0x4157u);
  std::vector<Window> history(32);
  for (size_t w = 0; w < history.size(); ++w) {
    history[w].start = static_cast<Timestamp>(w) * kWindowSize;
    history[w].end = history[w].start + kWindowSize;
    const size_t n = rng.UniformUint64(6);
    for (size_t i = 0; i < n; ++i) {
      const auto type =
          static_cast<EventTypeId>(rng.UniformUint64(kRegisteredTypes));
      history[w].events.push_back(Event(type, history[w].start, 0));
    }
  }
  engine->SetHistory(std::move(history));
}

/// One event per tick, uniform subjects and registered types, about 1 in
/// 64 of an unregistered type, and an occasional gap of up to three
/// windows.
std::vector<Event> MakeStream(uint64_t seed) {
  Rng rng(seed);
  std::vector<Event> events;
  events.reserve(kEvents);
  Timestamp ts = 0;
  for (size_t i = 0; i < kEvents; ++i) {
    if (rng.UniformUint64(256) == 0) {
      ts += static_cast<Timestamp>(rng.UniformUint64(3 * kWindowSize));
    } else {
      ++ts;
    }
    const auto subject = static_cast<StreamId>(rng.UniformUint64(kSubjects));
    uint64_t type = 0;
    if (rng.UniformUint64(64) == 0) {
      type = kRegisteredTypes + rng.UniformUint64(2);
    } else {
      type = rng.UniformUint64(kRegisteredTypes);
    }
    events.push_back(Event(static_cast<EventTypeId>(type), ts, subject));
  }
  return events;
}

MechanismFactoryOptions SmallAdaptiveSearch() {
  MechanismFactoryOptions options;
  options.adaptive.trials = 8;
  options.adaptive.max_rounds = 8;
  return options;
}

uint64_t PublisherHash(const std::string& mechanism, uint64_t seed) {
  PrivateCepEngine setup;
  RegisterSetup(&setup, seed);
  SubjectPublisherOptions opts;
  opts.context = setup.BuildContext(kEpsilon);
  opts.factory = NamedMechanismFactory(mechanism, SmallAdaptiveSearch());
  opts.queries = setup.queries();
  opts.window_size = kWindowSize;
  opts.seed = seed;
  SubjectViewPublisher publisher(opts);

  Hasher hash;
  size_t views = 0;
  publisher.SetViewCallback(
      [&hash, &views](StreamId subject, const Window& window,
                      const PublishedView& view) {
        hash.Add(subject);
        hash.Add(static_cast<uint64_t>(window.start));
        hash.Add(static_cast<uint64_t>(window.end));
        hash.AddBits(view.presence);
        ++views;
      });
  for (const Event& e : MakeStream(seed)) publisher.Absorb(e);
  EXPECT_TRUE(publisher.Finalize().ok());
  EXPECT_EQ(views, publisher.total_windows());

  const std::vector<StreamId> subjects = publisher.SubjectIds();
  EXPECT_EQ(subjects.size(), kSubjects);
  for (StreamId subject : subjects) {
    const SubjectResults* results = publisher.ResultsFor(subject);
    hash.Add(subject);
    hash.Add(results->window_count);
    for (const AnswerSeries& series : results->answers) {
      hash.AddBits(series.answers());
    }
  }
  return hash.value();
}

uint64_t BatchHash(const std::string& mechanism, uint64_t seed) {
  PrivateCepEngine setup;
  RegisterSetup(&setup, seed);
  auto made = MakeMechanism(mechanism, SmallAdaptiveSearch());
  EXPECT_TRUE(made.ok());
  if (!made.ok()) return 0;
  std::unique_ptr<PrivacyMechanism> ppm = std::move(made).value();
  EXPECT_TRUE(ppm->Initialize(setup.BuildContext(kEpsilon)).ok());

  // Pre-cut windows of 4 consecutive stream events each.
  const std::vector<Event> events = MakeStream(seed);
  Rng rng(seed);
  Hasher hash;
  for (size_t i = 0; i + 4 <= events.size(); i += 4) {
    Window w;
    w.events.assign(events.begin() + static_cast<std::ptrdiff_t>(i),
                    events.begin() + static_cast<std::ptrdiff_t>(i + 4));
    StatusOr<PublishedView> view = ppm->PublishWindow(w, &rng);
    EXPECT_TRUE(view.ok());
    if (!view.ok()) return 0;
    hash.AddBits(view.value().presence);
  }
  return hash.value();
}

struct Golden {
  const char* mechanism;
  uint64_t seed;
  uint64_t publisher;
  uint64_t batch;
};

// clang-format off
const Golden kGolden[] = {
    {"uniform",  1, 0xb186d4855b056f3aULL, 0x63db6a6ecb94bde5ULL},
    {"uniform",  2, 0x9928e8e87d769cbaULL, 0xe073af68fa15c344ULL},
    {"adaptive", 1, 0xa457953e1b9a66f2ULL, 0x3fbf561fc4a58904ULL},
    {"adaptive", 2, 0x62429054e442b3ceULL, 0x597b1b75dc9ae1a4ULL},
    {"bd",       1, 0xdc753170d2a39cc3ULL, 0xe7805076b4855cc4ULL},
    {"bd",       2, 0xccf1b042cf78f222ULL, 0x92c57302a92583a5ULL},
    {"ba",       1, 0x60c54cabceac38b2ULL, 0x1673bebdd71d70c4ULL},
    {"ba",       2, 0xca20cd44782da01bULL, 0x3f8c8db9da5f0bc4ULL},
    {"landmark", 1, 0xf520f5a7c02cb94eULL, 0x11fd691df14c28c4ULL},
    {"landmark", 2, 0x08f1c6a33b8d485bULL, 0x4e02e824c287f825ULL},
};
// clang-format on

TEST(PpmPublishGoldenTest, CoversEveryMechanism) {
  std::vector<std::string> covered;
  for (const Golden& g : kGolden) {
    if (covered.empty() || covered.back() != g.mechanism) {
      covered.push_back(g.mechanism);
    }
  }
  EXPECT_EQ(covered, AllMechanismNames());
}

TEST(PpmPublishGoldenTest, PublisherViewsAndAnswersMatchGolden) {
  for (const Golden& g : kGolden) {
    SCOPED_TRACE(std::string(g.mechanism) + " seed " +
                 std::to_string(g.seed));
    EXPECT_EQ(PublisherHash(g.mechanism, g.seed), g.publisher);
  }
}

TEST(PpmPublishGoldenTest, BatchPublishWindowMatchesGolden) {
  for (const Golden& g : kGolden) {
    SCOPED_TRACE(std::string(g.mechanism) + " seed " +
                 std::to_string(g.seed));
    EXPECT_EQ(BatchHash(g.mechanism, g.seed), g.batch);
  }
}

}  // namespace
}  // namespace pldp
