// Copyright 2026 The PLDP Authors.
//
// Landmark-privacy baseline, after Katsomallos, Tzompanaki, Kotzinos:
// "Landmark Privacy: Configurable Differential Privacy Protection for Time
// Series", CODASPY 2022 — the *Adaptive* allocation scheme the paper
// compares against.
//
// Landmark privacy treats some timestamps as significant ("landmarks") and
// protects them with a dedicated share of the budget. In PLDP's setup a
// window is a landmark when it contains an event type belonging to a
// private pattern. The Adaptive scheme publishes a noisy count vector when
// the (noisy) dissimilarity to the last release warrants it, and skips
// otherwise, spending landmark budget at landmark timestamps and regular
// budget elsewhere.
//
// Budget conversion: `MechanismContext.epsilon` is pattern-level ε; the
// native landmark budget is derived with LandmarkBudgetForPatternLevel so
// the budget aggregated over the private pattern's landmark timestamps
// matches. The expected landmark count over the horizon is estimated from
// the historical windows (or can be pinned via options).

#ifndef PLDP_PPM_LANDMARK_H_
#define PLDP_PPM_LANDMARK_H_

#include <string>
#include <unordered_set>
#include <vector>

#include "ppm/mechanism.h"

namespace pldp {

/// Options of the landmark baseline.
struct LandmarkOptions {
  /// Share of the budget reserved for landmark timestamps.
  double landmark_fraction = 0.5;
  /// Horizon (number of windows per stream). 0 = estimate from history.
  size_t horizon = 0;
  /// Expected landmark count within the horizon. 0 = estimate from history.
  size_t landmark_count = 0;
  /// Presence threshold applied to published noisy counts.
  double presence_threshold = 0.5;
};

/// Landmark privacy with adaptive skip-or-publish sampling.
class LandmarkPpm final : public PrivacyMechanism {
 public:
  explicit LandmarkPpm(LandmarkOptions options = {}) : options_(options) {}

  Status Initialize(const MechanismContext& context) override;
  Status Publish(const std::vector<uint32_t>& counts, Rng* rng,
                 PublishedView* view) override;
  void Reset() override;
  std::string name() const override { return "landmark"; }

  double native_epsilon() const { return native_epsilon_; }
  double landmark_epsilon_per_ts() const { return eps_landmark_ts_; }
  double regular_epsilon_per_ts() const { return eps_regular_ts_; }

  /// True when the window contains an event of a private-pattern type.
  bool IsLandmark(const Window& window) const;

 private:
  /// IsLandmark on a window's per-type counts.
  bool HasPrivateType(const std::vector<uint32_t>& counts) const;

  LandmarkOptions options_;
  MechanismContext context_;
  std::unordered_set<EventTypeId> private_types_;

  double native_epsilon_ = 0.0;
  double eps_landmark_ts_ = 0.0;
  double eps_regular_ts_ = 0.0;

  std::vector<double> last_published_;
  bool has_published_ = false;
};

}  // namespace pldp

#endif  // PLDP_PPM_LANDMARK_H_
