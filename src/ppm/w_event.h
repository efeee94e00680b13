// Copyright 2026 The PLDP Authors.
//
// w-event DP baselines: Budget Division (BD) and Budget Absorption (BA),
// after Kellaris et al., "Differentially private event sequences over
// infinite streams", VLDB 2014.
//
// Both publish a noisy per-type count vector at every evaluation window
// (timestamp), guaranteeing ε_w-DP for any event within any sliding window
// of w timestamps. Half the budget pays for a noisy dissimilarity test
// against the last release (skip-or-publish), half for the publications:
//
//   BD: each timestamp may spend ε_w / (2w) on publication.
//   BA: a publication absorbs the budgets of the timestamps skipped since
//       the last release (less noise), and nullifies as many following
//       timestamps as it absorbed.
//
// Presence per type is thresholded from the published counts at 0.5; the
// binary queries are then answered from presence (mechanism.h reduction).
//
// Budget conversion (paper §VI-A2): `MechanismContext.epsilon` is the
// *pattern-level* ε; the constructor converts it to the native w-event
// budget via WEventBudgetForPatternLevel with span = the longest private
// pattern, so the budget aggregated over the pattern's timestamps equals
// the pattern-level ε the pattern-level PPMs get.

#ifndef PLDP_PPM_W_EVENT_H_
#define PLDP_PPM_W_EVENT_H_

#include <string>
#include <vector>

#include "dp/laplace.h"
#include "ppm/mechanism.h"

namespace pldp {

/// Options shared by BD and BA.
struct WEventOptions {
  /// The w of w-event privacy, in evaluation windows (timestamps).
  size_t w = 10;
  /// Presence threshold applied to published noisy counts.
  double presence_threshold = 0.5;
};

/// Common machinery of the two schemes.
class WEventPpm : public PrivacyMechanism {
 public:
  explicit WEventPpm(WEventOptions options) : options_(options) {}

  Status Initialize(const MechanismContext& context) override;
  Status Publish(const std::vector<uint32_t>& counts, Rng* rng,
                 PublishedView* view) override;
  void Reset() override;

  /// Native w-event budget after conversion from pattern-level ε.
  double native_epsilon() const { return native_epsilon_; }
  /// Number of actual (non-approximated) publications so far.
  size_t publication_count() const { return publication_count_; }

 protected:
  /// Scheme hook: the publication budget available at this timestamp
  /// (0 = forced skip / nullified). Called once per window, in order.
  virtual double PublicationBudget() = 0;
  /// Scheme hook: notification that the timestamp published (spending
  /// `spent`) or skipped.
  virtual void OnDecision(bool published, double spent) = 0;

  const WEventOptions& options() const { return options_; }
  /// Per-timestamp budget unit ε_w / (2w).
  double budget_unit() const { return budget_unit_; }

 private:
  WEventOptions options_;
  MechanismContext context_;
  double native_epsilon_ = 0.0;
  double budget_unit_ = 0.0;
  double dissim_epsilon_per_ts_ = 0.0;

  std::vector<double> last_published_;
  bool has_published_ = false;
  size_t timestamp_ = 0;
  size_t publication_count_ = 0;
};

/// Budget Division: fixed ε_w/(2w) per publication.
class BudgetDivisionPpm final : public WEventPpm {
 public:
  explicit BudgetDivisionPpm(WEventOptions options = {})
      : WEventPpm(options) {}
  std::string name() const override { return "bd"; }

 protected:
  double PublicationBudget() override { return budget_unit(); }
  void OnDecision(bool, double) override {}
};

/// Budget Absorption: skipped budgets accumulate; publications that spend
/// k units nullify the next k−1 timestamps.
class BudgetAbsorptionPpm final : public WEventPpm {
 public:
  explicit BudgetAbsorptionPpm(WEventOptions options = {})
      : WEventPpm(options) {}
  std::string name() const override { return "ba"; }
  void Reset() override;

 protected:
  double PublicationBudget() override;
  void OnDecision(bool published, double spent) override;

 private:
  double banked_ = 0.0;
  size_t nullified_remaining_ = 0;
};

}  // namespace pldp

#endif  // PLDP_PPM_W_EVENT_H_
