// Copyright 2026 The PLDP Authors.
//
// Privacy-preserving mechanism (PPM) interface.
//
// A PPM sits between pattern detection and query answering: for each
// evaluation window it publishes a *privacy-protected view* — which event
// types are (claimed to be) present. Binary target queries are then
// answered from the published view instead of the raw window.
//
// This is exactly the paper's binary-answer reduction (§V): presence of the
// pattern's element types within the window decides the answer, so the
// published view is a per-type presence vector. A mechanism's input is the
// window's per-type event counts, never the events themselves: that is all
// the pattern-level PPMs read (presence is a count above zero), and the
// w-event baselines are defined on count vectors in the first place. The
// streaming publisher keeps only those counts per open window; the batch
// path's `PublishWindow` counts a materialized window for the caller.
//
//   - Pattern-level PPMs (uniform/adaptive) perturb only the presence bits
//     of types that are elements of a private pattern; all other types pass
//     through unchanged. This is the source of their data-quality edge.
//   - Stream-level baselines (BD, BA, landmark) publish noisy counts for
//     every type; presence is thresholded from the noisy counts, so noise
//     hits the entire stream.
//
// Mechanisms may be stateful across windows (the w-event baselines are);
// `Reset` restores the initial state between experiment repetitions.

#ifndef PLDP_PPM_MECHANISM_H_
#define PLDP_PPM_MECHANISM_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "cep/engine.h"
#include "cep/pattern.h"
#include "common/random.h"
#include "common/status.h"
#include "stream/window.h"

namespace pldp {

/// Everything a mechanism needs to configure itself.
struct MechanismContext {
  /// Event-type space (presence vectors are indexed by type id).
  const EventTypeRegistry* event_types = nullptr;
  /// All registered patterns (private and target).
  const PatternRegistry* patterns = nullptr;
  /// The pattern types the data subjects declared private.
  std::vector<PatternId> private_patterns;
  /// Pattern-level privacy budget ε granted per private pattern.
  double epsilon = 1.0;
  /// Historical windows for adaptive tuning (may be empty).
  const std::vector<Window>* history = nullptr;
  /// Target patterns used by adaptive tuning to score quality.
  std::vector<PatternId> target_patterns;
  /// Quality trade-off hyper-parameter α of Q = α·Prec + (1−α)·Rec.
  double alpha = 0.5;
};

/// The privacy-protected content of one window: presence per event type.
struct PublishedView {
  /// presence[t] == true: the mechanism claims at least one event of type t
  /// occurred in the window. Indexed by EventTypeId; size = registry size.
  std::vector<bool> presence;
};

/// Evaluates a pattern on a published view.
///
/// Under the binary reduction, kConjunction and kSequence both require all
/// element types present (an injected presence bit carries no order, so
/// order degenerates to co-occurrence — the paper's queries are exactly of
/// this kind); kDisjunction requires any.
bool PatternDetectedInView(const PublishedView& view, const Pattern& pattern);

/// Builds the truthful view of a window (no privacy).
PublishedView TrueView(const Window& window, size_t type_count);

/// Abstract PPM.
class PrivacyMechanism {
 public:
  virtual ~PrivacyMechanism() = default;

  /// Validates the context and prepares internal state, including the
  /// per-window scratch, sized from the registry. Must be called before
  /// the first Publish.
  virtual Status Initialize(const MechanismContext& context) = 0;

  /// Publishes the protected view of the next window from its per-type
  /// event counts: `counts[t]` is the number of events of type t, and
  /// `counts.size()` must equal the registry size seen by Initialize
  /// (types past it are not counted). `view` is owned by the caller and
  /// may be reused across windows; it is overwritten, and publishing
  /// allocates nothing once it has its size. Windows arrive in temporal
  /// order; stateful mechanisms rely on that.
  virtual Status Publish(const std::vector<uint32_t>& counts, Rng* rng,
                         PublishedView* view) = 0;

  /// Batch helper: counts the types of a materialized window (ignoring
  /// types past the registry, as TrueView does) and publishes them through
  /// Publish, so the batch and streaming paths share one implementation.
  StatusOr<PublishedView> PublishWindow(const Window& window, Rng* rng);

  /// Clears inter-window state (start of a new repetition / stream).
  virtual void Reset() = 0;

  /// Mechanism name for reports ("uniform", "bd", ...).
  virtual std::string name() const = 0;

  /// Registry size captured by Initialize (0 before it): the length of
  /// the counts Publish takes.
  size_t type_count() const { return type_count_; }

 protected:
  /// Called by a subclass's Initialize once it has succeeded.
  void set_type_count(size_t type_count) { type_count_ = type_count; }

  /// The checks every Publish starts with: Initialize succeeded, the
  /// counts cover exactly the registry, and `view` is set.
  Status CheckPublishArgs(const std::vector<uint32_t>& counts,
                          const PublishedView* view) const;

 private:
  size_t type_count_ = 0;
};

/// Creates fresh, un-Initialized mechanism instances. The sharded service
/// path (ppm/subject_publisher.h) instantiates one mechanism per data
/// subject from a factory, so stateful mechanisms never share inter-window
/// state across subjects.
using MechanismFactory =
    std::function<StatusOr<std::unique_ptr<PrivacyMechanism>>()>;

/// No-op mechanism: publishes the truthful view. Gives Q_ord in MRE
/// computations and doubles as the "no privacy" control in benches.
class PassthroughMechanism final : public PrivacyMechanism {
 public:
  Status Initialize(const MechanismContext& context) override;
  Status Publish(const std::vector<uint32_t>& counts, Rng* rng,
                 PublishedView* view) override;
  void Reset() override {}
  std::string name() const override { return "passthrough"; }
};

}  // namespace pldp

#endif  // PLDP_PPM_MECHANISM_H_
