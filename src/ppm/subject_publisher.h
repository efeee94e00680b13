// Copyright 2026 The PLDP Authors.
//
// Streaming per-subject protected-view publication (the paper's service
// phase, Fig. 2: one protected view series per data subject's stream).
//
// `SubjectViewPublisher` consumes a temporally ordered event sequence that
// may interleave many data subjects, maintains one tumbling-window state
// machine per subject, and — every time a subject's window closes — lets a
// per-subject `PrivacyMechanism` instance publish the protected view and
// answers every registered binary query from that view. It is the
// incremental equivalent of `PrivateCepEngine::ProcessStream` run on each
// subject's substream with `TumblingWindower`, and a fixed-seed test pins
// that equivalence exactly.
//
// Determinism is shard-topology-independent: each subject's Rng derives
// from (base seed, subject id) via `SubjectSeed`, and each subject gets a
// fresh mechanism instance from the factory, so the published answers do
// not depend on which worker absorbed the subject or on how subjects
// interleave. This is what lets the private lane produce identical
// results at any shard count.

#ifndef PLDP_PPM_SUBJECT_PUBLISHER_H_
#define PLDP_PPM_SUBJECT_PUBLISHER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "cep/query.h"
#include "common/random.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "event/event.h"
#include "ppm/mechanism.h"
#include "stream/window.h"

namespace pldp {

/// Deterministic per-subject seed derivation: a pure function of the base
/// seed and the subject id, independent of shard placement and arrival
/// interleaving. Exposed so sequential reference runs can reproduce the
/// sharded results bit-for-bit.
inline uint64_t SubjectSeed(uint64_t base_seed, StreamId subject) {
  return SplitMix64(base_seed ^ (0xa11ce500ULL + subject)).Next();
}

/// Protected answers for one data subject (mirrors PrivateQueryResults,
/// which lives in core/ and cannot be named from ppm/).
struct SubjectResults {
  /// answers[q] aligns with the registered query ids.
  std::vector<AnswerSeries> answers;
  /// Windows published for this subject.
  size_t window_count = 0;
};

/// Configuration of a SubjectViewPublisher.
struct SubjectPublisherOptions {
  /// The setup-phase context handed to every per-subject mechanism (as
  /// built by PrivateCepEngine::BuildContext). Borrowed registries must
  /// outlive the publisher.
  MechanismContext context;
  /// Creates one fresh mechanism per subject.
  MechanismFactory factory;
  /// Queries answered per window, indexed by BinaryQuery::id.
  std::vector<BinaryQuery> queries;
  /// Tumbling window size (> 0) and alignment origin — must match the
  /// TumblingWindower of the sequential path being reproduced.
  Timestamp window_size = 0;
  Timestamp window_origin = 0;
  /// Base seed; per-subject Rngs derive via SubjectSeed.
  uint64_t seed = 0;
};

/// Observes every protected view the moment it is published: the subject,
/// the window it covers, and the view itself. The window carries its
/// bounds only (`events` is empty: the publisher keeps no raw events), and
/// both references are valid only during the call. Runs synchronously on
/// the publishing thread, in publication order — deterministic given the
/// input stream, because windows close on subject-local triggers and
/// Finalize publishes in ascending subject order. This is how the exchange
/// pipeline taps protected output for cross-subject correlation without
/// raw events ever leaving the shard.
using ViewCallback = std::function<void(
    StreamId subject, const Window& window, const PublishedView& view)>;

/// Per-subject windowing + protected-view publication state machine.
/// Single-threaded: one publisher is owned by one shard worker (or used
/// directly for sequential runs).
class SubjectViewPublisher {
 public:
  explicit SubjectViewPublisher(SubjectPublisherOptions options);

  /// Registers the protected-view observer (see ViewCallback). Call before
  /// the first Absorb.
  void SetViewCallback(ViewCallback callback) {
    view_callback_ = std::move(callback);
  }

  /// Absorbs one event. Events of one subject must arrive in non-decreasing
  /// timestamp order (the stream contract). Errors (mechanism creation or
  /// publication failures) latch: the first one is kept and returned by
  /// Finalize, and further events are ignored.
  void Absorb(const Event& event);

  /// Publishes every subject's open window (the window containing its last
  /// event) and seals the publisher. Idempotent. Returns the first error
  /// encountered by Absorb/Finalize, if any.
  Status Finalize();

  bool finalized() const {
    owner_role_.Assert();
    return finalized_;
  }

  /// Subjects seen so far, ascending.
  std::vector<StreamId> SubjectIds() const;

  /// Results of one subject; nullptr when the subject was never seen.
  /// Stable only after Finalize().
  const SubjectResults* ResultsFor(StreamId subject) const;

  /// Subjects with live state. Safe from any thread (the metrics registry
  /// reads it at scrape time while the owner runs).
  size_t subject_count() const {
    // order: relaxed; a standalone count, no subject state is read with it.
    return static_cast<size_t>(subject_count_.load(std::memory_order_relaxed));
  }

  /// Windows published across all subjects. Safe from any thread, like
  /// subject_count().
  size_t total_windows() const {
    // order: relaxed; see subject_count().
    return static_cast<size_t>(total_windows_.load(std::memory_order_relaxed));
  }

 private:
  struct SubjectState {
    SubjectState(StreamId s, Rng r) : subject(s), rng(r) {}
    StreamId subject = kDefaultStream;
    std::unique_ptr<PrivacyMechanism> mechanism;
    Rng rng;
    /// The open window [start, end) as the mechanism reads it: per-type
    /// event counts, sized to the registry its mechanism was initialized
    /// with (later types are not counted, as TrueView ignores them).
    Timestamp start = 0;
    Timestamp end = 0;
    std::vector<uint32_t> counts;
    SubjectResults results;
  };

  StatusOr<SubjectState*> GetOrCreate(const Event& event)
      PLDP_REQUIRES(owner_role_);

  /// Publishes the open window, clears its counts and advances to the
  /// next one.
  Status PublishCurrent(SubjectState* state) PLDP_REQUIRES(owner_role_);

  /// Single-owner contract (see class comment): one shard worker drives
  /// Absorb/Finalize; result reads happen on the orchestrator only after
  /// the drain/stop barrier transferred ownership. Asserted, not acquired —
  /// the barrier itself (worker join) is the synchronization.
  mutable ThreadRole owner_role_;

  SubjectPublisherOptions options_;
  ViewCallback view_callback_;
  /// targets_[i] is queries[i]'s target pattern, resolved once (the query
  /// set is frozen at construction; this runs on the worker's hot path).
  std::vector<const Pattern*> targets_;
  std::unordered_map<StreamId, SubjectState> subjects_
      PLDP_GUARDED_BY(owner_role_);
  /// The view every publication writes into, reused across windows.
  PublishedView view_ PLDP_GUARDED_BY(owner_role_);
  /// Written by the owner only (a relaxed load and store, no locked
  /// read-modify-write); atomic so scrapes may read them mid-run.
  std::atomic<uint64_t> subject_count_{0};
  std::atomic<uint64_t> total_windows_{0};
  Status error_ PLDP_GUARDED_BY(owner_role_) = Status::OK();
  bool finalized_ PLDP_GUARDED_BY(owner_role_) = false;
};

}  // namespace pldp

#endif  // PLDP_PPM_SUBJECT_PUBLISHER_H_
