// Copyright 2026 The PLDP Authors.
//
// Data-quality metrics (paper §III-B):
//
//   Rec  = TP / (TP + FN)                                  (eq. 1)
//   Prec = TP / (TP + FP)                                  (eq. 2)
//   Q    = α·Prec + (1 − α)·Rec                            (eq. 3)
//   MRE  = (Q_ord − Q_ppm) / Q_ord                         (eq. 4)
//
// The confusion matrix is accumulated over the per-window binary answers of
// a query: truth = answer on the unperturbed stream, prediction = answer
// published by the mechanism.

#ifndef PLDP_QUALITY_METRICS_H_
#define PLDP_QUALITY_METRICS_H_

#include <cstdint>
#include <string>

#include "common/status.h"

namespace pldp {

/// Binary confusion-matrix accumulator.
class ConfusionMatrix {
 public:
  ConfusionMatrix() = default;

  void Add(bool truth, bool predicted);

  uint64_t tp() const { return tp_; }
  uint64_t fp() const { return fp_; }
  uint64_t fn() const { return fn_; }
  uint64_t tn() const { return tn_; }
  uint64_t total() const { return tp_ + fp_ + fn_ + tn_; }

  /// Precision (eq. 2). Degenerate case TP+FP = 0: returns 1 when there was
  /// also nothing to find (FN = 0) — a silent mechanism on an empty ground
  /// truth is perfect — and 0 otherwise.
  double Precision() const;

  /// Recall (eq. 1). Degenerate case TP+FN = 0 (no positives in ground
  /// truth): returns 1.
  double Recall() const;

  /// Q = α·Prec + (1 − α)·Rec; α must be in [0, 1].
  StatusOr<double> Quality(double alpha) const;

  std::string ToString() const;

 private:
  uint64_t tp_ = 0;
  uint64_t fp_ = 0;
  uint64_t fn_ = 0;
  uint64_t tn_ = 0;
};

/// MRE (eq. 4): relative quality loss of a PPM. `q_ordinary` must be > 0.
/// Negative results (the PPM accidentally scored higher) are kept — the
/// averaging over repetitions needs them.
StatusOr<double> MeanRelativeError(double q_ordinary, double q_ppm);

/// Load-shedding accounting for overload runs (runtime/overload.h). Unlike
/// the confusion matrix — which needs ground truth — this is computable
/// online: shedding only ever removes input events, so it can only cause
/// false NEGATIVES, never false positives, and the admitted fraction is a
/// conservative per-event recall proxy.
struct SheddingStats {
  uint64_t admitted = 0;  ///< events that entered a shard queue
  uint64_t shed = 0;      ///< events deliberately dropped at admission

  uint64_t offered() const { return admitted + shed; }

  /// Worst-case recall floor under the (pessimistic) assumption that every
  /// shed event would have completed a distinct match: admitted / offered.
  /// 1.0 when nothing was shed — detections are then exactly the no-shed
  /// run's detections (admission never reorders).
  double RecallLowerBound() const;
};

}  // namespace pldp

#endif  // PLDP_QUALITY_METRICS_H_
