// Copyright 2026 The PLDP Authors.
//
// Unified telemetry: a process-local metrics registry. Every count is kept
// once, by the stage that owns it, and read at scrape time.
//
//   - Counters and gauges are read functions (Prometheus's CounterFunc /
//     GaugeFunc): registered ONCE at topology build time with a lambda
//     that reads a value the stage already tracks in an atomic (events
//     processed, waits, queue depths, budgets). Nothing is incremented
//     twice and nothing is copied into a gauge before a scrape;
//     `Snapshot()` calls each lambda under the registry mutex.
//   - `Histogram`: fixed-bucket log-scale distribution — bucket i counts
//     values <= 2^i (the last bucket is +Inf), so a nanosecond latency
//     histogram spans 1ns..~4.5min in 38 buckets with one CLZ and one
//     relaxed fetch_add per Record. No floats, no dynamic buckets. A
//     distribution cannot be read back from a counter, so histograms are
//     the only instruments updated on the hot path: registration hands out
//     a stable pointer and `Record` is wait-free and allocation-free.
//
// Registration and Snapshot() take a mutex; both run on the orchestrator
// or a scrape thread, never on the data plane.
//
// `MetricsSnapshot` is the stable exposition struct: families grouped by
// name, each sample carrying its label set and (for histograms) per-bucket
// counts plus count/sum and quantile estimation. `RenderPrometheusText`
// emits Prometheus exposition format 0.0.4; `RenderJson` a stable JSON
// document. Both operate on the snapshot only — serialization never
// touches live instruments.

#ifndef PLDP_OBS_METRICS_H_
#define PLDP_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/thread_annotations.h"

namespace pldp {
namespace obs {

/// Label set of one instrument, in registration order (rendered verbatim).
using MetricLabels = std::vector<std::pair<std::string, std::string>>;

enum class MetricType { kCounter, kGauge, kHistogram };

/// Log-scale histogram with power-of-two buckets: bucket i counts values
/// <= 2^i for i in [0, kBuckets-2]; the last bucket is +Inf. Record is one
/// CLZ plus three relaxed fetch_adds — allocation-free and wait-free.
class alignas(64) Histogram {
 public:
  /// 38 finite power-of-two bounds (2^0 .. 2^37 ns ~ 2.3 min) + overflow.
  static constexpr size_t kBuckets = 39;

  // A scrape may see count/sum/bins mid-update — accepted, documented
  // in the exposition layer — so no release pairing is needed.
  // order: relaxed; the three adds are independent telemetry counters.
  PLDP_HOT void Record(uint64_t value) {
    bins_[BucketOf(value)].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(value, std::memory_order_relaxed);
  }

  // order: relaxed; scrape-time reads of the counters above.
  uint64_t TotalCount() const {
    return count_.load(std::memory_order_relaxed);
  }
  uint64_t Sum() const { return sum_.load(std::memory_order_relaxed); }
  // order: relaxed; see TotalCount().
  uint64_t BinCount(size_t i) const {
    return bins_[i].load(std::memory_order_relaxed);
  }

  /// Upper bound of finite bucket i (2^i). The last bucket has no finite
  /// bound.
  static uint64_t UpperBound(size_t i) { return uint64_t{1} << i; }

  PLDP_HOT static size_t BucketOf(uint64_t value) {
    if (value <= 1) return 0;
    const size_t bits = 64 - static_cast<size_t>(CountLeadingZeros(value - 1));
    return bits < kBuckets - 1 ? bits : kBuckets - 1;
  }

 private:
  PLDP_HOT static int CountLeadingZeros(uint64_t v) {
#if defined(__GNUC__) || defined(__clang__)
    return __builtin_clzll(v);
#else
    int n = 0;
    for (uint64_t bit = uint64_t{1} << 63; bit != 0 && !(v & bit); bit >>= 1) {
      ++n;
    }
    return n;
#endif
  }

  std::atomic<uint64_t> bins_[kBuckets] = {};
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_{0};
};

/// Monotonic wall-independent clock read, in nanoseconds — the latency
/// histograms' time base (one call per event on instrumented hot paths).
uint64_t MonotonicNowNs();

/// Frozen view of one histogram: per-bucket (non-cumulative) counts
/// aligned with `upper_bounds` plus one trailing +Inf bucket.
struct HistogramData {
  std::vector<double> upper_bounds;  ///< finite bounds; counts has one more
  std::vector<uint64_t> counts;      ///< per-bucket, counts.back() = +Inf bin
  uint64_t count = 0;
  uint64_t sum = 0;

  /// Quantile estimate (q in [0,1]) by linear interpolation within the
  /// containing bucket. 0 when the histogram is empty.
  double Quantile(double q) const;
};

/// One (label set, value) sample of a family.
struct MetricSample {
  MetricLabels labels;
  /// Counters and gauges.
  double value = 0.0;
  /// Histograms only (empty otherwise).
  HistogramData histogram;
};

/// All samples sharing one metric name.
struct MetricFamily {
  std::string name;
  std::string help;
  MetricType type = MetricType::kCounter;
  std::vector<MetricSample> samples;
};

/// The stable exposition struct Pipeline::MetricsSnapshot() returns.
struct MetricsSnapshot {
  std::vector<MetricFamily> families;

  /// Family by name; nullptr when absent.
  const MetricFamily* Find(const std::string& name) const;
};

/// Scrape-time read of a counter or gauge value the owning stage already
/// tracks. Runs on the scrape thread while the pipeline runs, under the
/// registry mutex: it must read only atomics (or constants captured at
/// registration) and never call back into the registry.
using MetricRead = std::function<double()>;

/// Registry of instruments. Same-name registrations with distinct labels
/// form one family and must agree on type; an exact duplicate or a type
/// mismatch is refused (false / nullptr) — a wiring bug surfaced loudly
/// at build time, not a silent family corruption. Histograms are stable
/// heap slots, never reallocated. Read functions borrow whatever they
/// capture: snapshot only while those stages are alive.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Monotonic count read by `read` at each Snapshot().
  bool AddCounter(const std::string& name, const std::string& help,
                  MetricLabels labels, MetricRead read) PLDP_EXCLUDES(mu_);
  /// Instantaneous value read by `read` at each Snapshot().
  bool AddGauge(const std::string& name, const std::string& help,
                MetricLabels labels, MetricRead read) PLDP_EXCLUDES(mu_);
  Histogram* AddHistogram(const std::string& name, const std::string& help,
                          MetricLabels labels = {}) PLDP_EXCLUDES(mu_);

  size_t instrument_count() const PLDP_EXCLUDES(mu_);

  /// Calls every read function and freezes every histogram into the
  /// exposition struct. Safe from any thread, concurrent with hot-path
  /// updates (relaxed reads; a snapshot is a consistent-enough
  /// point-in-time view, not a linearizable cut).
  MetricsSnapshot Snapshot() const PLDP_EXCLUDES(mu_);

 private:
  struct Entry {
    MetricType type;
    std::string name;
    std::string help;
    MetricLabels labels;
    MetricRead read;                      ///< counters and gauges
    std::unique_ptr<Histogram> histogram;  ///< histograms
  };

  Entry* AddEntry(MetricType type, const std::string& name,
                  const std::string& help, MetricLabels labels,
                  MetricRead read = nullptr) PLDP_REQUIRES(mu_);

  /// Guards registration (entries_ growth) and the read functions'
  /// invocation. Histogram updates go through the stable pointers handed
  /// out at registration and never touch the registry, so they need no
  /// lock — the wait-free half of the registration/update split.
  mutable Mutex mu_;
  std::vector<std::unique_ptr<Entry>> entries_ PLDP_GUARDED_BY(mu_);
};

/// Prometheus text exposition format 0.0.4: # HELP / # TYPE headers,
/// cumulative `_bucket{le=...}` + `_sum` + `_count` for histograms.
std::string RenderPrometheusText(const MetricsSnapshot& snapshot);

/// Stable JSON rendering: {"families":[{name,type,help,samples:[...]}]}.
/// Histogram samples carry count/sum/buckets plus p50/p99/p999 estimates.
std::string RenderJson(const MetricsSnapshot& snapshot);

/// Merges every sample of a histogram family into one distribution (e.g.
/// the per-shard latency histograms into a pipeline-wide one). Empty data
/// when `family` is null or not a histogram family.
HistogramData AggregateHistogram(const MetricFamily* family);

/// Sum of a counter/gauge family's sample values (0 when null).
double SumSamples(const MetricFamily* family);

}  // namespace obs
}  // namespace pldp

#endif  // PLDP_OBS_METRICS_H_
