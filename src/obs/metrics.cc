// Copyright 2026 The PLDP Authors.

#include "obs/metrics.h"

#include <chrono>
#include <cmath>
#include <cstdio>
#include <map>
#include <sstream>

namespace pldp {
namespace obs {
namespace {

/// Prometheus label values escape backslash, double-quote, and newline.
std::string EscapeLabelValue(const std::string& v) {
  std::string out;
  out.reserve(v.size());
  for (char c : v) {
    switch (c) {
      case '\\':
        out += "\\\\";
        break;
      case '"':
        out += "\\\"";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out += c;
    }
  }
  return out;
}

/// JSON string escaping (control chars, quote, backslash).
std::string EscapeJson(const std::string& v) {
  std::string out;
  out.reserve(v.size());
  for (char c : v) {
    switch (c) {
      case '\\':
        out += "\\\\";
        break;
      case '"':
        out += "\\\"";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

/// Shortest round-trip-ish double rendering: integers without the trailing
/// `.0` Prometheus tolerates either way; %g otherwise.
std::string FormatNumber(double v) {
  if (std::isfinite(v) && v == std::floor(v) && std::fabs(v) < 1e15) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.0f", v);
    return buf;
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string RenderLabels(const MetricLabels& labels) {
  if (labels.empty()) return "";
  std::string out = "{";
  bool first = true;
  for (const auto& kv : labels) {
    if (!first) out += ",";
    first = false;
    out += kv.first;
    out += "=\"";
    out += EscapeLabelValue(kv.second);
    out += "\"";
  }
  out += "}";
  return out;
}

/// Like RenderLabels but with one extra label appended (`le` for buckets).
std::string RenderLabelsWith(const MetricLabels& labels,
                             const std::string& key,
                             const std::string& value) {
  MetricLabels extended = labels;
  extended.emplace_back(key, value);
  return RenderLabels(extended);
}

const char* TypeName(MetricType type) {
  switch (type) {
    case MetricType::kCounter:
      return "counter";
    case MetricType::kGauge:
      return "gauge";
    case MetricType::kHistogram:
      return "histogram";
  }
  return "untyped";
}

}  // namespace

uint64_t MonotonicNowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double HistogramData::Quantile(double q) const {
  if (count == 0 || counts.empty()) return 0.0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  const double rank = q * static_cast<double>(count);
  uint64_t cumulative = 0;
  for (size_t i = 0; i < counts.size(); ++i) {
    cumulative += counts[i];
    if (static_cast<double>(cumulative) >= rank && counts[i] > 0) {
      const double hi = i < upper_bounds.size()
                            ? upper_bounds[i]
                            : upper_bounds.empty()
                                  ? 0.0
                                  : upper_bounds.back() * 2.0;
      const double lo = i == 0 ? 0.0 : upper_bounds[i - 1];
      const uint64_t below = cumulative - counts[i];
      const double within =
          (rank - static_cast<double>(below)) / static_cast<double>(counts[i]);
      return lo + (hi - lo) * (within < 0.0 ? 0.0 : within);
    }
  }
  return upper_bounds.empty() ? 0.0 : upper_bounds.back();
}

const MetricFamily* MetricsSnapshot::Find(const std::string& name) const {
  for (const MetricFamily& family : families) {
    if (family.name == name) return &family;
  }
  return nullptr;
}

MetricsRegistry::Entry* MetricsRegistry::AddEntry(MetricType type,
                                                  const std::string& name,
                                                  const std::string& help,
                                                  MetricLabels labels,
                                                  MetricRead read) {
  for (const auto& entry : entries_) {
    if (entry->name == name && entry->type != type) return nullptr;
    if (entry->name == name && entry->labels == labels) return nullptr;
  }
  entries_.push_back(std::unique_ptr<Entry>(
      new Entry{type, name, help, std::move(labels), std::move(read),
                nullptr}));
  return entries_.back().get();
}

// Each entry is completed (read function or histogram) before the
// registration lock is released: a Snapshot racing the registration (scrape
// endpoint up before Build() finishes) must never observe an Entry without
// its value source — PLDP_REQUIRES(mu_) on AddEntry pins this shape. A null
// read function is refused like any other wiring bug.

bool MetricsRegistry::AddCounter(const std::string& name,
                                 const std::string& help, MetricLabels labels,
                                 MetricRead read) {
  MutexLock lock(mu_);
  return read && AddEntry(MetricType::kCounter, name, help,
                          std::move(labels), std::move(read)) != nullptr;
}

bool MetricsRegistry::AddGauge(const std::string& name,
                               const std::string& help, MetricLabels labels,
                               MetricRead read) {
  MutexLock lock(mu_);
  return read && AddEntry(MetricType::kGauge, name, help, std::move(labels),
                          std::move(read)) != nullptr;
}

Histogram* MetricsRegistry::AddHistogram(const std::string& name,
                                         const std::string& help,
                                         MetricLabels labels) {
  MutexLock lock(mu_);
  Entry* entry =
      AddEntry(MetricType::kHistogram, name, help, std::move(labels));
  if (entry == nullptr) return nullptr;
  entry->histogram.reset(new Histogram());
  return entry->histogram.get();
}

size_t MetricsRegistry::instrument_count() const {
  MutexLock lock(mu_);
  return entries_.size();
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  MutexLock lock(mu_);
  MetricsSnapshot snapshot;
  // Families keep first-registration order; samples keep registration order
  // within a family — exposition output is deterministic run to run.
  std::map<std::string, size_t> family_index;
  for (const auto& entry : entries_) {
    auto it = family_index.find(entry->name);
    if (it == family_index.end()) {
      it = family_index.emplace(entry->name, snapshot.families.size()).first;
      MetricFamily family;
      family.name = entry->name;
      family.help = entry->help;
      family.type = entry->type;
      snapshot.families.push_back(std::move(family));
    }
    MetricFamily& family = snapshot.families[it->second];
    MetricSample sample;
    sample.labels = entry->labels;
    switch (entry->type) {
      case MetricType::kCounter:
      case MetricType::kGauge:
        sample.value = entry->read();
        break;
      case MetricType::kHistogram: {
        const Histogram& h = *entry->histogram;
        HistogramData data;
        data.upper_bounds.reserve(Histogram::kBuckets - 1);
        data.counts.reserve(Histogram::kBuckets);
        for (size_t i = 0; i + 1 < Histogram::kBuckets; ++i) {
          data.upper_bounds.push_back(
              static_cast<double>(Histogram::UpperBound(i)));
          data.counts.push_back(h.BinCount(i));
        }
        data.counts.push_back(h.BinCount(Histogram::kBuckets - 1));
        data.count = h.TotalCount();
        data.sum = h.Sum();
        sample.histogram = std::move(data);
        break;
      }
    }
    family.samples.push_back(std::move(sample));
  }
  return snapshot;
}

std::string RenderPrometheusText(const MetricsSnapshot& snapshot) {
  std::string out;
  for (const MetricFamily& family : snapshot.families) {
    out += "# HELP " + family.name + " " + family.help + "\n";
    out += "# TYPE " + family.name + " " + std::string(TypeName(family.type)) +
           "\n";
    for (const MetricSample& sample : family.samples) {
      if (family.type == MetricType::kHistogram) {
        const HistogramData& h = sample.histogram;
        uint64_t cumulative = 0;
        for (size_t i = 0; i < h.upper_bounds.size(); ++i) {
          cumulative += h.counts[i];
          out += family.name + "_bucket" +
                 RenderLabelsWith(sample.labels, "le",
                                  FormatNumber(h.upper_bounds[i])) +
                 " " + std::to_string(cumulative) + "\n";
        }
        out += family.name + "_bucket" +
               RenderLabelsWith(sample.labels, "le", "+Inf") + " " +
               std::to_string(h.count) + "\n";
        out += family.name + "_sum" + RenderLabels(sample.labels) + " " +
               std::to_string(h.sum) + "\n";
        out += family.name + "_count" + RenderLabels(sample.labels) + " " +
               std::to_string(h.count) + "\n";
      } else {
        out += family.name + RenderLabels(sample.labels) + " " +
               FormatNumber(sample.value) + "\n";
      }
    }
  }
  return out;
}

std::string RenderJson(const MetricsSnapshot& snapshot) {
  std::ostringstream out;
  out << "{\"families\":[";
  bool first_family = true;
  for (const MetricFamily& family : snapshot.families) {
    if (!first_family) out << ",";
    first_family = false;
    out << "{\"name\":\"" << EscapeJson(family.name) << "\",\"type\":\""
        << TypeName(family.type) << "\",\"help\":\"" << EscapeJson(family.help)
        << "\",\"samples\":[";
    bool first_sample = true;
    for (const MetricSample& sample : family.samples) {
      if (!first_sample) out << ",";
      first_sample = false;
      out << "{\"labels\":{";
      bool first_label = true;
      for (const auto& kv : sample.labels) {
        if (!first_label) out << ",";
        first_label = false;
        out << "\"" << EscapeJson(kv.first) << "\":\""
            << EscapeJson(kv.second) << "\"";
      }
      out << "}";
      if (family.type == MetricType::kHistogram) {
        const HistogramData& h = sample.histogram;
        out << ",\"count\":" << h.count << ",\"sum\":" << h.sum
            << ",\"p50\":" << FormatNumber(h.Quantile(0.50))
            << ",\"p99\":" << FormatNumber(h.Quantile(0.99))
            << ",\"p999\":" << FormatNumber(h.Quantile(0.999))
            << ",\"buckets\":[";
        for (size_t i = 0; i < h.counts.size(); ++i) {
          if (i != 0) out << ",";
          out << h.counts[i];
        }
        out << "]";
      } else {
        out << ",\"value\":" << FormatNumber(sample.value);
      }
      out << "}";
    }
    out << "]}";
  }
  out << "]}";
  return out.str();
}

HistogramData AggregateHistogram(const MetricFamily* family) {
  HistogramData merged;
  if (family == nullptr || family->type != MetricType::kHistogram) {
    return merged;
  }
  for (const MetricSample& sample : family->samples) {
    const HistogramData& h = sample.histogram;
    if (merged.counts.empty()) {
      merged.upper_bounds = h.upper_bounds;
      merged.counts.assign(h.counts.size(), 0);
    }
    if (h.counts.size() != merged.counts.size()) continue;
    for (size_t i = 0; i < h.counts.size(); ++i) {
      merged.counts[i] += h.counts[i];
    }
    merged.count += h.count;
    merged.sum += h.sum;
  }
  return merged;
}

double SumSamples(const MetricFamily* family) {
  if (family == nullptr) return 0.0;
  double total = 0.0;
  for (const MetricSample& sample : family->samples) total += sample.value;
  return total;
}

}  // namespace obs
}  // namespace pldp
