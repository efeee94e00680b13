// Copyright 2026 The PLDP Authors.

#include "cep/matcher.h"

#include <algorithm>
#include <limits>
#include <unordered_map>

namespace pldp {

namespace {

// Leftmost-greedy subsequence search for SEQ patterns.
std::optional<std::vector<size_t>> SequencePositions(
    const std::vector<Event>& events, const std::vector<EventTypeId>& elems) {
  std::vector<size_t> positions;
  positions.reserve(elems.size());
  size_t next = 0;
  for (size_t i = 0; i < events.size() && next < elems.size(); ++i) {
    if (events[i].type() == elems[next]) {
      positions.push_back(i);
      ++next;
    }
  }
  if (next == elems.size()) return positions;
  return std::nullopt;
}

// Earliest witnesses for AND patterns with multiset containment.
std::optional<std::vector<size_t>> ConjunctionPositions(
    const std::vector<Event>& events, const std::vector<EventTypeId>& elems) {
  // Required multiplicity per type.
  std::unordered_map<EventTypeId, size_t> need;
  for (EventTypeId t : elems) ++need[t];

  // Earliest occurrence indices per type.
  std::unordered_map<EventTypeId, std::vector<size_t>> found;
  for (size_t i = 0; i < events.size(); ++i) {
    auto it = need.find(events[i].type());
    if (it == need.end()) continue;
    auto& vec = found[events[i].type()];
    if (vec.size() < it->second) vec.push_back(i);
  }
  for (const auto& [type, count] : need) {
    auto it = found.find(type);
    if (it == found.end() || it->second.size() < count) return std::nullopt;
  }
  // Emit positions in pattern-element order, consuming witnesses in order.
  std::unordered_map<EventTypeId, size_t> cursor;
  std::vector<size_t> positions;
  positions.reserve(elems.size());
  for (EventTypeId t : elems) {
    positions.push_back(found[t][cursor[t]++]);
  }
  return positions;
}

std::optional<std::vector<size_t>> DisjunctionPositions(
    const std::vector<Event>& events, const std::vector<EventTypeId>& elems) {
  for (size_t i = 0; i < events.size(); ++i) {
    if (std::find(elems.begin(), elems.end(), events[i].type()) !=
        elems.end()) {
      return std::vector<size_t>{i};
    }
  }
  return std::nullopt;
}

}  // namespace

StatusOr<std::optional<PatternMatch>> FindMatchInWindow(const Window& window,
                                                        const Pattern& pattern,
                                                        PatternId id,
                                                        size_t window_index) {
  if (pattern.length() == 0) {
    return Status::InvalidArgument("empty pattern");
  }
  std::optional<std::vector<size_t>> positions;
  switch (pattern.mode()) {
    case DetectionMode::kSequence:
      positions = SequencePositions(window.events, pattern.elements());
      break;
    case DetectionMode::kConjunction:
      positions = ConjunctionPositions(window.events, pattern.elements());
      break;
    case DetectionMode::kDisjunction:
      positions = DisjunctionPositions(window.events, pattern.elements());
      break;
  }
  if (!positions.has_value()) return std::optional<PatternMatch>();
  PatternMatch match;
  match.pattern = id;
  match.window_index = window_index;
  match.event_positions = std::move(*positions);
  Timestamp last = std::numeric_limits<Timestamp>::min();
  for (size_t pos : match.event_positions) {
    last = std::max(last, window.events[pos].timestamp());
  }
  match.detected_at = match.event_positions.empty() ? window.start : last;
  return std::optional<PatternMatch>(std::move(match));
}

StatusOr<bool> PatternOccursInWindow(const Window& window,
                                     const Pattern& pattern) {
  PLDP_ASSIGN_OR_RETURN(auto match, FindMatchInWindow(window, pattern));
  return match.has_value();
}

namespace {

/// Frontier-based online SEQ matcher (see header).
class SequenceIncrementalMatcher final : public IncrementalMatcher {
 public:
  SequenceIncrementalMatcher(Pattern pattern, Timestamp window)
      : pattern_(std::move(pattern)), window_(window) {
    Reset();
  }

  bool OnEvent(const Event& event) override {
    const auto& elems = pattern_.elements();
    const Timestamp t = event.timestamp();
    bool matched = false;
    // Walk prefixes from longest to shortest so one event does not advance
    // the same run twice in a single step.
    for (size_t k = elems.size(); k-- > 0;) {
      if (event.type() != elems[k]) continue;
      Timestamp start;
      if (k == 0) {
        start = t;  // new run begins here
      } else {
        start = best_start_[k - 1];
        if (start == kNoRun) continue;
        if (window_ > 0 && t - start > window_) continue;  // run expired
      }
      if (k + 1 == elems.size()) {
        detections_.push_back(t);
        matched = true;
      } else {
        best_start_[k] = std::max(best_start_[k], start);
      }
    }
    return matched;
  }

  const std::vector<Timestamp>& detections() const override {
    return detections_;
  }

  void Reset() override {
    best_start_.assign(pattern_.length(), kNoRun);
    detections_.clear();
  }

 private:
  static constexpr Timestamp kNoRun = std::numeric_limits<Timestamp>::min();

  Pattern pattern_;
  Timestamp window_;
  // best_start_[k]: latest possible start timestamp of a run that has
  // matched elements [0..k].
  std::vector<Timestamp> best_start_;
  std::vector<Timestamp> detections_;
};

/// Online AND matcher: all distinct types seen within the trailing window.
class ConjunctionIncrementalMatcher final : public IncrementalMatcher {
 public:
  ConjunctionIncrementalMatcher(Pattern pattern, Timestamp window)
      : pattern_(std::move(pattern)), window_(window) {
    Reset();
  }

  bool OnEvent(const Event& event) override {
    auto it = last_seen_.find(event.type());
    if (it == last_seen_.end()) return false;
    it->second = event.timestamp();
    // Detected iff every required type was seen within the trailing window.
    for (const auto& [type, seen] : last_seen_) {
      if (seen == kNever) return false;
      if (window_ > 0 && event.timestamp() - seen > window_) return false;
    }
    detections_.push_back(event.timestamp());
    return true;
  }

  const std::vector<Timestamp>& detections() const override {
    return detections_;
  }

  void Reset() override {
    last_seen_.clear();
    for (EventTypeId t : pattern_.DistinctTypes()) last_seen_[t] = kNever;
    detections_.clear();
  }

 private:
  static constexpr Timestamp kNever = std::numeric_limits<Timestamp>::min();

  Pattern pattern_;
  Timestamp window_;
  std::unordered_map<EventTypeId, Timestamp> last_seen_;
  std::vector<Timestamp> detections_;
};

/// Online OR matcher: any element type triggers.
class DisjunctionIncrementalMatcher final : public IncrementalMatcher {
 public:
  explicit DisjunctionIncrementalMatcher(Pattern pattern)
      : pattern_(std::move(pattern)) {}

  bool OnEvent(const Event& event) override {
    if (!pattern_.ContainsType(event.type())) return false;
    detections_.push_back(event.timestamp());
    return true;
  }

  const std::vector<Timestamp>& detections() const override {
    return detections_;
  }

  void Reset() override { detections_.clear(); }

 private:
  Pattern pattern_;
  std::vector<Timestamp> detections_;
};

}  // namespace

std::unique_ptr<IncrementalMatcher> MakeIncrementalMatcher(
    const Pattern& pattern, Timestamp window) {
  switch (pattern.mode()) {
    case DetectionMode::kSequence:
      return std::make_unique<SequenceIncrementalMatcher>(pattern, window);
    case DetectionMode::kConjunction:
      return std::make_unique<ConjunctionIncrementalMatcher>(pattern, window);
    case DetectionMode::kDisjunction:
      return std::make_unique<DisjunctionIncrementalMatcher>(pattern);
  }
  return nullptr;
}

}  // namespace pldp
