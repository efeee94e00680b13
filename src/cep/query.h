// Copyright 2026 The PLDP Authors.
//
// Continuous binary queries (paper §V assumption): a data consumer asks,
// per evaluation window, "does target pattern P occur?". The answer series
// over the window sequence is the engine's output, and what the quality
// metrics compare against ground truth.

#ifndef PLDP_CEP_QUERY_H_
#define PLDP_CEP_QUERY_H_

#include <cstdint>
#include <string>
#include <vector>

#include "cep/pattern.h"

namespace pldp {

/// Dense identifier of a registered query.
using QueryId = uint32_t;

/// A continuous query: binary existence of one target pattern per window.
struct BinaryQuery {
  QueryId id = 0;
  std::string name;
  PatternId target = kInvalidPattern;
};

/// Answers to one query: element w is the answer for window w.
class AnswerSeries {
 public:
  AnswerSeries() = default;
  explicit AnswerSeries(std::vector<bool> answers)
      : answers_(std::move(answers)) {}

  void Append(bool detected) { answers_.push_back(detected); }

  size_t size() const { return answers_.size(); }
  bool operator[](size_t i) const { return answers_[i]; }
  const std::vector<bool>& answers() const { return answers_; }

  /// Number of positive answers.
  size_t PositiveCount() const;

 private:
  std::vector<bool> answers_;
};

}  // namespace pldp

#endif  // PLDP_CEP_QUERY_H_
