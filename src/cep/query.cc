// Copyright 2026 The PLDP Authors.

#include "cep/query.h"

#include <algorithm>

namespace pldp {

size_t AnswerSeries::PositiveCount() const {
  return static_cast<size_t>(
      std::count(answers_.begin(), answers_.end(), true));
}

}  // namespace pldp
