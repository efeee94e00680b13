// Copyright 2026 The PLDP Authors.
//
// Minimal CSV writing for experiment reports. Quotes fields that contain
// the separator, quotes, or newlines (RFC 4180).

#ifndef PLDP_COMMON_CSV_H_
#define PLDP_COMMON_CSV_H_

#include <string>
#include <vector>

#include "common/status.h"

namespace pldp {

/// Serializes one CSV row, quoting fields where required.
std::string CsvEncodeRow(const std::vector<std::string>& fields,
                         char sep = ',');

/// Streaming CSV writer bound to a file path.
class CsvWriter {
 public:
  /// Opens (truncates) `path`. Check `status()` before use.
  explicit CsvWriter(const std::string& path, char sep = ',');
  ~CsvWriter();

  CsvWriter(const CsvWriter&) = delete;
  CsvWriter& operator=(const CsvWriter&) = delete;

  Status status() const { return status_; }

  /// Appends one row. No-op (keeping the first error) if already failed.
  Status WriteRow(const std::vector<std::string>& fields);

  /// Flushes and closes; further writes fail.
  Status Close();

 private:
  FILE* file_ = nullptr;
  char sep_;
  Status status_;
};

}  // namespace pldp

#endif  // PLDP_COMMON_CSV_H_
