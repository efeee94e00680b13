// Copyright 2026 The PLDP Authors.
//
// Small string utilities used across modules (CSV I/O, pattern parsing,
// report formatting). Kept dependency-free.

#ifndef PLDP_COMMON_STRINGS_H_
#define PLDP_COMMON_STRINGS_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace pldp {

/// Splits `s` on `sep`. Adjacent separators yield empty fields; an empty
/// input yields a single empty field (CSV semantics).
std::vector<std::string> Split(std::string_view s, char sep);

/// Joins `parts` with `sep`.
std::string Join(const std::vector<std::string>& parts, char sep);

/// Strips ASCII whitespace from both ends.
std::string_view Trim(std::string_view s);

/// Parses a double; rejects trailing junk and empty input.
StatusOr<double> ParseDouble(std::string_view s);

/// Parses a signed 64-bit integer; rejects trailing junk and empty input.
StatusOr<int64_t> ParseInt64(std::string_view s);

/// printf-style formatting into a std::string.
std::string StrFormat(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

}  // namespace pldp

#endif  // PLDP_COMMON_STRINGS_H_
