// Copyright 2026 The PLDP Authors.

#include "common/strings.h"

#include <cctype>
#include <cerrno>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace pldp {

std::vector<std::string> Split(std::string_view s, char sep) {
  std::vector<std::string> out;
  size_t start = 0;
  while (true) {
    size_t pos = s.find(sep, start);
    if (pos == std::string_view::npos) {
      out.emplace_back(s.substr(start));
      break;
    }
    out.emplace_back(s.substr(start, pos - start));
    start = pos + 1;
  }
  return out;
}

std::string Join(const std::vector<std::string>& parts, char sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out.push_back(sep);
    out += parts[i];
  }
  return out;
}

std::string_view Trim(std::string_view s) {
  size_t b = 0;
  size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

StatusOr<double> ParseDouble(std::string_view s) {
  std::string buf(Trim(s));
  if (buf.empty()) return Status::InvalidArgument("empty number");
  errno = 0;
  char* end = nullptr;
  double v = std::strtod(buf.c_str(), &end);
  if (end != buf.c_str() + buf.size()) {
    return Status::InvalidArgument("trailing characters in number: '" + buf +
                                   "'");
  }
  if (errno == ERANGE) {
    return Status::OutOfRange("number out of double range: '" + buf + "'");
  }
  return v;
}

StatusOr<int64_t> ParseInt64(std::string_view s) {
  std::string buf(Trim(s));
  if (buf.empty()) return Status::InvalidArgument("empty integer");
  errno = 0;
  char* end = nullptr;
  long long v = std::strtoll(buf.c_str(), &end, 10);
  if (end != buf.c_str() + buf.size()) {
    return Status::InvalidArgument("trailing characters in integer: '" + buf +
                                   "'");
  }
  if (errno == ERANGE) {
    return Status::OutOfRange("integer out of int64 range: '" + buf + "'");
  }
  return static_cast<int64_t>(v);
}

std::string StrFormat(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list args_copy;
  va_copy(args_copy, args);
  int needed = std::vsnprintf(nullptr, 0, fmt, args);
  va_end(args);
  std::string out;
  if (needed > 0) {
    out.resize(static_cast<size_t>(needed));
    std::vsnprintf(out.data(), out.size() + 1, fmt, args_copy);
  }
  va_end(args_copy);
  return out;
}

}  // namespace pldp
