// Copyright 2026 The PLDP Authors.
//
// Minimal leveled logging for library diagnostics. Streams to stderr;
// the threshold is process-global and settable by applications
// (benchmark harnesses silence INFO, tests raise it for debugging).
// The initial threshold honors the PLDP_LOG_LEVEL environment variable
// ("debug"/"info"/"warning"/"error"/"off" or 0-4); default is warning.

#ifndef PLDP_COMMON_LOGGING_H_
#define PLDP_COMMON_LOGGING_H_

#include <sstream>
#include <string>

namespace pldp {

enum class LogLevel : int {
  kDebug = 0,
  kInfo = 1,
  kWarning = 2,
  kError = 3,
  kOff = 4,
};

/// Sets the process-global minimum level that is emitted.
void SetLogLevel(LogLevel level);

namespace internal {

/// Collects one log line and emits it on destruction (RAII), matching the
/// LOG(INFO) << ... idiom without macros leaking state.
class LogMessage {
 public:
  LogMessage(LogLevel level, const char* file, int line);
  ~LogMessage();

  LogMessage(const LogMessage&) = delete;
  LogMessage& operator=(const LogMessage&) = delete;

  template <typename T>
  LogMessage& operator<<(const T& v) {
    if (enabled_) stream_ << v;
    return *this;
  }

 private:
  bool enabled_;
  LogLevel level_;
  std::ostringstream stream_;
};

}  // namespace internal
}  // namespace pldp

#define PLDP_LOG(severity)                                      \
  ::pldp::internal::LogMessage(::pldp::LogLevel::k##severity,   \
                               __FILE__, __LINE__)

#endif  // PLDP_COMMON_LOGGING_H_
