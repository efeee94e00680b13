// Copyright 2026 The PLDP Authors.

#include "common/logging.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "common/thread_annotations.h"

namespace pldp {

namespace {

/// Initial threshold: the PLDP_LOG_LEVEL environment variable when set
/// ("debug"/"info"/"warning"/"error"/"off", or the numeric 0-4), warning
/// otherwise. Read once at static-init time; SetLogLevel overrides later.
int InitialLevel() {
  const char* env = std::getenv("PLDP_LOG_LEVEL");
  if (env == nullptr || *env == '\0') {
    return static_cast<int>(LogLevel::kWarning);
  }
  if (std::strcmp(env, "debug") == 0 || std::strcmp(env, "0") == 0) {
    return static_cast<int>(LogLevel::kDebug);
  }
  if (std::strcmp(env, "info") == 0 || std::strcmp(env, "1") == 0) {
    return static_cast<int>(LogLevel::kInfo);
  }
  if (std::strcmp(env, "warning") == 0 || std::strcmp(env, "warn") == 0 ||
      std::strcmp(env, "2") == 0) {
    return static_cast<int>(LogLevel::kWarning);
  }
  if (std::strcmp(env, "error") == 0 || std::strcmp(env, "3") == 0) {
    return static_cast<int>(LogLevel::kError);
  }
  if (std::strcmp(env, "off") == 0 || std::strcmp(env, "none") == 0 ||
      std::strcmp(env, "4") == 0) {
    return static_cast<int>(LogLevel::kOff);
  }
  return static_cast<int>(LogLevel::kWarning);
}

std::atomic<int> g_min_level{InitialLevel()};
/// Serializes emission only (one stderr line at a time); the level gate is
/// the lock-free atomic above.
Mutex g_emit_mutex;

const char* LevelTag(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug:
      return "D";
    case LogLevel::kInfo:
      return "I";
    case LogLevel::kWarning:
      return "W";
    case LogLevel::kError:
      return "E";
    case LogLevel::kOff:
      return "?";
  }
  return "?";
}

const char* Basename(const char* path) {
  const char* slash = std::strrchr(path, '/');
  return slash ? slash + 1 : path;
}
}  // namespace

// order: relaxed; the level is an isolated filter knob — a straggling
// log line during a level change is harmless, nothing is published.
void SetLogLevel(LogLevel level) {
  g_min_level.store(static_cast<int>(level), std::memory_order_relaxed);
}

namespace internal {

LogMessage::LogMessage(LogLevel level, const char* file, int line)
    // order: relaxed; see SetLogLevel().
    : enabled_(static_cast<int>(level) >=
               g_min_level.load(std::memory_order_relaxed)),
      level_(level) {
  if (enabled_) {
    stream_ << "[" << LevelTag(level) << " " << Basename(file) << ":" << line
            << "] ";
  }
}

LogMessage::~LogMessage() {
  if (!enabled_) return;
  MutexLock lock(g_emit_mutex);
  std::fprintf(stderr, "%s\n", stream_.str().c_str());
}

}  // namespace internal
}  // namespace pldp
