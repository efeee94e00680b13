// Copyright 2026 The PLDP Authors.
//
// Shared argv helpers for the examples/ binaries. Every example supports
// `--help`; the service examples add real flags on top (--metrics-port,
// --overload-policy) and shut a serving run down on SIGINT/SIGTERM.
// Deliberately tiny — stdio + strcmp, no getopt — so an example's main()
// stays a readable walkthrough, and header-only so the examples/*.cpp
// CMake glob is unaffected.

#ifndef PLDP_EXAMPLES_EXAMPLE_UTIL_H_
#define PLDP_EXAMPLES_EXAMPLE_UTIL_H_

#include <pthread.h>

#include <csignal>
#include <cstdio>
#include <cstring>

namespace example_util {

/// One `--flag` row of the --help text.
struct OptionDoc {
  const char* flag;
  const char* doc;
};

/// Prints the canonical usage text: one summary paragraph, then the
/// option table (every example lists --help; extras come from `options`).
inline void PrintUsage(const char* binary, const char* summary,
                       const OptionDoc* options, size_t option_count) {
  std::printf("Usage: %s [options]\n\n%s\n\nOptions:\n", binary, summary);
  for (size_t i = 0; i < option_count; ++i) {
    std::printf("  %-28s %s\n", options[i].flag, options[i].doc);
  }
  std::printf("  %-28s %s\n", "--help", "show this help and exit");
}

/// True when `--help` / `-h` is among the arguments. Callers print usage
/// and return 0 — running with no arguments stays the full walkthrough
/// (the CI examples-smoke job relies on that).
inline bool WantsHelp(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--help") == 0 ||
        std::strcmp(argv[i], "-h") == 0) {
      return true;
    }
  }
  return false;
}

/// Value of `--name=value` or `--name value`; nullptr when absent.
inline const char* FlagValue(int argc, char** argv, const char* name) {
  const size_t len = std::strlen(name);
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], name, len) == 0 && argv[i][len] == '=') {
      return argv[i] + len + 1;
    }
    if (std::strcmp(argv[i], name) == 0 && i + 1 < argc) {
      return argv[i + 1];
    }
  }
  return nullptr;
}

/// Blocks SIGINT and SIGTERM in the calling thread and returns that set.
/// Every thread started afterwards (pipeline workers, the scrape endpoint)
/// inherits the mask, so the signals stay pending for
/// WaitForShutdownSignal instead of killing the process: call it before
/// the pipeline is built.
inline sigset_t BlockShutdownSignals() {
  sigset_t signals;
  sigemptyset(&signals);
  sigaddset(&signals, SIGINT);
  sigaddset(&signals, SIGTERM);
  pthread_sigmask(SIG_BLOCK, &signals, nullptr);
  return signals;
}

/// Waits for one of the blocked `signals` and returns its number.
inline int WaitForShutdownSignal(const sigset_t& signals) {
  int sig = 0;
  sigwait(&signals, &sig);
  return sig;
}

}  // namespace example_util

#endif  // PLDP_EXAMPLES_EXAMPLE_UTIL_H_
