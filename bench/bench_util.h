// Copyright 2026 The PLDP Authors.
//
// Shared helpers for the experiment harnesses: flag parsing (--quick /
// --full / --out=...), result persistence, and an opt-in operator-new
// counting hook. Every harness prints the paper-style series to stdout and
// optionally writes a CSV next to it.
//
// Allocation tracking: define PLDP_ENABLE_ALLOC_HOOK before including this
// header in the main translation unit of a binary (exactly one TU per
// binary — replacement operator new/delete must have a single definition)
// to route global operator new/delete through counting wrappers. The hook
// is how allocations/event and bytes/event get measured without any
// instrumentation in the library itself, and how the allocation-regression
// test asserts the steady-state hot path is allocation-free. It
// auto-disables under sanitizers (they own the allocator);
// `kAllocHookActive` tells callers whether counts are real.

#ifndef PLDP_BENCH_BENCH_UTIL_H_
#define PLDP_BENCH_BENCH_UTIL_H_

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>
#include <string>

#include "quality/report.h"

// Sanitizers replace the allocator themselves; a user-replaced operator
// new under ASan/TSan/MSan would fight their interceptors.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define PLDP_ALLOC_HOOK_VIABLE 0
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
#define PLDP_ALLOC_HOOK_VIABLE 0
#else
#define PLDP_ALLOC_HOOK_VIABLE 1
#endif
#else
#define PLDP_ALLOC_HOOK_VIABLE 1
#endif

namespace pldp {
namespace bench {

/// Snapshot of the counting hook.
struct AllocCounters {
  unsigned long long allocs = 0;
  unsigned long long bytes = 0;
};

#if defined(PLDP_ENABLE_ALLOC_HOOK) && PLDP_ALLOC_HOOK_VIABLE

inline constexpr bool kAllocHookActive = true;

namespace alloc_hook_internal {
// Relaxed atomics: counts only need to be complete at the (synchronized)
// read points, after the pipeline's own drain barriers.
inline std::atomic<bool> g_counting{false};
inline std::atomic<unsigned long long> g_allocs{0};
inline std::atomic<unsigned long long> g_bytes{0};

inline void Note(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    g_bytes.fetch_add(size, std::memory_order_relaxed);
  }
}
}  // namespace alloc_hook_internal

/// Starts/stops counting (process-wide, all threads).
inline void SetAllocCounting(bool on) {
  alloc_hook_internal::g_counting.store(on, std::memory_order_relaxed);
}

inline void ResetAllocCounters() {
  alloc_hook_internal::g_allocs.store(0, std::memory_order_relaxed);
  alloc_hook_internal::g_bytes.store(0, std::memory_order_relaxed);
}

inline AllocCounters GetAllocCounters() {
  return {alloc_hook_internal::g_allocs.load(std::memory_order_relaxed),
          alloc_hook_internal::g_bytes.load(std::memory_order_relaxed)};
}

#else

inline constexpr bool kAllocHookActive = false;
inline void SetAllocCounting(bool) {}
inline void ResetAllocCounters() {}
inline AllocCounters GetAllocCounters() { return {}; }

#endif  // PLDP_ENABLE_ALLOC_HOOK && PLDP_ALLOC_HOOK_VIABLE

/// Effort scaling shared by the harnesses.
enum class Effort { kQuick, kDefault, kFull };

struct HarnessArgs {
  Effort effort = Effort::kDefault;
  /// CSV output path; empty = stdout only.
  std::string csv_out;
};

inline void PrintUsage(std::FILE* out, const char* argv0) {
  std::fprintf(out, "usage: %s [--quick | --full] [--out=F.csv]\n", argv0);
}

/// Strict: `--help` prints the usage and exits 0; an unknown flag prints
/// the usage and exits 2, before any benchmark work starts.
inline HarnessArgs ParseArgs(int argc, char** argv) {
  HarnessArgs args;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      args.effort = Effort::kQuick;
    } else if (std::strcmp(argv[i], "--full") == 0) {
      args.effort = Effort::kFull;
    } else if (std::strncmp(argv[i], "--out=", 6) == 0) {
      args.csv_out = argv[i] + 6;
    } else if (std::strcmp(argv[i], "--help") == 0) {
      PrintUsage(stdout, argv[0]);
      std::exit(0);
    } else {
      std::fprintf(stderr, "unknown flag '%s'\n", argv[i]);
      PrintUsage(stderr, argv[0]);
      std::exit(2);
    }
  }
  return args;
}

/// Prints the table and writes the CSV when requested. Returns 0/1 for
/// main().
inline int EmitTable(const ResultTable& table, const HarnessArgs& args,
                     const std::string& title) {
  std::printf("== %s ==\n%s\n", title.c_str(), table.ToString().c_str());
  if (!args.csv_out.empty()) {
    Status s = table.WriteCsv(args.csv_out);
    if (!s.ok()) {
      std::fprintf(stderr, "CSV write failed: %s\n", s.ToString().c_str());
      return 1;
    }
    std::printf("(written to %s)\n", args.csv_out.c_str());
  }
  return 0;
}

}  // namespace bench
}  // namespace pldp

#if defined(PLDP_ENABLE_ALLOC_HOOK) && PLDP_ALLOC_HOOK_VIABLE

// Replacement global allocation functions (the full C++17 set, so every
// allocation path is counted and every deallocation matches malloc/free).
// Deliberately not `inline`: the standard forbids inline replacement
// functions, which is why the hook may be enabled in only one translation
// unit per binary.

void* operator new(std::size_t size) {
  pldp::bench::alloc_hook_internal::Note(size);
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  pldp::bench::alloc_hook_internal::Note(size);
  return std::malloc(size == 0 ? 1 : size);
}

void* operator new[](std::size_t size, const std::nothrow_t& t) noexcept {
  return ::operator new(size, t);
}

void* operator new(std::size_t size, std::align_val_t align) {
  pldp::bench::alloc_hook_internal::Note(size);
  const std::size_t alignment =
      static_cast<std::size_t>(align) < sizeof(void*)
          ? sizeof(void*)
          : static_cast<std::size_t>(align);
  void* p = nullptr;
  if (posix_memalign(&p, alignment, size == 0 ? 1 : size) != 0) {
    throw std::bad_alloc();
  }
  return p;
}

void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}

void* operator new(std::size_t size, std::align_val_t align,
                   const std::nothrow_t&) noexcept {
  try {
    return ::operator new(size, align);
  } catch (...) {
    return nullptr;
  }
}

void* operator new[](std::size_t size, std::align_val_t align,
                     const std::nothrow_t& t) noexcept {
  return ::operator new(size, align, t);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

#endif  // PLDP_ENABLE_ALLOC_HOOK && PLDP_ALLOC_HOOK_VIABLE

#endif  // PLDP_BENCH_BENCH_UTIL_H_
