// Copyright 2026 The PLDP Authors.
//
// Negative fixture for tools/lint_hotpath.py: a PLDP_HOT function whose
// direct body allocates. The `hotpath_lint_negative` ctest case runs the
// lint over this file alone and asserts (via WILL_FAIL) that it exits
// non-zero — proving the lint actually catches the violation class it
// claims to, not just that it exits 0 on clean trees.
//
// This file is NOT part of any build target; it only exists to be linted.

#include <cstddef>
#include <cstdint>

#include "common/thread_annotations.h"

namespace pldp {
namespace {

PLDP_HOT int* HotButAllocates() {
  return new int(42);  // the violation the lint must flag
}

/// Shaped like TypeAnyOfPredicate::EvalBatch / the shard's batched pop
/// loop: a PLDP_HOT bulk kernel over a span writing a result bitmask. The
/// lint must flag allocation inside such bodies too — the batch path is the
/// highest-traffic code in the runtime, and a per-batch scratch vector is
/// precisely the regression the zero-allocation contract exists to stop.
PLDP_HOT size_t HotBatchKernelButAllocates(const uint16_t* types, size_t n,
                                           uint64_t* mask_out) {
  auto* scratch = new uint16_t[n];  // per-batch heap scratch: must be flagged
  size_t hits = 0;
  for (size_t i = 0; i < n; ++i) {
    scratch[i] = types[i];
    if (types[i] == 7) {
      mask_out[i / 64] |= uint64_t{1} << (i % 64);
      ++hits;
    }
  }
  delete[] scratch;
  return hits;
}

/// The indirect shape the one-level call-graph check exists for: the hot
/// body is spotless, but it calls an unannotated helper (defined right
/// here in the scanned set) that allocates one hop away. The lint must
/// flag the CALL — `ColdScratchHelper` is neither PLDP_HOT nor on the
/// allowlist — without needing to prove the helper allocates.
int* ColdScratchHelper(size_t n) { return new int[n]; }

PLDP_HOT size_t HotButCallsColdHelper(const uint16_t* types, size_t n) {
  int* scratch = ColdScratchHelper(n);  // the call the lint must flag
  size_t hits = 0;
  for (size_t i = 0; i < n; ++i) {
    scratch[i] = types[i];
    if (types[i] == 7) ++hits;
  }
  delete[] scratch;
  return hits;
}

}  // namespace
}  // namespace pldp
