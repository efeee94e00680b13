// Copyright 2026 The PLDP Authors.
//
// Negative fixture for tools/lint_hotpath.py: a PLDP_HOT member function
// whose out-of-line body declares a local array of a class type. The
// `hotpath_lint_stack_array_negative` ctest case runs the lint over this
// file alone and asserts (via WILL_FAIL) that it exits non-zero. It holds
// this one violation and nothing else, so the case fails the moment either
// half of the check stops working: the array rule, or the matching of a
// PLDP_HOT declaration to its out-of-line definition.
//
// This file is NOT part of any build target; it only exists to be linted.

#include <cstddef>
#include <cstdint>
#include <string>

#include "common/thread_annotations.h"

namespace pldp {
namespace {

/// Shaped like an exchange lane item: non-trivial, so every element of an
/// array of it is constructed and destroyed on each call.
struct Item {
  uint64_t key = 0;
  std::string payload;
};

class Consumer {
 public:
  PLDP_HOT size_t Poll(const Item* lane, size_t ready);
};

size_t Consumer::Poll(const Item* lane, size_t ready) {
  Item burst[128];  // the violation the lint must flag
  size_t n = 0;
  for (; n < ready && n < 128; ++n) burst[n].key = lane[n].key;
  return n;
}

}  // namespace
}  // namespace pldp
