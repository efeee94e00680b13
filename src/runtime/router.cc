// Copyright 2026 The PLDP Authors.

#include "runtime/router.h"

#include "common/random.h"

namespace pldp {

EventRouter::EventRouter(size_t shard_count)
    : shard_count_(shard_count < 1 ? 1 : shard_count) {}

size_t EventRouter::ShardOf(const Event& event) const {
  return ShardOfKey(static_cast<uint64_t>(event.stream()));
}

size_t EventRouter::ShardOfKey(uint64_t key) const {
  if (shard_count_ == 1) return 0;
  // Lemire multiply-shift: maps the mixed hash uniformly onto
  // [0, shard_count) without a 64-bit divide — this runs once per event.
  return static_cast<size_t>(
      (static_cast<unsigned __int128>(MixKey(key)) * shard_count_) >> 64);
}

uint64_t EventRouter::MixKey(uint64_t key) {
  return SplitMix64(key).Next();
}

}  // namespace pldp
