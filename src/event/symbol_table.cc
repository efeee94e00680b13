// Copyright 2026 The PLDP Authors.

#include "event/symbol_table.h"

namespace pldp {

InternTable::InternTable() {
  // order: relaxed; construction precedes any sharing.
  for (auto& block : blocks_) {
    block.store(nullptr, std::memory_order_relaxed);
  }
}

InternTable::~InternTable() {
  // order: relaxed; destruction requires external quiescence anyway.
  for (auto& block : blocks_) {
    delete[] block.load(std::memory_order_relaxed);
  }
}

uint32_t InternTable::Intern(std::string_view name) {
  MutexLock lock(mu_);
  auto it = ids_.find(name);
  if (it != ids_.end()) return it->second;

  // order: relaxed; mu_ serializes all writers, so this thread's own
  // publication order is the only constraint (see the release below).
  const size_t id = size_.load(std::memory_order_relaxed);
  // order: relaxed; the budget is an isolated knob (see SetBudget).
  if (id >= budget_.load(std::memory_order_relaxed)) return kInvalidInternId;
  const size_t block_index = id >> kBlockBits;
  // order: relaxed load under mu_; the release store sequences the fresh
  // block's construction before the size_ publication below, which is
  // what lock-free NameOf readers synchronize with.
  std::string* block = blocks_[block_index].load(std::memory_order_relaxed);
  if (block == nullptr) {
    block = new std::string[kBlockSize];
    // order: release; see the rationale above the load.
    blocks_[block_index].store(block, std::memory_order_release);
  }
  std::string& slot = block[id & (kBlockSize - 1)];
  slot.assign(name.data(), name.size());
  ids_.emplace(std::string_view(slot), static_cast<uint32_t>(id));
  // order: release is the publication point — a reader that observes
  // size_ > id also observes the block pointer and the fully written
  // slot (pairs with the acquire loads in NameOf and size()).
  size_.store(id + 1, std::memory_order_release);
  return static_cast<uint32_t>(id);
}

void InternTable::SetBudget(size_t max_entries) {
  MutexLock lock(mu_);
  if (max_entries == 0 || max_entries > kMaxEntries) {
    max_entries = kMaxEntries;
  }
  // order: relaxed; the budget gates only NEW registrations and carries
  // no payload — a racing Intern may use either bound, both are valid.
  budget_.store(max_entries, std::memory_order_relaxed);
}

uint32_t InternTable::Find(std::string_view name) const {
  MutexLock lock(mu_);
  auto it = ids_.find(name);
  return it == ids_.end() ? kInvalidInternId : it->second;
}

std::string_view InternTable::NameOf(uint32_t id) const {
  // order: acquire pairs with Intern's release store of size_.
  if (id >= size_.load(std::memory_order_acquire)) return {};
  // order: relaxed; the acquire above already orders this load after the
  // block pointer's release store (sequenced before the size_
  // publication).
  const std::string* block =
      blocks_[id >> kBlockBits].load(std::memory_order_relaxed);
  return std::string_view(block[id & (kBlockSize - 1)]);
}

InternTable& AttrNames() {
  static InternTable* table = new InternTable();
  return *table;
}

InternTable& SymbolNames() {
  static InternTable* table = new InternTable();
  return *table;
}

}  // namespace pldp
