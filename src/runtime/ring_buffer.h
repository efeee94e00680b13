// Copyright 2026 The PLDP Authors.
//
// A single-threaded growable FIFO over a power-of-two ring.
//
// A std::deque's block allocation pattern costs roughly one heap
// allocation per few buffered items (each block holds only a handful of
// Event-sized slots). This ring grows geometrically and never releases
// capacity, so the steady state pays zero allocations: pushes and pops
// are index arithmetic. Single-threaded by design (the admission layer's
// per-shard parking buffers); the concurrent counterpart is
// runtime/spsc_queue.h.

#ifndef PLDP_RUNTIME_RING_BUFFER_H_
#define PLDP_RUNTIME_RING_BUFFER_H_

#include <cstddef>
#include <utility>
#include <vector>

namespace pldp {

template <typename T>
class RingBuffer {
 public:
  /// Initial capacity is deferred to the first push (an empty buffer costs
  /// nothing — most shards never park an event).
  RingBuffer() = default;

  bool empty() const { return head_ == tail_; }
  size_t size() const { return tail_ - head_; }
  size_t capacity() const { return slots_.size(); }

  /// The oldest element; undefined when empty.
  T& front() { return slots_[head_ & mask_]; }
  const T& front() const { return slots_[head_ & mask_]; }

  void push_back(T value) {
    if (size() == slots_.size()) Grow();
    slots_[tail_ & mask_] = std::move(value);
    ++tail_;
  }

  void pop_front() {
    // Release the payload eagerly (a moved-from slot may still own memory,
    // e.g. a spilled event); the slot itself is reused in place.
    slots_[head_ & mask_] = T();
    ++head_;
  }

  void clear() {
    while (!empty()) pop_front();
  }

 private:
  void Grow() {
    const size_t new_capacity =
        slots_.size() == 0 ? kInitialCapacity : slots_.size() * 2;
    std::vector<T> grown(new_capacity);
    const size_t count = size();
    for (size_t i = 0; i < count; ++i) {
      grown[i] = std::move(slots_[(head_ + i) & mask_]);
    }
    slots_ = std::move(grown);
    mask_ = new_capacity - 1;
    head_ = 0;
    tail_ = count;
  }

  static constexpr size_t kInitialCapacity = 16;

  std::vector<T> slots_;
  size_t mask_ = 0;
  /// Monotone indices; position = index & mask_. head_ == tail_ means
  /// empty, tail_ - head_ == capacity means full.
  size_t head_ = 0;
  size_t tail_ = 0;
};

}  // namespace pldp

#endif  // PLDP_RUNTIME_RING_BUFFER_H_
