// Copyright 2026 The PLDP Authors.
//
// Tests for the runtime's SPSC ring buffer: single-threaded semantics
// (FIFO, capacity, wraparound, move-only payloads) and correctness under a
// real producer/consumer thread pair.

#include "runtime/spsc_queue.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

namespace pldp {
namespace {

TEST(SpscQueueTest, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(NextPowerOfTwo(1), 2u);
  EXPECT_EQ(NextPowerOfTwo(2), 2u);
  EXPECT_EQ(NextPowerOfTwo(3), 4u);
  EXPECT_EQ(NextPowerOfTwo(1000), 1024u);
  EXPECT_EQ(SpscQueue<int>(5).capacity(), 8u);
  EXPECT_EQ(SpscQueue<int>(8).capacity(), 8u);
}

TEST(SpscQueueTest, NextPowerOfTwoSaturatesInsteadOfLooping) {
  // Above 2^63 there is no next power of two; the guard saturates rather
  // than spinning forever on an overflowed shift.
  constexpr size_t kHighBit = size_t{1} << 63;
  static_assert(NextPowerOfTwo(kHighBit) == kHighBit, "exact high bit");
  static_assert(NextPowerOfTwo(kHighBit + 1) == kHighBit, "above high bit");
  static_assert(NextPowerOfTwo(SIZE_MAX) == kHighBit, "SIZE_MAX");
  EXPECT_EQ(NextPowerOfTwo(kHighBit - 1), kHighBit);
}

TEST(SpscQueueTest, AbsurdCapacityRequestIsClamped) {
  // A bogus capacity must not demand a near-2^64 allocation.
  SpscQueue<int> q(SIZE_MAX);
  EXPECT_EQ(q.capacity(), kMaxSpscCapacity);
  EXPECT_TRUE(q.TryPush(7));
  int out = 0;
  EXPECT_TRUE(q.TryPop(out));
  EXPECT_EQ(out, 7);
}

TEST(SpscQueueTest, BulkPushPopSingleThreaded) {
  SpscQueue<int> q(8);
  int in[6] = {0, 1, 2, 3, 4, 5};
  EXPECT_EQ(q.TryPushN(in, 6), 6u);
  EXPECT_EQ(q.ApproxSize(), 6u);

  // Partial push when nearly full: only 2 slots remain.
  int more[5] = {6, 7, 8, 9, 10};
  EXPECT_EQ(q.TryPushN(more, 5), 2u);
  EXPECT_EQ(q.ApproxSize(), 8u);
  EXPECT_EQ(q.TryPushN(more, 5), 0u);  // full

  int out[16] = {0};
  EXPECT_EQ(q.TryPopN(out, 3), 3u);  // partial pop
  EXPECT_EQ(q.TryPopN(out + 3, 16), 5u);  // rest, bounded by occupancy
  for (int i = 0; i < 8; ++i) EXPECT_EQ(out[i], i);
  EXPECT_EQ(q.TryPopN(out, 16), 0u);  // empty

  // Zero-count calls are no-ops.
  EXPECT_EQ(q.TryPushN(in, 0), 0u);
  EXPECT_EQ(q.TryPopN(out, 0), 0u);
}

TEST(SpscQueueTest, BulkOpsWrapAround) {
  SpscQueue<uint64_t> q(4);
  uint64_t buf[3];
  uint64_t out[3];
  uint64_t next = 0;
  uint64_t expected = 0;
  for (int lap = 0; lap < 500; ++lap) {
    for (auto& v : buf) v = next++;
    ASSERT_EQ(q.TryPushN(buf, 3), 3u);
    ASSERT_EQ(q.TryPopN(out, 3), 3u);
    for (uint64_t v : out) ASSERT_EQ(v, expected++);
  }
  EXPECT_TRUE(q.ApproxEmpty());
}

TEST(SpscQueueTest, ClaimPublishPeekReleaseWrapAround) {
  // Items written and read in place, across many laps of a 4-slot ring
  // with a burst size (3) that keeps every lap's burst straddling the
  // wrap point at a different offset.
  SpscQueue<uint64_t> q(4);
  uint64_t next = 0;
  uint64_t expected = 0;
  for (int lap = 0; lap < 500; ++lap) {
    ASSERT_EQ(q.Claim(3), 3u);
    for (size_t i = 0; i < 3; ++i) q.ClaimedSlot(i) = next++;
    // Claimed but unpublished slots are invisible to the consumer.
    ASSERT_EQ(q.Peek(3), 0u);
    q.Publish(3);
    ASSERT_EQ(q.Peek(3), 3u);
    for (size_t i = 0; i < 3; ++i) ASSERT_EQ(q.PeekedSlot(i), expected++);
    // Peeked but unreleased slots still hold the producer back.
    ASSERT_EQ(q.Claim(4), 1u);
    q.Release(3);
  }
  EXPECT_TRUE(q.ApproxEmpty());
}

TEST(SpscQueueTest, SlotIndicesAddressAParallelArrayAcrossWrapAround) {
  // An owner keeps a side array in parallel with the ring (the shard's
  // attribute array): what the producer writes at ClaimedIndex(i) the
  // consumer must find at the PeekedIndex of the same item, on every lap,
  // with bursts (3) that straddle the wrap point at shifting offsets.
  SpscQueue<uint64_t> q(4);
  std::vector<uint64_t> side(q.capacity(), ~uint64_t{0});
  uint64_t next = 0;
  uint64_t expected = 0;
  for (int lap = 0; lap < 500; ++lap) {
    ASSERT_EQ(q.Claim(3), 3u);
    for (size_t i = 0; i < 3; ++i) {
      const size_t index = q.ClaimedIndex(i);
      ASSERT_LT(index, q.capacity());
      // Consecutive claimed slots are consecutive ring positions.
      ASSERT_EQ(index, (q.ClaimedIndex(0) + i) % q.capacity());
      q.ClaimedSlot(i) = next;
      side[index] = next * 10;
      ++next;
    }
    q.Publish(3);
    ASSERT_EQ(q.Peek(3), 3u);
    for (size_t i = 0; i < 3; ++i) {
      ASSERT_EQ(q.PeekedSlot(i), expected);
      ASSERT_EQ(side[q.PeekedIndex(i)], expected * 10);
      ++expected;
    }
    q.Release(3);
    // Producer and consumer meet at the same position once drained.
    ASSERT_EQ(q.Claim(1), 1u);
    ASSERT_EQ(q.ClaimedIndex(0), q.PeekedIndex(0));
  }
  EXPECT_TRUE(q.ApproxEmpty());
}

TEST(SpscQueueTest, ClaimOnFullRingGrantsOnlyTheFreeSlots) {
  SpscQueue<int> q(4);
  ASSERT_EQ(q.Claim(3), 3u);
  for (size_t i = 0; i < 3; ++i) q.ClaimedSlot(i) = static_cast<int>(i);
  q.Publish(3);
  // One slot left: a claim for more is granted partially, then none.
  ASSERT_EQ(q.Claim(3), 1u);
  q.ClaimedSlot(0) = 3;
  q.Publish(1);
  EXPECT_EQ(q.Claim(1), 0u);
  EXPECT_EQ(q.ApproxSize(), 4u);
  // Releasing two slots makes exactly two claimable again.
  ASSERT_EQ(q.Peek(2), 2u);
  q.Release(2);
  EXPECT_EQ(q.Claim(8), 2u);
  int out = -1;
  ASSERT_TRUE(q.TryPop(out));
  EXPECT_EQ(out, 2);
}

TEST(SpscQueueTest, PublishZeroAndReleaseZeroAreNoOps) {
  SpscQueue<int> q(2);
  q.Publish(0);
  EXPECT_EQ(q.ApproxSize(), 0u);
  EXPECT_EQ(q.Peek(1), 0u);
  ASSERT_TRUE(q.TryPush(5));
  ASSERT_EQ(q.Peek(1), 1u);
  q.Release(0);
  EXPECT_EQ(q.ApproxSize(), 1u);
  EXPECT_EQ(q.PeekedSlot(0), 5);
  // A zero claim grants nothing and publishes nothing.
  EXPECT_EQ(q.Claim(0), 0u);
  q.Publish(0);
  EXPECT_EQ(q.ApproxSize(), 1u);
}

TEST(SpscQueueTest, BulkOpsMoveOnlyPayload) {
  SpscQueue<std::unique_ptr<int>> q(4);
  std::unique_ptr<int> in[3];
  for (int i = 0; i < 3; ++i) in[i] = std::make_unique<int>(i);
  ASSERT_EQ(q.TryPushN(in, 3), 3u);
  for (const auto& p : in) EXPECT_EQ(p, nullptr);  // moved out
  std::unique_ptr<int> out[3];
  ASSERT_EQ(q.TryPopN(out, 3), 3u);
  for (int i = 0; i < 3; ++i) {
    ASSERT_NE(out[i], nullptr);
    EXPECT_EQ(*out[i], i);
  }
}

// Bulk producer races bulk consumer through a tiny queue; every value must
// arrive exactly once, in order, regardless of burst fragmentation. TSan
// covers the single-release-store-per-burst publication.
TEST(SpscQueueTest, BulkProducerConsumerThreadPairPreservesSequence) {
  constexpr uint64_t kCount = 200000;
  constexpr size_t kBurst = 17;  // deliberately not a divisor of capacity
  SpscQueue<uint64_t> q(16);

  std::thread producer([&q] {
    uint64_t buf[kBurst];
    uint64_t next = 0;
    while (next < kCount) {
      size_t want = kBurst;
      if (kCount - next < want) want = static_cast<size_t>(kCount - next);
      for (size_t i = 0; i < want; ++i) buf[i] = next + i;
      size_t done = 0;
      while (done < want) {
        const size_t n = q.TryPushN(buf + done, want - done);
        if (n == 0) {
          std::this_thread::yield();
        } else {
          done += n;
        }
      }
      next += want;
    }
  });

  uint64_t out[kBurst];
  uint64_t expected = 0;
  while (expected < kCount) {
    const size_t n = q.TryPopN(out, kBurst);
    if (n == 0) {
      std::this_thread::yield();
      continue;
    }
    for (size_t i = 0; i < n; ++i) ASSERT_EQ(out[i], expected++);
  }
  producer.join();
  EXPECT_TRUE(q.ApproxEmpty());
}

TEST(SpscQueueTest, FifoOrderSingleThreaded) {
  SpscQueue<int> q(4);
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(q.TryPush(int{i}));
  int out = -1;
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(q.TryPop(out));
    EXPECT_EQ(out, i);
  }
  EXPECT_FALSE(q.TryPop(out));
}

TEST(SpscQueueTest, PushFailsWhenFullPopFailsWhenEmpty) {
  SpscQueue<int> q(2);
  int out = 0;
  EXPECT_FALSE(q.TryPop(out));
  EXPECT_TRUE(q.TryPush(1));
  EXPECT_TRUE(q.TryPush(2));
  EXPECT_FALSE(q.TryPush(3));  // full: capacity 2
  EXPECT_TRUE(q.TryPop(out));
  EXPECT_TRUE(q.TryPush(3));  // slot freed
  EXPECT_EQ(q.ApproxSize(), 2u);
}

TEST(SpscQueueTest, WrapsAroundManyLaps) {
  SpscQueue<uint64_t> q(4);
  uint64_t out = 0;
  for (uint64_t i = 0; i < 1000; ++i) {
    ASSERT_TRUE(q.TryPush(uint64_t{i}));
    ASSERT_TRUE(q.TryPop(out));
    ASSERT_EQ(out, i);
  }
  EXPECT_TRUE(q.ApproxEmpty());
}

TEST(SpscQueueTest, MoveOnlyPayload) {
  SpscQueue<std::unique_ptr<int>> q(2);
  ASSERT_TRUE(q.TryPush(std::make_unique<int>(42)));
  std::unique_ptr<int> out;
  ASSERT_TRUE(q.TryPop(out));
  ASSERT_NE(out, nullptr);
  EXPECT_EQ(*out, 42);
}

// The load-bearing test: a dedicated producer thread races a dedicated
// consumer thread through a deliberately tiny queue (forcing constant
// wraparound and full/empty transitions). The consumer must observe every
// value exactly once, in order.
TEST(SpscQueueTest, ProducerConsumerThreadPairPreservesSequence) {
  constexpr uint64_t kCount = 200000;
  SpscQueue<uint64_t> q(8);

  std::thread producer([&q] {
    for (uint64_t i = 0; i < kCount; ++i) {
      while (!q.TryPush(uint64_t{i})) std::this_thread::yield();
    }
  });

  uint64_t expected = 0;
  uint64_t out = 0;
  while (expected < kCount) {
    if (q.TryPop(out)) {
      ASSERT_EQ(out, expected);
      ++expected;
    } else {
      std::this_thread::yield();
    }
  }
  producer.join();
  EXPECT_TRUE(q.ApproxEmpty());
}

// Same pair but with a heap-owning payload, so TSan + ASan cover the
// slot handoff of non-trivial types.
TEST(SpscQueueTest, ProducerConsumerThreadPairMoveOnly) {
  constexpr int kCount = 20000;
  SpscQueue<std::unique_ptr<int>> q(4);

  std::thread producer([&q] {
    for (int i = 0; i < kCount; ++i) {
      auto v = std::make_unique<int>(i);
      while (!q.TryPush(std::move(v))) std::this_thread::yield();
    }
  });

  int expected = 0;
  std::unique_ptr<int> out;
  while (expected < kCount) {
    if (q.TryPop(out)) {
      ASSERT_NE(out, nullptr);
      ASSERT_EQ(*out, expected);
      ++expected;
    } else {
      std::this_thread::yield();
    }
  }
  producer.join();
}

}  // namespace
}  // namespace pldp
