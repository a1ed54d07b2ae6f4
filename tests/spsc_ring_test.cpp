// util::SpscRing: the per-shard FIFO of the parallel MPSoC engine.
#include <gtest/gtest.h>

#include <cstdint>
#include <thread>

#include "util/spsc_ring.hpp"

using sdmmon::util::SpscRing;

TEST(SpscRing, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(SpscRing<int>(0).capacity(), 2u);
  EXPECT_EQ(SpscRing<int>(1).capacity(), 2u);
  EXPECT_EQ(SpscRing<int>(2).capacity(), 2u);
  EXPECT_EQ(SpscRing<int>(3).capacity(), 4u);
  EXPECT_EQ(SpscRing<int>(256).capacity(), 256u);
  EXPECT_EQ(SpscRing<int>(257).capacity(), 512u);
}

TEST(SpscRing, EmptyRingPopsNothing) {
  SpscRing<int> ring(4);
  int out = -1;
  EXPECT_FALSE(ring.try_pop(out));
  EXPECT_EQ(out, -1);
  EXPECT_EQ(ring.size_approx(), 0u);
}

TEST(SpscRing, FifoOrderAcrossManyWrapArounds) {
  SpscRing<std::uint64_t> ring(5);  // capacity 8
  ASSERT_EQ(ring.capacity(), 8u);
  std::uint64_t next_in = 0;
  std::uint64_t next_out = 0;
  // Vary the fill and drain counts every round so head and tail wrap at
  // every offset, including completely full rings.
  for (int round = 0; round < 1000; ++round) {
    const std::size_t fill = 1 + static_cast<std::size_t>(round) % 8;
    while (ring.size_approx() + fill > ring.capacity()) {
      std::uint64_t v = 0;
      ASSERT_TRUE(ring.try_pop(v));
      ASSERT_EQ(v, next_out++);
    }
    for (std::size_t i = 0; i < fill; ++i) ring.push(next_in++);
    EXPECT_EQ(ring.size_approx(), next_in - next_out);
    const std::size_t drain = static_cast<std::size_t>(round) % 3;
    for (std::size_t i = 0; i < drain && next_out < next_in; ++i) {
      std::uint64_t v = 0;
      ASSERT_TRUE(ring.try_pop(v));
      ASSERT_EQ(v, next_out++);
    }
  }
  std::uint64_t v = 0;
  while (ring.try_pop(v)) ASSERT_EQ(v, next_out++);
  EXPECT_EQ(next_out, next_in);
  EXPECT_GT(next_in, 100 * ring.capacity());
}

TEST(SpscRing, ProducerConsumerThreadsMoveMillionItemsInOrder) {
  constexpr std::uint64_t kItems = 1'000'000;
  SpscRing<std::uint64_t> ring(64);
  std::thread producer([&] {
    for (std::uint64_t i = 0; i < kItems; ++i) {
      // push() requires space; the engine guarantees it structurally,
      // this producer waits for the consumer instead.
      while (ring.size_approx() == ring.capacity()) std::this_thread::yield();
      ring.push(i);
    }
  });
  std::uint64_t expected = 0;
  bool in_order = true;
  while (expected < kItems) {
    std::uint64_t v = 0;
    if (!ring.try_pop(v)) {
      std::this_thread::yield();
      continue;
    }
    in_order = in_order && v == expected;
    ++expected;
  }
  producer.join();
  EXPECT_TRUE(in_order);
  std::uint64_t v = 0;
  EXPECT_FALSE(ring.try_pop(v));
}
