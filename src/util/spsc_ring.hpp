// Bounded single-producer / single-consumer FIFO ring. The sharded
// parallel MPSoC engine keeps one per shard: whoever holds the engine's
// plan lock pushes, and the shard's worker pops (or the epoch coordinator,
// while that worker is parked). A role may change threads only across a
// happens-before edge (a mutex hand-off); at any instant there is at most
// one producer and one consumer.
//
// push() never waits: callers size the ring so that it cannot fill (the
// engine's reorder buffer bounds the queued items) and push() asserts it.
#ifndef SDMMON_UTIL_SPSC_RING_HPP
#define SDMMON_UTIL_SPSC_RING_HPP

#include <atomic>
#include <cassert>
#include <cstddef>
#include <utility>
#include <vector>

namespace sdmmon::util {

template <typename T>
class SpscRing {
 public:
  /// Capacity is rounded up to the next power of two (minimum 2).
  explicit SpscRing(std::size_t min_capacity) {
    std::size_t cap = 2;
    while (cap < min_capacity) cap <<= 1;
    items_.resize(cap);
    mask_ = cap - 1;
  }

  SpscRing(const SpscRing&) = delete;
  SpscRing& operator=(const SpscRing&) = delete;

  std::size_t capacity() const { return items_.size(); }

  /// Producer side. The ring must not be full.
  void push(T value) {
    const std::size_t tail = tail_.load(std::memory_order_relaxed);
    assert(tail - head_.load(std::memory_order_acquire) < items_.size());
    items_[tail & mask_] = std::move(value);
    tail_.store(tail + 1, std::memory_order_release);
  }

  /// Consumer side, oldest item first. Returns false when empty.
  bool try_pop(T& out) {
    const std::size_t head = head_.load(std::memory_order_relaxed);
    if (head == tail_.load(std::memory_order_acquire)) return false;
    out = std::move(items_[head & mask_]);
    head_.store(head + 1, std::memory_order_release);
    return true;
  }

  /// Racy size estimate (exact only when both sides are quiescent); feeds
  /// the shard queue-depth histogram.
  std::size_t size_approx() const {
    const std::size_t tail = tail_.load(std::memory_order_acquire);
    const std::size_t head = head_.load(std::memory_order_acquire);
    return tail >= head ? tail - head : 0;
  }

 private:
  std::vector<T> items_;
  std::size_t mask_ = 0;
  alignas(64) std::atomic<std::size_t> head_{0};  // consumer
  alignas(64) std::atomic<std::size_t> tail_{0};  // producer
};

}  // namespace sdmmon::util

#endif  // SDMMON_UTIL_SPSC_RING_HPP
