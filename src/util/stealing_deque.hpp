// Bounded single-producer / multi-consumer FIFO ring used by the sharded
// parallel MPSoC engine: the planner (single producer) feeds one deque per
// shard, the shard's own worker pops from it, and idle workers *steal*
// from other shards' deques through the same pop end. Per-slot sequence
// numbers (Vyukov-style bounded queue) make consumer races safe without a
// lock: a consumer that wins the head CAS owns the slot until it bumps the
// slot's sequence, so the producer can never overwrite an item mid-read.
//
// FIFO at the consumer end is load-bearing, not a convenience: items carry
// per-core turn tickets and an executor spins until its item's ticket
// matches the core's turn, so a stolen item must always be the *oldest*
// pending item of its shard -- stealing newest-first could hand a worker a
// successor whose predecessor is still queued, and both would wait forever.
//
// Contract: exactly ONE producer thread may call push/try_push; any number
// of consumer threads may call try_pop concurrently.
#ifndef SDMMON_UTIL_STEALING_DEQUE_HPP
#define SDMMON_UTIL_STEALING_DEQUE_HPP

#include <atomic>
#include <cstddef>
#include <utility>
#include <vector>

#include "util/backoff.hpp"

namespace sdmmon::util {

template <typename T>
class StealingDeque {
 public:
  /// Capacity is rounded up to the next power of two (minimum 2).
  explicit StealingDeque(std::size_t min_capacity) {
    std::size_t cap = 2;
    while (cap < min_capacity) cap <<= 1;
    slots_ = std::vector<Slot>(cap);
    for (std::size_t i = 0; i < cap; ++i) {
      slots_[i].seq.store(i, std::memory_order_relaxed);
    }
    mask_ = cap - 1;
  }

  StealingDeque(const StealingDeque&) = delete;
  StealingDeque& operator=(const StealingDeque&) = delete;

  std::size_t capacity() const { return slots_.size(); }

  /// Producer side. Returns false when the ring is full.
  bool try_push(T&& value) {
    const std::size_t pos = tail_.load(std::memory_order_relaxed);
    Slot& slot = slots_[pos & mask_];
    if (slot.seq.load(std::memory_order_acquire) != pos) return false;
    slot.value = std::move(value);
    slot.seq.store(pos + 1, std::memory_order_release);
    tail_.store(pos + 1, std::memory_order_relaxed);
    return true;
  }

  /// Producer side; blocks (yield, then short sleeps) until space frees up.
  void push(T value) {
    Backoff backoff;
    while (!try_push(std::move(value))) backoff.pause();
  }

  /// Consumer side (owner or stealer -- same end, oldest item first).
  /// Returns false when the ring is empty.
  bool try_pop(T& out) {
    std::size_t pos = head_.load(std::memory_order_relaxed);
    for (;;) {
      Slot& slot = slots_[pos & mask_];
      const std::size_t seq = slot.seq.load(std::memory_order_acquire);
      const auto diff = static_cast<std::ptrdiff_t>(seq) -
                        static_cast<std::ptrdiff_t>(pos + 1);
      if (diff == 0) {
        if (head_.compare_exchange_weak(pos, pos + 1,
                                        std::memory_order_relaxed)) {
          out = std::move(slot.value);
          slot.seq.store(pos + mask_ + 1, std::memory_order_release);
          return true;
        }
        // CAS updated pos to the current head; retry from there.
      } else if (diff < 0) {
        return false;  // slot not yet published: ring empty at this head
      } else {
        pos = head_.load(std::memory_order_relaxed);
      }
    }
  }

  /// Racy size estimate (exact only when all sides are quiescent); feeds
  /// the shard queue-depth histogram.
  std::size_t size_approx() const {
    const std::size_t tail = tail_.load(std::memory_order_acquire);
    const std::size_t head = head_.load(std::memory_order_acquire);
    return tail >= head ? tail - head : 0;
  }

 private:
  struct Slot {
    std::atomic<std::size_t> seq{0};
    T value{};
  };

  std::vector<Slot> slots_;
  std::size_t mask_ = 0;
  alignas(64) std::atomic<std::size_t> head_{0};  // consumers (CAS)
  alignas(64) std::atomic<std::size_t> tail_{0};  // single producer
};

}  // namespace sdmmon::util

#endif  // SDMMON_UTIL_STEALING_DEQUE_HPP
