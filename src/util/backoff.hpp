// Spin-wait policy shared by the parallel engine's wait loops: idle
// workers polling their shard ring, the planner waiting for reorder-buffer
// space, and flush() waiting for the last fold.
#ifndef SDMMON_UTIL_BACKOFF_HPP
#define SDMMON_UTIL_BACKOFF_HPP

#include <chrono>
#include <thread>

namespace sdmmon::util {

/// Yield for a while, then sleep in short 50 us slices. Batch-granular
/// callers (the MPSoC engine moves hundreds of packets per wakeup) never
/// notice the worst-case ~50 us wakeup latency, and idle threads cost
/// ~no CPU -- which matters on hosts with fewer hardware threads than
/// workers, where a hot spin would take the cycles of the thread being
/// waited on.
struct Backoff {
  int spins = 0;
  void pause() {
    if (++spins < 64) {
      std::this_thread::yield();
    } else {
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
  }
  void reset() { spins = 0; }
};

}  // namespace sdmmon::util

#endif  // SDMMON_UTIL_BACKOFF_HPP
