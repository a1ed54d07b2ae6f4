// Umbrella header for the observability layer. Instrumented code follows
// one pattern:
//
//   if (obs_ != nullptr) obs_->on_commit(result);   // cached handles
//
// i.e. a single null check around atomics on cached pointers -- no
// strings, no locks, no registry lookups on the packet path. The pointer
// is null until the engine is attached to a registry, so a detached
// engine pays the check and nothing else. docs/OBSERVABILITY.md measures
// the cost of each layer.
#ifndef SDMMON_SRC_OBS_OBS_HPP
#define SDMMON_SRC_OBS_OBS_HPP

#include <chrono>
#include <exception>

#include "obs/journal.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/names.hpp"

namespace sdmmon::obs {

/// Records elapsed wall-clock nanoseconds into a histogram on
/// destruction. Pass nullptr to make it a no-op (the start timestamp is
/// still taken; only use on cold paths like reinstalls). A scope left by
/// an exception records nothing: a stage that threw produced nothing for
/// the histogram to time.
class ScopedTimerNs {
 public:
  explicit ScopedTimerNs(Histogram* sink)
      : sink_(sink),
        exceptions_(std::uncaught_exceptions()),
        start_(std::chrono::steady_clock::now()) {}
  ~ScopedTimerNs() {
    if (sink_ == nullptr || std::uncaught_exceptions() > exceptions_) return;
    const auto elapsed = std::chrono::steady_clock::now() - start_;
    sink_->record(static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed)
            .count()));
  }
  ScopedTimerNs(const ScopedTimerNs&) = delete;
  ScopedTimerNs& operator=(const ScopedTimerNs&) = delete;

 private:
  Histogram* sink_;
  int exceptions_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace sdmmon::obs

#endif  // SDMMON_SRC_OBS_OBS_HPP
