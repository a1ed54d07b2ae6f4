// Named counters, gauges, and fixed-bucket latency/size histograms
// behind a thread-safe Registry. Design constraints, in order:
//
//  1. Near-zero hot-path cost. Metric objects are plain atomics;
//     instrumented code caches `Counter*`/`Histogram*` handles at
//     attach/install time, so the per-packet path never touches the
//     registry map, a mutex, or a string.
//  2. Deterministic where possible. Counters and value histograms carry
//     no wall-clock; two engines processing the same packet sequence
//     produce identical snapshots for the deterministic subset (the
//     serial-vs-parallel diff tests assert exactly this).
//  3. Detach at runtime. Instrumentation sites run only when an engine
//     has attached a registry; a detached engine pays one null check
//     per site.
//
// A registry owns its metrics for its lifetime: handles returned by
// counter()/gauge()/histogram() stay valid until the Registry is
// destroyed, and re-registering a name returns the same object.
#ifndef SDMMON_SRC_OBS_METRICS_HPP
#define SDMMON_SRC_OBS_METRICS_HPP

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "obs/journal.hpp"

namespace sdmmon::obs {

/// Monotonically increasing counter (relaxed atomics; exact totals).
class Counter {
 public:
  void add(std::uint64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  std::uint64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Last-write-wins signed level (queue depths, healthy-core counts).
class Gauge {
 public:
  void set(std::int64_t v) { value_.store(v, std::memory_order_relaxed); }
  void add(std::int64_t delta) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  std::int64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::int64_t> value_{0};
};

/// Fixed-bucket histogram over non-negative integer samples. Buckets are
/// defined by ascending inclusive upper bounds; a final overflow bucket
/// (+inf) is implicit. record(v) lands in the first bucket with
/// v <= bound. Also tracks count/sum/min/max exactly.
class Histogram {
 public:
  explicit Histogram(std::span<const std::uint64_t> upper_bounds);

  void record(std::uint64_t value);

  const std::vector<std::uint64_t>& bounds() const { return bounds_; }
  std::uint64_t bucket_count(std::size_t index) const {
    return buckets_[index].load(std::memory_order_relaxed);
  }
  std::size_t num_buckets() const { return buckets_.size(); }
  std::uint64_t count() const {
    return count_.load(std::memory_order_relaxed);
  }
  std::uint64_t sum() const { return sum_.load(std::memory_order_relaxed); }
  /// Valid only when count() > 0.
  std::uint64_t min() const { return min_.load(std::memory_order_relaxed); }
  std::uint64_t max() const { return max_.load(std::memory_order_relaxed); }

 private:
  std::vector<std::uint64_t> bounds_;
  std::vector<std::atomic<std::uint64_t>> buckets_;  // bounds.size() + 1
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
  std::atomic<std::uint64_t> min_{UINT64_MAX};
  std::atomic<std::uint64_t> max_{0};
};

/// Point-in-time copy of one histogram.
struct HistogramSnapshot {
  std::vector<std::uint64_t> bounds;
  std::vector<std::uint64_t> counts;  // bounds.size() + 1 (last = +inf)
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::uint64_t min = 0;  // valid when count > 0
  std::uint64_t max = 0;
};

/// Point-in-time copy of a whole registry, cheap to compare in tests.
struct Snapshot {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, std::int64_t> gauges;
  std::map<std::string, HistogramSnapshot> histograms;
  std::vector<Event> events;
  std::uint64_t events_recorded = 0;
  std::uint64_t events_evicted = 0;
};

class Registry {
 public:
  explicit Registry(std::size_t journal_capacity = 1024);

  /// Find-or-create. Returned references remain valid for the registry's
  /// lifetime; concurrent callers registering the same name race safely
  /// and observe the same object.
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  /// `upper_bounds` is consulted only on first registration.
  Histogram& histogram(std::string_view name,
                       std::span<const std::uint64_t> upper_bounds);

  EventJournal& journal() { return journal_; }
  const EventJournal& journal() const { return journal_; }

  /// Histogram-sampling period hint for instrumented subsystems: attach
  /// points read it once and record every Nth sample per site. Counters
  /// are never sampled. Must be >= 1.
  void set_sample_period(std::uint32_t period);
  std::uint32_t sample_period() const {
    return sample_period_.load(std::memory_order_relaxed);
  }

  Snapshot snapshot() const;
  /// The `metrics snapshot` JSON document (schema in docs/PROTOCOL.md,
  /// reading guide in docs/OBSERVABILITY.md).
  std::string snapshot_json() const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
  EventJournal journal_;
  std::atomic<std::uint32_t> sample_period_{1};
};

/// Canonical bucket edges, so the same quantity is bucketed identically
/// everywhere it is recorded.
std::span<const std::uint64_t> instruction_buckets();  // per-packet instrs
std::span<const std::uint64_t> width_buckets();        // NDFA set widths
std::span<const std::uint64_t> depth_buckets();        // queue/batch depths
std::span<const std::uint64_t> latency_ns_buckets();   // wall-clock ns

}  // namespace sdmmon::obs

#endif  // SDMMON_SRC_OBS_METRICS_HPP
