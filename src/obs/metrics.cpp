#include "obs/metrics.hpp"

#include <algorithm>
#include <functional>
#include <stdexcept>

namespace sdmmon::obs {

Histogram::Histogram(std::span<const std::uint64_t> upper_bounds)
    : bounds_(upper_bounds.begin(), upper_bounds.end()),
      buckets_(upper_bounds.size() + 1) {
  if (std::adjacent_find(bounds_.begin(), bounds_.end(),
                         std::greater_equal<std::uint64_t>()) !=
      bounds_.end()) {
    throw std::invalid_argument(
        "histogram bounds must be strictly ascending");
  }
}

void Histogram::record(std::uint64_t value) {
  // Buckets are few (<= ~20); linear scan beats binary search at this
  // size and stays branch-predictable for clustered samples.
  std::size_t index = bounds_.size();
  for (std::size_t i = 0; i < bounds_.size(); ++i) {
    if (value <= bounds_[i]) {
      index = i;
      break;
    }
  }
  buckets_[index].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(value, std::memory_order_relaxed);
  std::uint64_t seen = min_.load(std::memory_order_relaxed);
  while (value < seen &&
         !min_.compare_exchange_weak(seen, value,
                                     std::memory_order_relaxed)) {
  }
  seen = max_.load(std::memory_order_relaxed);
  while (value > seen &&
         !max_.compare_exchange_weak(seen, value,
                                     std::memory_order_relaxed)) {
  }
}

Registry::Registry(std::size_t journal_capacity)
    : journal_(journal_capacity) {}

Counter& Registry::counter(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), std::make_unique<Counter>())
             .first;
  }
  return *it->second;
}

Gauge& Registry::gauge(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(std::string(name), std::make_unique<Gauge>())
             .first;
  }
  return *it->second;
}

Histogram& Registry::histogram(std::string_view name,
                               std::span<const std::uint64_t> upper_bounds) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_
             .emplace(std::string(name),
                      std::make_unique<Histogram>(upper_bounds))
             .first;
  }
  return *it->second;
}

void Registry::set_sample_period(std::uint32_t period) {
  sample_period_.store(std::max<std::uint32_t>(period, 1),
                       std::memory_order_relaxed);
}

Snapshot Registry::snapshot() const {
  Snapshot snap;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [name, c] : counters_) {
      snap.counters.emplace(name, c->value());
    }
    for (const auto& [name, g] : gauges_) {
      snap.gauges.emplace(name, g->value());
    }
    for (const auto& [name, h] : histograms_) {
      HistogramSnapshot hs;
      hs.bounds = h->bounds();
      hs.counts.reserve(h->num_buckets());
      for (std::size_t i = 0; i < h->num_buckets(); ++i) {
        hs.counts.push_back(h->bucket_count(i));
      }
      hs.count = h->count();
      hs.sum = h->sum();
      if (hs.count > 0) {
        hs.min = h->min();
        hs.max = h->max();
      }
      snap.histograms.emplace(name, std::move(hs));
    }
  }
  snap.events = journal_.events();
  snap.events_recorded = journal_.recorded();
  snap.events_evicted = journal_.evicted();
  return snap;
}

std::string Registry::snapshot_json() const {
  const Snapshot snap = snapshot();
  JsonWriter w;
  w.begin_object();
  w.key("schema").value(1);
  w.key("counters").begin_object();
  for (const auto& [name, v] : snap.counters) {
    w.key(name).value(v);
  }
  w.end_object();
  w.key("gauges").begin_object();
  for (const auto& [name, v] : snap.gauges) {
    w.key(name).value(v);
  }
  w.end_object();
  w.key("histograms").begin_object();
  for (const auto& [name, h] : snap.histograms) {
    w.key(name).begin_object();
    w.key("bounds").begin_array();
    for (std::uint64_t b : h.bounds) w.value(b);
    w.end_array();
    w.key("counts").begin_array();
    for (std::uint64_t c : h.counts) w.value(c);
    w.end_array();
    w.key("count").value(h.count);
    w.key("sum").value(h.sum);
    w.key("min").value(h.min);
    w.key("max").value(h.max);
    w.end_object();
  }
  w.end_object();
  w.key("events");
  journal_.append_json(w);
  w.key("events_recorded").value(snap.events_recorded);
  w.key("events_evicted").value(snap.events_evicted);
  w.end_object();
  return w.str();
}

namespace {
// Canonical edges. Instructions: packet handlers run tens to a few
// thousand instructions. Widths: the NFA rarely tracks more than a
// handful of nodes. Depths: shard-queue depths, bounded by the parallel
// engine's in-flight window (batch_size). Latency:
// log-spaced 1us .. 1s.
constexpr std::uint64_t kInstr[] = {16,   32,   64,    128,   256,  512,
                                    1024, 2048, 4096,  8192,  16384};
constexpr std::uint64_t kWidth[] = {1, 2, 3, 4, 6, 8, 12, 16, 32};
constexpr std::uint64_t kDepth[] = {0, 1, 2, 4, 8, 16, 32, 64, 128, 256,
                                    512, 1024};
constexpr std::uint64_t kLatNs[] = {1000,      4000,      16000,
                                    64000,     256000,    1000000,
                                    4000000,   16000000,  64000000,
                                    256000000, 1000000000};
}  // namespace

std::span<const std::uint64_t> instruction_buckets() { return kInstr; }
std::span<const std::uint64_t> width_buckets() { return kWidth; }
std::span<const std::uint64_t> depth_buckets() { return kDepth; }
std::span<const std::uint64_t> latency_ns_buckets() { return kLatNs; }

}  // namespace sdmmon::obs
