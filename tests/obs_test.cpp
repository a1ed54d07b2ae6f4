// Unit tests for the observability layer (src/obs): registry
// thread-safety under concurrent writers, histogram bucket-edge
// semantics, journal bounded-capacity eviction, and snapshot-JSON
// round-tripping through the test-support parser.
#include "obs/obs.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "support/json_value.hpp"

namespace sdmmon::obs {
namespace {

using testsupport::JsonValue;

// ---------------------------------------------------------------------
// Counters / gauges / registry identity
// ---------------------------------------------------------------------

TEST(ObsRegistry, FindOrCreateReturnsSameObject) {
  Registry reg;
  Counter& a = reg.counter("x");
  Counter& b = reg.counter("x");
  EXPECT_EQ(&a, &b);
  a.add(3);
  EXPECT_EQ(b.value(), 3u);

  Gauge& g1 = reg.gauge("depth");
  Gauge& g2 = reg.gauge("depth");
  EXPECT_EQ(&g1, &g2);

  Histogram& h1 = reg.histogram("h", width_buckets());
  Histogram& h2 = reg.histogram("h", instruction_buckets());  // ignored
  EXPECT_EQ(&h1, &h2);
  EXPECT_EQ(h2.bounds().size(), width_buckets().size());
}

TEST(ObsRegistry, GaugeSetAndSignedAdd) {
  Registry reg;
  Gauge& g = reg.gauge("level");
  g.set(4);
  g.add(-6);
  EXPECT_EQ(g.value(), -2);
}

TEST(ObsRegistry, ConcurrentWritersProduceExactTotals) {
  // The exactness contract: counters are atomics, the registry map is
  // mutex-guarded, so N threads hammering overlapping names lose no
  // updates and find-or-create never duplicates an object.
  Registry reg;
  constexpr int kThreads = 8;
  constexpr int kIters = 5000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&reg, t] {
      Counter& shared = reg.counter("shared");
      Counter& own = reg.counter("own." + std::to_string(t));
      Histogram& hist = reg.histogram("hist", width_buckets());
      for (int i = 0; i < kIters; ++i) {
        shared.add(1);
        own.add(2);
        hist.record(static_cast<std::uint64_t>(i % 40));
        reg.journal().record({EventKind::Trap, static_cast<std::uint64_t>(i),
                              static_cast<std::uint32_t>(t), 0, 0});
      }
    });
  }
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(reg.counter("shared").value(),
            static_cast<std::uint64_t>(kThreads) * kIters);
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(reg.counter("own." + std::to_string(t)).value(),
              static_cast<std::uint64_t>(kIters) * 2);
  }
  const Histogram& hist = reg.histogram("hist", width_buckets());
  EXPECT_EQ(hist.count(), static_cast<std::uint64_t>(kThreads) * kIters);
  std::uint64_t bucket_total = 0;
  for (std::size_t b = 0; b < hist.num_buckets(); ++b) {
    bucket_total += hist.bucket_count(b);
  }
  EXPECT_EQ(bucket_total, hist.count());
  EXPECT_EQ(reg.journal().recorded(),
            static_cast<std::uint64_t>(kThreads) * kIters);
}

// ---------------------------------------------------------------------
// Histogram bucket edges
// ---------------------------------------------------------------------

TEST(ObsHistogram, InclusiveUpperBoundsAndOverflowBucket) {
  const std::uint64_t bounds[] = {10, 20, 40};
  Histogram h{std::span<const std::uint64_t>(bounds)};
  ASSERT_EQ(h.num_buckets(), 4u);  // 3 bounds + overflow

  h.record(0);    // <= 10
  h.record(10);   // <= 10 (inclusive edge)
  h.record(11);   // <= 20
  h.record(20);   // <= 20 (inclusive edge)
  h.record(40);   // <= 40
  h.record(41);   // overflow
  h.record(1000); // overflow

  EXPECT_EQ(h.bucket_count(0), 2u);
  EXPECT_EQ(h.bucket_count(1), 2u);
  EXPECT_EQ(h.bucket_count(2), 1u);
  EXPECT_EQ(h.bucket_count(3), 2u);
  EXPECT_EQ(h.count(), 7u);
  EXPECT_EQ(h.sum(), 0u + 10 + 11 + 20 + 40 + 41 + 1000);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 1000u);
}

TEST(ObsHistogram, RejectsUnsortedBounds) {
  const std::uint64_t bad[] = {10, 10, 20};
  EXPECT_THROW(Histogram{std::span<const std::uint64_t>(bad)},
               std::invalid_argument);
  const std::uint64_t bad2[] = {20, 10};
  EXPECT_THROW(Histogram{std::span<const std::uint64_t>(bad2)},
               std::invalid_argument);
}

TEST(ObsHistogram, CanonicalBucketSetsAreSorted) {
  for (auto buckets : {instruction_buckets(), width_buckets(),
                       depth_buckets(), latency_ns_buckets()}) {
    ASSERT_FALSE(buckets.empty());
    for (std::size_t i = 1; i < buckets.size(); ++i) {
      EXPECT_LT(buckets[i - 1], buckets[i]);
    }
  }
}

// ---------------------------------------------------------------------
// Event journal
// ---------------------------------------------------------------------

TEST(ObsJournal, BoundedCapacityEvictsOldestFirst) {
  EventJournal journal(4);
  for (std::uint64_t i = 0; i < 10; ++i) {
    journal.record({EventKind::Install, i, 0, 0, i});
  }
  EXPECT_EQ(journal.recorded(), 10u);
  EXPECT_EQ(journal.evicted(), 6u);

  std::vector<Event> events = journal.events();
  ASSERT_EQ(events.size(), 4u);
  for (std::size_t i = 0; i < events.size(); ++i) {
    // Oldest-first, and only the newest 4 survive: cycles 6, 7, 8, 9.
    EXPECT_EQ(events[i].cycle, 6u + i);
  }
}

TEST(ObsJournal, EventKindNamesAreDistinct) {
  const EventKind kinds[] = {
      EventKind::Install,    EventKind::Reinstall,
      EventKind::Quarantine, EventKind::Release,
      EventKind::AttackDetected, EventKind::Trap,
      EventKind::CampaignFailure};
  std::vector<std::string> names;
  for (EventKind k : kinds) names.emplace_back(event_kind_name(k));
  for (std::size_t i = 0; i < names.size(); ++i) {
    for (std::size_t j = i + 1; j < names.size(); ++j) {
      EXPECT_NE(names[i], names[j]);
    }
  }
}

// ---------------------------------------------------------------------
// JSON writer / parser round trip
// ---------------------------------------------------------------------

TEST(ObsJson, WriterEscapesStrings) {
  JsonWriter w;
  w.begin_object().key("s").value("a\"b\\c\n\t\x01").end_object();
  JsonValue v = JsonValue::parse(w.str());
  EXPECT_EQ(v.at("s").as_string(), "a\"b\\c\n\t\x01");
}

TEST(ObsJson, ParserKeepsIntegersExact) {
  // Counters can exceed double's 2^53 mantissa; the parser must keep
  // integral lexemes as int64.
  JsonValue v = JsonValue::parse("{\"big\": 9007199254740995}");
  EXPECT_EQ(v.at("big").as_int(), 9007199254740995LL);
}

TEST(ObsJson, ParserRejectsMalformedInput) {
  EXPECT_THROW(JsonValue::parse("{"), std::runtime_error);
  EXPECT_THROW(JsonValue::parse("[1,]"), std::runtime_error);
  EXPECT_THROW(JsonValue::parse("{\"a\":1} trailing"), std::runtime_error);
  EXPECT_THROW(JsonValue::parse("nul"), std::runtime_error);
}

TEST(ObsJson, SnapshotJsonRoundTrips) {
  Registry reg(/*journal_capacity=*/16);
  reg.counter("np.core.packets.0").add(41);
  reg.counter("np.core.packets.0").add(1);
  reg.gauge("np.engine.healthy_cores").set(3);
  Histogram& h = reg.histogram("np.core.ndfa_width.0", width_buckets());
  h.record(1);
  h.record(5);
  h.record(100);
  reg.journal().record({EventKind::AttackDetected, 7, 2, 1, 3});
  reg.journal().record({EventKind::Quarantine, 8, 2, 1, 3});

  const std::string text = reg.snapshot_json();
  JsonValue doc = JsonValue::parse(text);

  EXPECT_EQ(doc.at("schema").as_int(), 1);
  EXPECT_EQ(doc.at("counters").at("np.core.packets.0").as_int(), 42);
  EXPECT_EQ(doc.at("gauges").at("np.engine.healthy_cores").as_int(), 3);

  const JsonValue& hist = doc.at("histograms").at("np.core.ndfa_width.0");
  EXPECT_EQ(hist.at("count").as_int(), 3);
  EXPECT_EQ(hist.at("sum").as_int(), 106);
  EXPECT_EQ(hist.at("min").as_int(), 1);
  EXPECT_EQ(hist.at("max").as_int(), 100);
  ASSERT_EQ(hist.at("bounds").size(), width_buckets().size());
  // counts has one extra bucket (overflow), and 100 > max bound (32).
  ASSERT_EQ(hist.at("counts").size(), width_buckets().size() + 1);
  EXPECT_EQ(hist.at("counts")[hist.at("counts").size() - 1].as_int(), 1);

  ASSERT_EQ(doc.at("events").size(), 2u);
  const JsonValue& ev = doc.at("events")[0];
  EXPECT_EQ(ev.at("kind").as_string(),
            event_kind_name(EventKind::AttackDetected));
  EXPECT_EQ(ev.at("cycle").as_int(), 7);
  EXPECT_EQ(ev.at("core").as_int(), 2);
  EXPECT_EQ(ev.at("device").as_int(), 1);
  EXPECT_EQ(ev.at("arg").as_int(), 3);
  EXPECT_EQ(doc.at("events_recorded").as_int(), 2);
  EXPECT_EQ(doc.at("events_evicted").as_int(), 0);

  // The snapshot() struct agrees with the JSON document.
  Snapshot snap = reg.snapshot();
  EXPECT_EQ(snap.counters.at("np.core.packets.0"), 42u);
  EXPECT_EQ(snap.gauges.at("np.engine.healthy_cores"), 3);
  EXPECT_EQ(snap.histograms.at("np.core.ndfa_width.0").count, 3u);
  EXPECT_EQ(snap.events.size(), 2u);
}

}  // namespace
}  // namespace sdmmon::obs
