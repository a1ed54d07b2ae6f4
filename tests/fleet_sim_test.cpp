// Deterministic discrete-event scheduler tests: ordering (time, then
// insertion sequence), logical-clock advancement, bounded draining, and
// the splitmix64 seed derivation the whole fleet model hangs off.
#include "fleet/sim.hpp"

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "fleet/device_model.hpp"

namespace sdmmon::fleet {
namespace {

/// Records every event it receives, optionally scheduling follow-ups.
struct Recorder : SimActor {
  struct Seen {
    SimTime at;
    std::uint32_t kind;
    std::uint64_t a;
  };
  std::vector<Seen> seen;

  void on_event(Simulator& sim, const SimEvent& event) override {
    seen.push_back({sim.now(), event.kind, event.a});
  }
};

TEST(FleetSim, EventsFireInTimeOrder) {
  Simulator sim;
  Recorder rec;
  sim.schedule_at(30, &rec, 3);
  sim.schedule_at(10, &rec, 1);
  sim.schedule_at(20, &rec, 2);
  EXPECT_EQ(sim.run(), 3u);
  ASSERT_EQ(rec.seen.size(), 3u);
  EXPECT_EQ(rec.seen[0].kind, 1u);
  EXPECT_EQ(rec.seen[1].kind, 2u);
  EXPECT_EQ(rec.seen[2].kind, 3u);
  EXPECT_EQ(rec.seen[2].at, 30u);
  EXPECT_EQ(sim.now(), 30u);
}

TEST(FleetSim, TiesBreakByInsertionOrder) {
  Simulator sim;
  Recorder rec;
  for (std::uint64_t i = 0; i < 100; ++i) {
    sim.schedule_at(5, &rec, 7, i);
  }
  sim.run();
  ASSERT_EQ(rec.seen.size(), 100u);
  for (std::uint64_t i = 0; i < 100; ++i) {
    EXPECT_EQ(rec.seen[i].a, i);
  }
}

TEST(FleetSim, PastSchedulesClampToNow) {
  Simulator sim;
  Recorder rec;
  sim.schedule_at(50, &rec, 1);
  sim.run();
  EXPECT_EQ(sim.now(), 50u);
  sim.schedule_at(10, &rec, 2);  // in the past: fires at now()
  sim.run();
  ASSERT_EQ(rec.seen.size(), 2u);
  EXPECT_EQ(rec.seen[1].at, 50u);
}

/// Actor that reschedules itself forever -- run(max) must stop it.
struct Perpetual : SimActor {
  void on_event(Simulator& sim, const SimEvent&) override {
    sim.schedule_in(1, this, 1);
  }
};

TEST(FleetSim, RunBoundsRunawaySimulations) {
  Simulator sim;
  Perpetual p;
  sim.schedule_at(0, &p, 1);
  EXPECT_EQ(sim.run(1000), 1000u);
  EXPECT_EQ(sim.events_pending(), 1u);
}

TEST(FleetSim, MixSeedSeparatesStreams) {
  // Derived seeds must differ across salts and across base seeds, and be
  // reproducible.
  std::set<std::uint64_t> derived;
  for (std::uint64_t salt = 0; salt < 1000; ++salt) {
    derived.insert(mix_seed(0x1234, salt));
  }
  EXPECT_EQ(derived.size(), 1000u);
  EXPECT_EQ(mix_seed(42, 7), mix_seed(42, 7));
  EXPECT_NE(mix_seed(42, 7), mix_seed(43, 7));
}

TEST(FleetSim, ModeledDeviceDrawsAreDeterministic) {
  ModeledDevice a{.seed = mix_seed(9, 1)};
  ModeledDevice b{.seed = mix_seed(9, 1)};
  for (int i = 0; i < 64; ++i) {
    double va = a.uniform();
    EXPECT_EQ(va, b.uniform());
    EXPECT_GE(va, 0.0);
    EXPECT_LT(va, 1.0);
  }
  // A different device id gives an uncorrelated stream.
  ModeledDevice c{.seed = mix_seed(9, 2)};
  EXPECT_NE(a.uniform(), c.uniform());
}

}  // namespace
}  // namespace sdmmon::fleet
