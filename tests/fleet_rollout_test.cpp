// Fleet-service rollout tests: staged waves over modeled fleets, the
// automatic-halt controller under a poisoned release (the acceptance
// scenario: >=10^5 devices, <5% blast radius, exact deterministic
// counts), correlated regional outages, slow-roll behavior changes timed
// against a rotation, recovery after a halt, and the concrete-device
// sample running the real install/monitor/quarantine path end to end.
#include "fleet/service.hpp"

#include <gtest/gtest.h>

#include <set>

#include "isa/assembler.hpp"
#include "obs/obs.hpp"
#include "support/test_apps.hpp"
#include "support/test_params.hpp"

namespace sdmmon::fleet {
namespace {

// A release with no concrete binary: the fleet stays fully modeled.
Release modeled_release(std::uint32_t version, ReleaseBehavior behavior) {
  Release release;
  release.version = version;
  release.app_name = "app-v" + std::to_string(version);
  release.behavior = behavior;
  return release;
}

ReleaseBehavior clean_behavior() {
  ReleaseBehavior behavior;
  behavior.loss_rate = 0.02;
  behavior.install_ms = 1500;
  behavior.bake_ms = 20'000;
  return behavior;
}

ReleaseBehavior poisoned_behavior() {
  ReleaseBehavior behavior = clean_behavior();
  behavior.quarantine_rate = 0.5;  // monitors flag half the installs
  return behavior;
}

// ---------------------------------------------------------------------
// Clean staged rollout
// ---------------------------------------------------------------------

TEST(FleetRollout, CleanRolloutConvergesThroughAllWaves) {
  Simulator sim;
  FleetConfig config;
  config.devices = 20'000;
  config.seed = 0xC1EA7;
  FleetService service(sim, config);
  service.start_rollout(modeled_release(1, clean_behavior()));
  sim.run();

  ASSERT_TRUE(service.rollout_done());
  RolloutReport report = service.report();
  EXPECT_FALSE(report.halted);
  ASSERT_EQ(report.waves.size(), 4u);
  std::size_t targeted = 0;
  for (const WaveStats& wave : report.waves) {
    EXPECT_EQ(wave.terminal(), wave.targeted);
    targeted += wave.targeted;
  }
  EXPECT_EQ(targeted, 20'000u);
  // Deterministic: the seeded run always converges identically.
  EXPECT_EQ(report.health.healthy + report.health.unreachable, 20'000u);
  EXPECT_EQ(report.health.unreachable, 0u);
  EXPECT_TRUE(report.reached_t90);
  EXPECT_EQ(report.t90_ms, 404'030u);
  EXPECT_GT(report.health_score, 99.0);
}

TEST(FleetRollout, ChannelsPartitionDeterministically) {
  Simulator sim;
  FleetConfig config;
  config.devices = 10'000;
  FleetService service(sim, config);
  service.start_rollout(modeled_release(1, clean_behavior()));

  std::size_t canary = 0, beta = 0, stable = 0;
  for (std::size_t id = 0; id < service.device_count(); ++id) {
    const ModeledDevice& dev = service.device(id);
    switch (dev.channel) {
      case ReleaseChannel::Canary: ++canary; break;
      case ReleaseChannel::Beta: ++beta; break;
      case ReleaseChannel::Stable: ++stable; break;
    }
    // The first wave (1% by rank) lies inside the canary channel (5%).
    if (dev.wave == 0) {
      EXPECT_EQ(dev.channel, ReleaseChannel::Canary) << "device " << id;
    }
  }
  EXPECT_EQ(canary, 519u);
  EXPECT_EQ(beta, 1'962u);
  EXPECT_EQ(canary + beta + stable, 10'000u);
}

// ---------------------------------------------------------------------
// Poisoned release: the acceptance halt demo at 10^5 devices
// ---------------------------------------------------------------------

TEST(FleetRollout, PoisonedReleaseHaltsWithBoundedBlastRadius) {
  Simulator sim;
  FleetConfig config;
  config.devices = 100'000;
  config.seed = 0xBAD5EED;
  FleetService service(sim, config);
  service.start_rollout(modeled_release(2, poisoned_behavior()));
  sim.run();

  ASSERT_TRUE(service.rollout_done());
  RolloutReport report = service.report();
  ASSERT_TRUE(report.halted);
  EXPECT_EQ(report.halt_reason, HaltReason::QuarantineRate);
  // Canary wave catches it: the halt fires in wave 0.
  EXPECT_EQ(report.halted_wave, 0u);
  // Blast radius: far fewer than 5% of the fleet activated the release.
  EXPECT_LT(report.affected, 5'000u);
  // Every affected device was rolled back to last-good; exact counts are
  // pinned -- the seeded run replays bit-for-bit.
  EXPECT_EQ(report.affected, 86u);
  EXPECT_EQ(report.rollbacks, report.affected);
  EXPECT_EQ(report.halt_time_ms, 7'002u);
  EXPECT_EQ(report.halt_detect_ms, 7'002u);
  EXPECT_EQ(report.health.rolled_back, report.rollbacks);
  EXPECT_EQ(report.health.quarantined, 0u);  // quarantined devices re-imaged

  // Rolled-back devices run their previous (factory) version again.
  std::size_t rolled = 0;
  for (std::size_t id = 0; id < service.device_count(); ++id) {
    const ModeledDevice& dev = service.device(id);
    EXPECT_NE(dev.state, DeviceState::Quarantined);
    if (dev.state == DeviceState::RolledBack) {
      ++rolled;
      EXPECT_EQ(dev.version, 0u) << "device " << id;
    }
  }
  EXPECT_EQ(rolled, report.rollbacks);
}

TEST(FleetRollout, PoisonedRolloutReplaysBitForBit) {
  auto run = [] {
    Simulator sim;
    FleetConfig config;
    config.devices = 30'000;
    config.seed = 0xD17E;
    FleetService service(sim, config);
    service.start_rollout(modeled_release(2, poisoned_behavior()));
    sim.run();
    return service.report();
  };
  RolloutReport a = run();
  RolloutReport b = run();
  EXPECT_EQ(a.halted, b.halted);
  EXPECT_EQ(a.halt_time_ms, b.halt_time_ms);
  EXPECT_EQ(a.affected, b.affected);
  EXPECT_EQ(a.rollbacks, b.rollbacks);
  ASSERT_EQ(a.waves.size(), b.waves.size());
  for (std::size_t w = 0; w < a.waves.size(); ++w) {
    EXPECT_EQ(a.waves[w].installed, b.waves[w].installed);
    EXPECT_EQ(a.waves[w].quarantined, b.waves[w].quarantined);
  }
}

TEST(FleetRollout, FixedReleaseConvergesAfterHalt) {
  Simulator sim;
  FleetConfig config;
  config.devices = 5'000;
  FleetService service(sim, config);
  service.start_rollout(modeled_release(2, poisoned_behavior()));
  sim.run();
  ASSERT_TRUE(service.report().halted);

  // Ship the fixed build: every device (rolled-back ones included) is
  // re-targeted and the fleet converges.
  service.start_rollout(modeled_release(3, clean_behavior()));
  sim.run();
  RolloutReport report = service.report();
  EXPECT_FALSE(report.halted);
  EXPECT_EQ(report.health.rolled_back, 0u);
  EXPECT_EQ(report.health.healthy + report.health.unreachable, 5'000u);
  for (std::size_t id = 0; id < service.device_count(); ++id) {
    const ModeledDevice& dev = service.device(id);
    if (dev.state == DeviceState::Healthy) {
      EXPECT_EQ(dev.version, 3u);
    }
  }
}

// ---------------------------------------------------------------------
// Correlated failures
// ---------------------------------------------------------------------

TEST(FleetRollout, RegionalOutageIsNotMisreadAsBadRelease) {
  Simulator sim;
  FleetConfig config;
  config.devices = 4'000;
  config.regions = 4;
  FleetService service(sim, config);
  // Region 1's management plane is dark for the whole campaign.
  Outage outage;
  outage.region = 1;
  outage.start_ms = 0;
  outage.end_ms = 100'000'000;
  service.schedule_outage(outage);
  service.start_rollout(modeled_release(1, clean_behavior()));
  sim.run();

  RolloutReport report = service.report();
  // Devices behind the outage exhaust their retry schedule and land in
  // Unreachable -- which must NOT trip the halt controller: the release
  // is fine, the region is not.
  EXPECT_FALSE(report.halted);
  EXPECT_EQ(report.health.unreachable, 1'025u);
  EXPECT_EQ(report.health.healthy + report.health.unreachable, 4'000u);
  for (std::size_t id = 0; id < service.device_count(); ++id) {
    const ModeledDevice& dev = service.device(id);
    if (dev.state == DeviceState::Unreachable) {
      EXPECT_EQ(dev.region, 1u) << "device " << id;
    }
  }
}

TEST(FleetRollout, SlowRollAttackAgainstRotationIsCaughtMidBake) {
  Simulator sim;
  FleetConfig config;
  config.devices = 5'000;
  FleetService service(sim, config);
  // Baseline release converges fleet-wide.
  service.start_rollout(modeled_release(1, clean_behavior()));
  sim.run();
  ASSERT_FALSE(service.report().halted);
  const SimTime rotation_start = sim.now();

  // Parameter-rotation campaign (modeled as a re-keyed release). The
  // release behaves clean while the canary wave bakes, then turns
  // hostile -- the classic slow-roll timed to land after early waves
  // look good. Behavior is re-read every bake slice, so devices already
  // baking catch it.
  ReleaseBehavior hostile = clean_behavior();
  hostile.quarantine_rate = 0.8;
  service.start_rollout(modeled_release(2, clean_behavior()));
  service.schedule_behavior_change(rotation_start + 150'000, hostile);
  sim.run();

  RolloutReport report = service.report();
  ASSERT_TRUE(report.halted);
  EXPECT_EQ(report.halt_reason, HaltReason::QuarantineRate);
  // The attack deliberately waited out the canary wave...
  EXPECT_GT(report.halted_wave, 0u);
  EXPECT_GE(report.halt_time_ms, rotation_start + 150'000);
  // ...but the halt still bounded the blast radius and rolled back every
  // device that had activated the rotation.
  EXPECT_EQ(report.halted_wave, 1u);
  EXPECT_EQ(report.affected, 328u);
  EXPECT_EQ(report.rollbacks, report.affected);
  // Rolled-back devices are on the pre-rotation version again.
  for (std::size_t id = 0; id < service.device_count(); ++id) {
    const ModeledDevice& dev = service.device(id);
    if (dev.state == DeviceState::RolledBack) {
      EXPECT_EQ(dev.version, 1u);
    }
  }
}

TEST(FleetRollout, RejectionStormHaltsRollout) {
  Simulator sim;
  FleetConfig config;
  config.devices = 20'000;
  FleetService service(sim, config);
  // A release sealed with a broken operator certificate class: devices
  // permanently reject a third of deliveries.
  ReleaseBehavior bad = clean_behavior();
  bad.reject_rate = 0.33;
  service.start_rollout(modeled_release(2, bad));
  sim.run();

  RolloutReport report = service.report();
  ASSERT_TRUE(report.halted);
  EXPECT_EQ(report.halt_reason, HaltReason::RejectionRate);
  EXPECT_EQ(report.halted_wave, 0u);
  EXPECT_LT(report.affected, 1'000u);  // blast radius: canary only
}

// ---------------------------------------------------------------------
// Concrete sample: the real protocol under the fleet service
// ---------------------------------------------------------------------

struct ConcreteFleet {
  Simulator sim;
  FleetConfig config;
  std::unique_ptr<FleetService> service;

  ConcreteFleet() {
    config.devices = 4;
    config.concrete_sample = 2;
    config.concrete_cores = 2;
    config.concrete_key_bits = testsupport::kTestKeyBits;
    config.wave_fractions = {1.0};
    config.wave_ramp_ms = 4'000;
    config.halt.min_sample = 2;
    config.halt.max_quarantine_rate = 0.25;
    config.attack_packet = testsupport::attack_packet();
    service = std::make_unique<FleetService>(sim, config);
  }

  Release echo_release() {
    Release release;
    release.version = 1;
    release.app_name = "echo-app";
    release.binary = isa::assemble(testsupport::kEchoApp);
    release.binary.name = "echo-app";
    release.behavior = clean_behavior();
    release.behavior.loss_rate = 0;
    return release;
  }

  Release vuln_release() {
    Release release;
    release.version = 2;
    release.app_name = "vuln-app";
    release.binary = isa::assemble(testsupport::kVulnApp);
    release.binary.name = "vuln-app";
    release.behavior = clean_behavior();
    release.behavior.loss_rate = 0;
    // Modeled peers stay clean: only the concrete monitors' verdicts
    // drive the halt in this scenario.
    release.concrete_attack_rate = 1.0;
    return release;
  }
};

TEST(FleetRolloutConcrete, RealDevicesInstallQuarantineAndRollBack) {
  ConcreteFleet fleet;
  // Baseline: the echo release installs for real on the concrete pair.
  fleet.service->start_rollout(fleet.echo_release());
  fleet.sim.run();
  ASSERT_FALSE(fleet.service->report().halted);
  for (std::size_t slot = 0; slot < fleet.service->concrete_count();
       ++slot) {
    protocol::NetworkProcessorDevice& device =
        fleet.service->concrete_device(slot);
    EXPECT_TRUE(device.has_application());
    EXPECT_EQ(device.application_name(), "echo-app");
  }

  // Poisoned build: probe traffic is pure attack packets, the vulnerable
  // app executes them, the monitors flag every one, QuarantineAfterK
  // isolates the cores -- and the fleet controller halts on the *real*
  // quarantine verdicts, then re-images last-good over the real channel.
  fleet.service->start_rollout(fleet.vuln_release());
  fleet.sim.run();
  RolloutReport report = fleet.service->report();
  ASSERT_TRUE(report.halted);
  EXPECT_EQ(report.halt_reason, HaltReason::QuarantineRate);
  EXPECT_EQ(report.rollbacks, report.affected);
  EXPECT_GE(report.rollbacks, 2u);

  for (std::size_t slot = 0; slot < fleet.service->concrete_count();
       ++slot) {
    protocol::NetworkProcessorDevice& device =
        fleet.service->concrete_device(slot);
    const ModeledDevice& dev = fleet.service->device(slot);
    EXPECT_EQ(dev.state, DeviceState::RolledBack);
    EXPECT_EQ(dev.version, 1u);
    // Rollback really re-imaged last-good: the echo app is live again
    // and every core is back in service.
    EXPECT_EQ(device.application_name(), "echo-app");
    np::MpsocStats stats = device.mpsoc().aggregate_stats();
    EXPECT_EQ(stats.quarantined_cores, 0u);
    EXPECT_GE(stats.quarantine_events, 1u);  // the attack left a record
    EXPECT_GE(stats.attacks_detected, 1u);
  }
}

// ---------------------------------------------------------------------
// Health score + observability
// ---------------------------------------------------------------------

TEST(FleetHealthScore, FormulaIsExplainable) {
  FleetHealth perfect{.devices = 100, .healthy = 100};
  EXPECT_DOUBLE_EQ(fleet_health_score(perfect), 100.0);

  FleetHealth empty;
  EXPECT_DOUBLE_EQ(fleet_health_score(empty), 100.0);

  // Quarantines are weighted far harder than delivery failures.
  FleetHealth quarantined{.devices = 100, .healthy = 98, .quarantined = 2};
  FleetHealth unreachable{.devices = 100, .healthy = 98, .unreachable = 2};
  EXPECT_LT(fleet_health_score(quarantined),
            fleet_health_score(unreachable));
  EXPECT_DOUBLE_EQ(fleet_health_score(quarantined), 94.0);
  EXPECT_DOUBLE_EQ(fleet_health_score(unreachable), 97.5);

  // Mid-rollout: in-flight devices read as converging, not broken.
  FleetHealth rolling{.devices = 100, .healthy = 50, .in_flight = 50};
  EXPECT_DOUBLE_EQ(fleet_health_score(rolling), 75.0);

  // Score clamps instead of going negative.
  FleetHealth disaster{.devices = 10, .quarantined = 10};
  EXPECT_DOUBLE_EQ(fleet_health_score(disaster), 0.0);
}

TEST(FleetRolloutObs, GaugesCountersAndJournalTrackTheRollout) {
  Simulator sim;
  obs::Registry registry;
  FleetConfig config;
  config.devices = 2'000;
  config.registry = &registry;
  FleetService service(sim, config);
  service.start_rollout(modeled_release(2, poisoned_behavior()));
  sim.run();
  RolloutReport report = service.report();
  ASSERT_TRUE(report.halted);

  obs::Snapshot snap = registry.snapshot();
  EXPECT_EQ(snap.gauges.at("fleet.sim.devices"), 2'000);
  EXPECT_EQ(snap.counters.at("fleet.rollout.halts"), 1u);
  EXPECT_EQ(snap.counters.at("fleet.sim.rollbacks"), report.rollbacks);
  EXPECT_EQ(snap.counters.at("fleet.sim.installs"),
            static_cast<std::uint64_t>(report.affected));
  EXPECT_GT(snap.counters.at("fleet.sim.quarantines"), 0u);
  EXPECT_GE(snap.gauges.at("fleet.health.score"), 0);

  bool saw_wave = false, saw_halt = false, saw_rollback = false;
  for (const obs::Event& event : snap.events) {
    if (event.kind == obs::EventKind::RolloutWave) saw_wave = true;
    if (event.kind == obs::EventKind::RolloutHalt) {
      saw_halt = true;
      EXPECT_EQ(event.arg, static_cast<std::uint64_t>(
                               HaltReason::QuarantineRate));
    }
    if (event.kind == obs::EventKind::RolloutRollback) {
      saw_rollback = true;
      EXPECT_EQ(event.arg, static_cast<std::uint64_t>(report.rollbacks));
    }
  }
  EXPECT_TRUE(saw_wave);
  EXPECT_TRUE(saw_halt);
  EXPECT_TRUE(saw_rollback);
}

}  // namespace
}  // namespace sdmmon::fleet
