// Fault-injection and recovery tests: the paper's recovery argument
// (Section 2.1: drop packet, reset core, continue) extended to sustained
// attacks (quarantine / reinstall-from-last-good), to graceful MPSoC
// degradation (dispatch routes around quarantined and uninstalled cores),
// and to the install pipeline's rollback invariant -- any failed or
// damaged install must leave the previously-installed configuration
// running on every core.
#include "np/recovery.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "isa/assembler.hpp"
#include "monitor/analysis.hpp"
#include "net/apps.hpp"
#include "net/packet.hpp"
#include "np/mpsoc.hpp"
#include "sdmmon/channel.hpp"
#include "sdmmon/fleet_ops.hpp"
#include "support/placement_model.hpp"
#include "support/test_apps.hpp"
#include "support/test_params.hpp"
#include "util/fault.hpp"

namespace sdmmon {
namespace {

using monitor::MerkleTreeHash;
using monitor::extract_graph;
using testsupport::attack_packet;
using testsupport::install_all;
using testsupport::install_one;
using testsupport::kEchoApp;
using testsupport::kVulnApp;

// Canonical key size / clock shared with the other protocol suites.
constexpr std::uint64_t kNow = testsupport::kTestNow;
constexpr std::size_t kKeyBits = testsupport::kTestKeyBits;

// ---------------------------------------------------------------------
// RecoveryController state machine
// ---------------------------------------------------------------------

TEST(RecoveryController, QuarantineAfterKInWindow) {
  np::RecoveryConfig config;
  config.policy = np::RecoveryPolicy::QuarantineAfterK;
  config.violation_threshold = testsupport::kViolationThreshold;
  config.window_packets = 8;
  np::RecoveryController rc(2, config);

  EXPECT_EQ(rc.on_outcome(0, np::PacketOutcome::AttackDetected),
            np::RecoveryAction::None);
  EXPECT_EQ(rc.on_outcome(0, np::PacketOutcome::AttackDetected),
            np::RecoveryAction::None);
  EXPECT_EQ(rc.on_outcome(0, np::PacketOutcome::AttackDetected),
            np::RecoveryAction::Quarantine);
  EXPECT_EQ(rc.health(0), np::CoreHealth::Quarantined);
  EXPECT_EQ(rc.health(1), np::CoreHealth::Healthy);
  EXPECT_EQ(rc.quarantine_events(), 1u);
}

TEST(RecoveryController, WindowSlidesViolationsOut) {
  np::RecoveryConfig config;
  config.policy = np::RecoveryPolicy::QuarantineAfterK;
  config.violation_threshold = testsupport::kViolationThreshold;
  config.window_packets = 4;
  np::RecoveryController rc(1, config);

  // Two violations, then enough clean packets to push them out of the
  // window; a third violation later must NOT trip the threshold.
  rc.on_outcome(0, np::PacketOutcome::AttackDetected);
  rc.on_outcome(0, np::PacketOutcome::AttackDetected);
  for (int i = 0; i < 4; ++i) {
    rc.on_outcome(0, np::PacketOutcome::Forwarded);
  }
  EXPECT_EQ(rc.window_violations(0), 0u);
  EXPECT_EQ(rc.on_outcome(0, np::PacketOutcome::AttackDetected),
            np::RecoveryAction::None);
  EXPECT_EQ(rc.health(0), np::CoreHealth::Healthy);
}

TEST(RecoveryController, ResetAndContinueNeverIsolates) {
  np::RecoveryConfig config;  // default policy: ResetAndContinue
  config.violation_threshold = 1;
  config.window_packets = 4;
  np::RecoveryController rc(1, config);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(rc.on_outcome(0, np::PacketOutcome::AttackDetected),
              np::RecoveryAction::None);
  }
  EXPECT_EQ(rc.health(0), np::CoreHealth::Healthy);
  EXPECT_EQ(rc.total_violations(), 50u);
}

TEST(RecoveryController, ReinstallEscalatesToQuarantine) {
  np::RecoveryConfig config;
  config.policy = np::RecoveryPolicy::ReinstallLastGood;
  config.violation_threshold = 2;
  config.window_packets = 8;
  config.max_reinstalls = 1;
  np::RecoveryController rc(1, config);

  rc.on_outcome(0, np::PacketOutcome::AttackDetected);
  EXPECT_EQ(rc.on_outcome(0, np::PacketOutcome::AttackDetected),
            np::RecoveryAction::Reinstall);
  rc.note_reinstall(0);
  EXPECT_EQ(rc.window_violations(0), 0u);  // window cleared by re-image

  rc.on_outcome(0, np::PacketOutcome::AttackDetected);
  EXPECT_EQ(rc.on_outcome(0, np::PacketOutcome::AttackDetected),
            np::RecoveryAction::Quarantine);
  EXPECT_EQ(rc.health(0), np::CoreHealth::Quarantined);
  EXPECT_EQ(rc.reinstall_requests(), 1u);
}

TEST(RecoveryController, UnboundedReinstallsNeverQuarantine) {
  // kUnboundedReinstalls is the "never escalate" value: every trip
  // re-images, however many re-images came before.
  np::RecoveryConfig config = testsupport::make_recovery_config(
      np::RecoveryPolicy::ReinstallLastGood, /*threshold=*/1,
      testsupport::kWindowPackets, np::kUnboundedReinstalls);
  np::RecoveryController rc(2, config);
  constexpr std::size_t kTrips = 20'000;
  for (std::size_t i = 0; i < kTrips; ++i) {
    ASSERT_EQ(rc.on_outcome(i % 2, np::PacketOutcome::AttackDetected),
              np::RecoveryAction::Reinstall)
        << "trip " << i;
    rc.note_reinstall(i % 2);
  }
  EXPECT_EQ(rc.health(0), np::CoreHealth::Healthy);
  EXPECT_EQ(rc.health(1), np::CoreHealth::Healthy);
  EXPECT_EQ(rc.quarantine_events(), 0u);
  EXPECT_EQ(rc.reinstall_requests(), kTrips);
}

TEST(RecoveryController, TrapsCountTowardThresholdWhenConfigured) {
  np::RecoveryConfig config;
  config.policy = np::RecoveryPolicy::QuarantineAfterK;
  config.violation_threshold = 2;
  np::RecoveryController rc(1, config);
  rc.on_outcome(0, np::PacketOutcome::Trapped);
  EXPECT_EQ(rc.on_outcome(0, np::PacketOutcome::AttackDetected),
            np::RecoveryAction::Quarantine);
}

TEST(RecoveryController, ReleaseAndOfflineTransitions) {
  np::RecoveryConfig config;
  config.policy = np::RecoveryPolicy::QuarantineAfterK;
  config.violation_threshold = 1;
  np::RecoveryController rc(2, config);

  rc.on_outcome(0, np::PacketOutcome::AttackDetected);
  EXPECT_EQ(rc.health(0), np::CoreHealth::Quarantined);
  rc.release(0);
  EXPECT_EQ(rc.health(0), np::CoreHealth::Healthy);
  EXPECT_EQ(rc.window_violations(0), 0u);
  EXPECT_EQ(rc.health(1), np::CoreHealth::Healthy);
}

// ---------------------------------------------------------------------
// MPSoC graceful degradation
// ---------------------------------------------------------------------

TEST(MpsocRecovery, SustainedAttackQuarantinesCore) {
  np::RecoveryConfig config;
  config.policy = np::RecoveryPolicy::QuarantineAfterK;
  config.violation_threshold = testsupport::kViolationThreshold;
  config.window_packets = 16;
  np::Mpsoc soc(1, np::DispatchPolicy::RoundRobin, config);
  install_all(soc, kVulnApp, 0x5EC0DE);

  util::Bytes attack = attack_packet();
  for (int i = 0; i < 10 && soc.core_health(0) == np::CoreHealth::Healthy;
       ++i) {
    (void)soc.process_packet(attack);
  }
  EXPECT_EQ(soc.core_health(0), np::CoreHealth::Quarantined);

  // Fully degraded: packets are dropped and counted, never a crash.
  np::PacketResult r = soc.process_packet(attack);
  EXPECT_EQ(r.outcome, np::PacketOutcome::Dropped);
  np::MpsocStats stats = soc.aggregate_stats();
  EXPECT_EQ(stats.quarantined_cores, 1u);
  EXPECT_EQ(stats.healthy_cores, 0u);
  EXPECT_EQ(stats.undispatched, 1u);
  EXPECT_EQ(stats.quarantine_events, 1u);
  EXPECT_GE(stats.violations, 3u);

  // Operator releases the core; service resumes.
  soc.release_core(0);
  install_all(soc, kEchoApp, 0x5EC0DE);
  util::Bytes good = {1, 2, 3};
  EXPECT_EQ(soc.process_packet(good).outcome, np::PacketOutcome::Forwarded);
}

TEST(MpsocRecovery, PaperBaselineKeepsProcessingUnderAttack) {
  // RecoveryPolicy::ResetAndContinue is the paper's Section 2.1 behavior:
  // every attack packet is dropped, the core resets, and the next benign
  // packet is served -- no isolation ever.
  np::Mpsoc soc(1);
  install_all(soc, kVulnApp, 0xBA5E);
  util::Bytes attack = attack_packet();
  for (int i = 0; i < 30; ++i) (void)soc.process_packet(attack);
  EXPECT_EQ(soc.core_health(0), np::CoreHealth::Healthy);
  np::MpsocStats stats = soc.aggregate_stats();
  EXPECT_EQ(stats.quarantine_events, 0u);
  EXPECT_GT(stats.attacks_detected, 0u);
}

TEST(MpsocRecovery, ReinstallLastGoodReimagesThenQuarantines) {
  np::RecoveryConfig config;
  config.policy = np::RecoveryPolicy::ReinstallLastGood;
  config.violation_threshold = 2;
  config.window_packets = 8;
  config.max_reinstalls = 1;
  np::Mpsoc soc(1, np::DispatchPolicy::RoundRobin, config);
  install_all(soc, kVulnApp, 0x1A57);

  util::Bytes attack = attack_packet();
  for (int i = 0; i < 20 && soc.core_health(0) == np::CoreHealth::Healthy;
       ++i) {
    (void)soc.process_packet(attack);
  }
  np::MpsocStats stats = soc.aggregate_stats();
  EXPECT_EQ(soc.core_health(0), np::CoreHealth::Quarantined);
  EXPECT_EQ(stats.reinstalls, 1u);
  EXPECT_EQ(stats.quarantine_events, 1u);
  EXPECT_TRUE(soc.core(0).installed());  // re-image kept a valid config
}

// The install-sharing invariant of the compiled-monitor pipeline: one
// install_all compiles the graph exactly once and every core's monitor
// holds the SAME artifact (pointer identity, not equal copies), and a
// last-good re-image swaps that same pointer back in -- recovery never
// copies or recompiles the graph.
TEST(MpsocRecovery, InstallAllSharesOneCompiledGraphAcrossReinstall) {
  np::RecoveryConfig config;
  config.policy = np::RecoveryPolicy::ReinstallLastGood;
  config.violation_threshold = 2;
  config.window_packets = 8;
  np::Mpsoc soc(4, np::DispatchPolicy::RoundRobin, config);
  install_all(soc, kVulnApp, 0x1A57);

  const monitor::CompiledGraph* shared = soc.core(0).monitor().compiled().get();
  ASSERT_NE(shared, nullptr);
  for (std::size_t c = 1; c < soc.num_cores(); ++c) {
    EXPECT_EQ(soc.core(c).monitor().compiled().get(), shared) << "core " << c;
  }

  // Drive core 0 into a last-good re-image.
  util::Bytes attack = attack_packet();
  np::MpsocStats stats;
  for (int i = 0; i < 64; ++i) {
    (void)soc.process_packet(attack);
    stats = soc.aggregate_stats();
    if (stats.reinstalls > 0) break;
  }
  ASSERT_GT(stats.reinstalls, 0u);
  for (std::size_t c = 0; c < soc.num_cores(); ++c) {
    EXPECT_EQ(soc.core(c).monitor().compiled().get(), shared)
        << "re-image must reuse the shared artifact, core " << c;
  }
}

TEST(MpsocRecovery, TwoOfEightQuarantinedKeepsForwardingAllPolicies) {
  // Cores 2 and 5 run the vulnerable app and quarantine on their K-th
  // attack packet. Placement keeps sending them packets for
  // kPlacementLag packets after each quarantine, dropped unrun; after
  // that the six echo cores forward everything.
  constexpr std::size_t kCores = 8;
  constexpr std::size_t kPackets = 600;
  const std::vector<bool> vulnerable = {false, false, true, false,
                                        false, true,  false, false};
  std::vector<std::uint32_t> flows;
  for (std::uint32_t i = 0; i < kPackets; ++i) flows.push_back(i * 7919);
  for (np::DispatchPolicy policy :
       {np::DispatchPolicy::RoundRobin, np::DispatchPolicy::FlowHash}) {
    SCOPED_TRACE(policy == np::DispatchPolicy::RoundRobin ? "round-robin"
                                                          : "flow-hash");
    np::RecoveryConfig config;
    config.policy = np::RecoveryPolicy::QuarantineAfterK;
    np::Mpsoc soc(kCores, policy, config);
    for (std::size_t c = 0; c < kCores; ++c) {
      install_one(soc, c, vulnerable[c] ? kVulnApp : kEchoApp,
                  0xD15 + static_cast<std::uint32_t>(c));
    }
    const util::Bytes attack = attack_packet();
    for (std::uint32_t flow : flows) (void)soc.process_packet(attack, flow);

    const testsupport::PlacementModel model = testsupport::model_placement(
        policy, vulnerable, config.violation_threshold, flows);
    ASSERT_TRUE(model.quarantined_by[2] && model.quarantined_by[5]);
    ASSERT_LT(std::max(*model.quarantined_by[2], *model.quarantined_by[5]) +
                  np::kPlacementLag,
              kPackets);
    if (policy == np::DispatchPolicy::RoundRobin) {
      // Core 2 runs packets 2, 10, 18 and core 5 runs 5, 13, 21. Each
      // then receives every 8th packet up to 18 + L and 21 + L, 31 each.
      EXPECT_EQ(model.lag_drops, 62u);
    }
    np::MpsocStats stats = soc.aggregate_stats();
    EXPECT_EQ(soc.core(2).stats().packets, config.violation_threshold);
    EXPECT_EQ(soc.core(5).stats().packets, config.violation_threshold);
    EXPECT_EQ(stats.undispatched, model.lag_drops);
    EXPECT_EQ(stats.forwarded,
              kPackets - 2 * config.violation_threshold - model.lag_drops);
    EXPECT_EQ(stats.total_cores, kCores);
    EXPECT_EQ(stats.healthy_cores, 6u);
    EXPECT_EQ(stats.quarantined_cores, 2u);

    for (std::uint32_t i = 0; i < 64; ++i) {
      util::Bytes pkt(1 + i % 32, static_cast<std::uint8_t>(i));
      np::PacketResult r = soc.process_packet(pkt, /*flow_key=*/i * 7919);
      ASSERT_EQ(r.outcome, np::PacketOutcome::Forwarded) << "packet " << i;
    }
    EXPECT_EQ(soc.core(2).stats().packets, config.violation_threshold);
    EXPECT_EQ(soc.core(5).stats().packets, config.violation_threshold);
    EXPECT_EQ(soc.aggregate_stats().undispatched, model.lag_drops);
  }
}

TEST(MpsocRecovery, FlowHashRemapsOffQuarantinedCore) {
  // One flow sticks to one core. When that core quarantines, the flow's
  // next kPlacementLag - 1 packets still go there and are dropped
  // unrun; from the quarantining packet + kPlacementLag on, the flow
  // remaps to one other core and stays there.
  np::RecoveryConfig config;
  config.policy = np::RecoveryPolicy::QuarantineAfterK;
  config.violation_threshold = testsupport::kViolationThreshold;
  np::Mpsoc soc(4, np::DispatchPolicy::FlowHash, config);
  install_all(soc, kEchoApp, 0xF10);
  const std::uint32_t flow = 0xABCD;
  std::size_t rr = 0;
  const std::size_t original = np::pick_dispatch_core(
      np::DispatchPolicy::FlowHash, {0, 1, 2, 3}, flow, rr);
  install_one(soc, original, kVulnApp, 0xF11);

  const util::Bytes attack = attack_packet();
  for (std::size_t i = 0; i < config.violation_threshold; ++i) {
    EXPECT_EQ(soc.process_packet(attack, flow).outcome,
              np::PacketOutcome::AttackDetected);
  }
  EXPECT_EQ(soc.core_health(original), np::CoreHealth::Quarantined);
  for (std::size_t i = 1; i < np::kPlacementLag; ++i) {
    const np::PacketResult r = soc.process_packet(attack, flow);
    EXPECT_EQ(r.outcome, np::PacketOutcome::Dropped) << "lag packet " << i;
    EXPECT_EQ(r.instructions, 0u) << "lag packet " << i;
  }
  EXPECT_EQ(soc.aggregate_stats().undispatched, np::kPlacementLag - 1);

  // The same flow now lands on a different (healthy) core, consistently.
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(soc.process_packet(attack, flow).outcome,
              np::PacketOutcome::Forwarded);
  }
  EXPECT_EQ(soc.core(original).stats().packets,
            config.violation_threshold);
  EXPECT_EQ(soc.aggregate_stats().undispatched, np::kPlacementLag - 1);
  int other_cores_used = 0;
  for (std::size_t c = 0; c < 4; ++c) {
    if (c != original && soc.core(c).stats().packets > 0) ++other_cores_used;
  }
  EXPECT_EQ(other_cores_used, 1);  // sticky on the remapped core
}

TEST(MpsocRecovery, OrganicQuarantineShedsLoadToHealthyCores) {
  // Cores 0-1 run the vulnerable app, cores 2-7 run echo. Hostile
  // traffic quarantines the vulnerable cores; kPlacementLag packets after
  // each quarantine, every packet is served by the healthy six.
  constexpr std::size_t kCores = 8;
  constexpr std::uint32_t kPackets = 600;
  np::RecoveryConfig config;
  config.policy = np::RecoveryPolicy::QuarantineAfterK;
  config.violation_threshold = testsupport::kViolationThreshold;
  config.window_packets = 32;
  np::Mpsoc soc(kCores, np::DispatchPolicy::FlowHash, config);
  std::vector<bool> vulnerable(kCores, false);
  for (std::size_t c = 0; c < kCores; ++c) {
    vulnerable[c] = c < 2;
    install_one(soc, c, vulnerable[c] ? kVulnApp : kEchoApp,
                0x1000 + static_cast<std::uint32_t>(c));
  }

  util::Bytes hostile = attack_packet();
  std::vector<std::uint32_t> flows;
  for (std::uint32_t i = 0; i < kPackets; ++i) {
    flows.push_back(i);
    (void)soc.process_packet(hostile, /*flow_key=*/i);
  }
  const testsupport::PlacementModel model = testsupport::model_placement(
      np::DispatchPolicy::FlowHash, vulnerable, config.violation_threshold,
      flows);
  ASSERT_TRUE(model.quarantined_by[0] && model.quarantined_by[1]);
  ASSERT_LT(std::max(*model.quarantined_by[0], *model.quarantined_by[1]) +
                np::kPlacementLag,
            kPackets);

  np::MpsocStats mid = soc.aggregate_stats();
  EXPECT_EQ(mid.quarantined_cores, 2u);
  EXPECT_EQ(soc.core_health(0), np::CoreHealth::Quarantined);
  EXPECT_EQ(soc.core_health(1), np::CoreHealth::Quarantined);
  // Each quarantine drops fewer than kPlacementLag packets, all of them
  // bound for the quarantined core.
  EXPECT_EQ(mid.undispatched, model.lag_drops);
  EXPECT_LE(mid.undispatched, 2 * (np::kPlacementLag - 1));
  EXPECT_EQ(soc.core(0).stats().packets, config.violation_threshold);
  EXPECT_EQ(soc.core(1).stats().packets, config.violation_threshold);
  EXPECT_EQ(mid.forwarded,
            kPackets - 2 * config.violation_threshold - model.lag_drops);

  // With the vulnerable cores isolated, the same traffic is all served.
  std::uint64_t before = mid.forwarded;
  for (std::uint32_t i = 0; i < 40; ++i) {
    EXPECT_EQ(soc.process_packet(hostile, i * 31).outcome,
              np::PacketOutcome::Forwarded);
  }
  EXPECT_EQ(soc.aggregate_stats().forwarded, before + 40);
}

TEST(MpsocRecovery, UninstalledCoresRoutedAround) {
  np::Mpsoc soc(4);
  install_one(soc, 0, kEchoApp, 0xAA);
  install_one(soc, 1, kEchoApp, 0xBB);

  util::Bytes pkt = {4, 5, 6};
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(soc.process_packet(pkt).outcome, np::PacketOutcome::Forwarded);
  }
  EXPECT_EQ(soc.core(0).stats().packets, 4u);
  EXPECT_EQ(soc.core(1).stats().packets, 4u);
  EXPECT_EQ(soc.core(2).stats().packets, 0u);
  np::MpsocStats stats = soc.aggregate_stats();
  EXPECT_EQ(stats.healthy_cores, 2u);
  EXPECT_EQ(stats.uninstalled_cores, 2u);
  EXPECT_EQ(stats.undispatched, 0u);
}

TEST(MpsocRecovery, NothingInstalledDropsAndCounts) {
  np::Mpsoc soc(2);
  util::Bytes pkt = {1};
  EXPECT_EQ(soc.process_packet(pkt).outcome, np::PacketOutcome::Dropped);
  np::MpsocStats stats = soc.aggregate_stats();
  EXPECT_EQ(stats.undispatched, 1u);
  EXPECT_EQ(stats.uninstalled_cores, 2u);
  EXPECT_EQ(stats.healthy_cores, 0u);
}

TEST(MpsocRecovery, UninstalledMonitoredCoreCountsDrops) {
  np::MonitoredCore core;
  util::Bytes pkt = {1, 2};
  EXPECT_EQ(core.process_packet(pkt).outcome, np::PacketOutcome::Dropped);
  EXPECT_EQ(core.stats().packets, 1u);
  EXPECT_EQ(core.stats().dropped, 1u);
}

// ---------------------------------------------------------------------
// Device install rollback invariant
// ---------------------------------------------------------------------

// A self-contained chain of trust where the test controls every private
// key, so it can mint wrong-role certificates and insider-signed packages.
struct RollbackWorld {
  crypto::Drbg drbg{"recovery-rollback"};
  crypto::RsaKeyPair root;
  crypto::RsaKeyPair op_keys;
  crypto::Certificate op_cert;
  obs::Registry registry;  // outlives the device that may attach to it
  protocol::NetworkProcessorDevice device;
  std::uint64_t sequence = 0;

  RollbackWorld()
      : root(make_keys("root")),
        op_keys(make_keys("op")),
        op_cert(crypto::issue_certificate(
            "op", crypto::CertRole::NetworkOperator, 1, kNow - 1000,
            kNow + 1'000'000, op_keys.pub, "root", root.priv)),
        device("router-rb", make_keys("device"), root.pub, 2) {}

  crypto::RsaKeyPair make_keys(const std::string& label) {
    crypto::Drbg fork = drbg.fork(label);
    return crypto::rsa_generate(kKeyBits, fork);
  }

  protocol::WirePackage seal(const isa::Program& binary, std::uint32_t param,
                             bool tamper_graph = false,
                             const crypto::Certificate* cert = nullptr) {
    protocol::PackagePayload payload;
    payload.binary = binary;
    payload.hash_param = param;
    MerkleTreeHash hash(tamper_graph ? param ^ 0xFFFF : param);
    payload.graph = extract_graph(binary, hash);
    payload.sequence = ++sequence;
    crypto::Drbg seal_drbg = drbg.fork("seal/" + std::to_string(sequence));
    return protocol::seal_package(payload, op_keys.priv,
                                  cert != nullptr ? *cert : op_cert,
                                  device.public_key(), seal_drbg);
  }

  /// Install a known-good baseline app and sanity-check it forwards.
  void install_baseline() {
    protocol::WirePackage wire = seal(net::build_udp_echo(), 0x600D);
    ASSERT_EQ(device.install(wire, kNow), protocol::InstallStatus::Ok);
    ASSERT_EQ(device.application_name(), "udp-echo");
  }

  /// The rollback invariant: the baseline app is still installed on every
  /// core and still forwards traffic.
  void expect_baseline_running() {
    EXPECT_TRUE(device.has_application());
    EXPECT_EQ(device.application_name(), "udp-echo");
    for (std::size_t c = 0; c < device.mpsoc().num_cores(); ++c) {
      EXPECT_TRUE(device.mpsoc().core(c).installed());
    }
    util::Bytes pkt = net::make_udp_packet(net::ip(10, 0, 0, 1),
                                           net::ip(10, 0, 0, 2), 7, 7,
                                           util::bytes_of("still alive"));
    EXPECT_EQ(device.process_packet(pkt).outcome,
              np::PacketOutcome::Forwarded);
  }
};

RollbackWorld& rollback_world() {
  static RollbackWorld w;  // key generation is slow; share across tests
  return w;
}

TEST(InstallRollback, TruncatedWireKeepsPreviousConfig) {
  RollbackWorld& w = rollback_world();
  w.install_baseline();

  util::FaultInjector inject(util::FaultProfile{.seed = 101});
  for (int i = 0; i < 10; ++i) {
    util::Bytes bytes = w.seal(net::build_ipv4_forward(), 0xBAD0 + i)
                            .serialize();
    inject.truncate(bytes);
    EXPECT_EQ(w.device.install_bytes(bytes, kNow),
              protocol::InstallStatus::CorruptPackage);
    EXPECT_FALSE(w.device.last_install_ok());
  }
  w.expect_baseline_running();
}

TEST(InstallRollback, BitFlippedWireKeepsPreviousConfig) {
  RollbackWorld& w = rollback_world();
  w.install_baseline();

  util::FaultInjector inject(util::FaultProfile{.seed = 202});
  for (int i = 0; i < 20; ++i) {
    util::Bytes bytes = w.seal(net::build_ipv4_forward(), 0xF11B + i)
                            .serialize();
    inject.flip_bit(bytes);
    protocol::InstallStatus status = w.device.install_bytes(bytes, kNow);
    EXPECT_NE(status, protocol::InstallStatus::Ok) << "flip " << i;
  }
  w.expect_baseline_running();
}

TEST(InstallRollback, ExpiredCertificateKeepsPreviousConfig) {
  RollbackWorld& w = rollback_world();
  w.install_baseline();

  crypto::Certificate expired = crypto::issue_certificate(
      "op", crypto::CertRole::NetworkOperator, 9, kNow - 5000, kNow - 1000,
      w.op_keys.pub, "root", w.root.priv);
  protocol::WirePackage wire =
      w.seal(net::build_ipv4_forward(), 0xE24, false, &expired);
  EXPECT_EQ(w.device.install(wire, kNow),
            protocol::InstallStatus::BadCertificate);
  w.expect_baseline_running();
}

TEST(InstallRollback, WrongRoleCertificateKeepsPreviousConfig) {
  RollbackWorld& w = rollback_world();
  w.install_baseline();

  // Correctly signed by the root, but certifying a *device* key -- the
  // chain must reject the role, not just the signature.
  crypto::Certificate wrong_role = crypto::issue_certificate(
      "op", crypto::CertRole::Device, 10, kNow - 1000, kNow + 1'000'000,
      w.op_keys.pub, "root", w.root.priv);
  protocol::WirePackage wire =
      w.seal(net::build_ipv4_forward(), 0x401E, false, &wrong_role);
  EXPECT_EQ(w.device.install(wire, kNow),
            protocol::InstallStatus::BadCertificate);
  w.expect_baseline_running();
}

TEST(InstallRollback, SkewedDeviceClockRejectsCertificate) {
  RollbackWorld& w = rollback_world();
  w.install_baseline();

  // An attacker who can skew the device clock far enough pushes the
  // operator certificate outside its validity window; the install is
  // rejected but the running configuration must survive.
  util::FaultProfile profile;
  profile.clock_skew_rate = 1.0;
  profile.clock_skew_s = 2'000'000;  // beyond valid_to
  util::FaultInjector inject(profile);
  protocol::LossyChannel channel(inject);

  protocol::WirePackage wire = w.seal(net::build_ipv4_forward(), 0xC10C);
  protocol::ChannelResult sent = channel.send_install(w.device, wire, kNow);
  ASSERT_EQ(sent.status, protocol::ChannelStatus::Delivered);
  EXPECT_EQ(sent.install_status, protocol::InstallStatus::BadCertificate);
  EXPECT_EQ(inject.stats().clock_skews, 1u);
  w.expect_baseline_running();
}

TEST(InstallRollback, TamperedGraphBitstreamKeepsPreviousConfig) {
  RollbackWorld& w = rollback_world();
  w.install_baseline();

  // Insider-style tamper: a correctly signed package whose graph was
  // derived under a different parameter than the one shipped. The device
  // re-derives and rejects (GraphMismatch).
  protocol::WirePackage wire =
      w.seal(net::build_ipv4_forward(), 0x9AF, /*tamper_graph=*/true);
  EXPECT_EQ(w.device.install(wire, kNow),
            protocol::InstallStatus::GraphMismatch);
  w.expect_baseline_running();
}

TEST(InstallRollback, UnstageableBinaryKeepsPreviousConfig) {
  RollbackWorld& w = rollback_world();
  w.install_baseline();

  // A signed, graph-consistent binary whose data segment lies outside the
  // device memory map: every cryptographic check passes, staging fails.
  isa::Program bad = net::build_udp_echo();
  bad.name = "oversized";
  bad.data = util::Bytes(64, 0xEE);
  bad.data_base = 0xFFFF'FF00;
  protocol::WirePackage wire = w.seal(bad, 0x57A6);
  EXPECT_EQ(w.device.install(wire, kNow),
            protocol::InstallStatus::StageFailed);
  EXPECT_FALSE(w.device.last_install_ok());
  w.expect_baseline_running();
}

// A StageFailed install changes nothing: every check runs before any
// core changes, so the cores keep their application data (here
// flow-stats' per-flow counters) and no install is counted or journaled.
TEST(InstallRollback, StageFailedLeavesDataRegionsAndInstallMetrics) {
  RollbackWorld& w = rollback_world();
  const isa::Program app = net::build_flow_stats();
  ASSERT_EQ(w.device.install(w.seal(app, 0xF10), kNow),
            protocol::InstallStatus::Ok);
  np::Mpsoc& soc = w.device.mpsoc();
  soc.enable_obs(w.registry);
  for (std::uint8_t i = 0; i < 8; ++i) {
    const util::Bytes pkt = net::make_udp_packet(
        net::ip(10, 0, 0, i), net::ip(10, 0, 1, 2), 7, 7,
        util::bytes_of("count me"));
    ASSERT_EQ(w.device.process_packet(pkt).outcome,
              np::PacketOutcome::Forwarded);
  }
  const auto data_regions = [&] {
    std::vector<util::Bytes> regions;
    for (std::size_t c = 0; c < soc.num_cores(); ++c) {
      regions.push_back(soc.core(c).core().memory().read_block(
          app.data_base, app.data.size()));
    }
    return regions;
  };
  const auto install_events = [&] {
    const std::vector<obs::Event> events = w.registry.journal().events();
    return std::count_if(events.begin(), events.end(), [](const obs::Event& e) {
      return e.kind == obs::EventKind::Install;
    });
  };
  const std::vector<util::Bytes> before = data_regions();
  for (const util::Bytes& region : before) {
    ASSERT_NE(region, util::Bytes(app.data.size(), 0)) << "counters moved";
  }
  obs::Counter& installs = w.registry.counter(obs::names::kEngineInstalls);
  const std::uint64_t installs_before = installs.value();
  const auto events_before = install_events();

  isa::Program bad = net::build_udp_echo();
  bad.name = "oversized";
  bad.data = util::Bytes(64, 0xEE);
  bad.data_base = 0xFFFF'FF00;
  EXPECT_EQ(w.device.install(w.seal(bad, 0x57A7), kNow),
            protocol::InstallStatus::StageFailed);

  EXPECT_EQ(data_regions(), before);
  EXPECT_EQ(installs.value(), installs_before);
  EXPECT_EQ(install_events(), events_before);
  EXPECT_EQ(w.device.application_name(), "flow-stats");
}

TEST(InstallRollback, AuditLogRecordsEveryRejection) {
  RollbackWorld& w = rollback_world();
  w.install_baseline();
  std::size_t before = w.device.audit_log().size();
  util::Bytes garbage = {0xDE, 0xAD};
  (void)w.device.install_bytes(garbage, kNow);
  ASSERT_EQ(w.device.audit_log().size(), before + 1);
  const protocol::AuditEvent& event = w.device.audit_log().back();
  EXPECT_EQ(event.status, protocol::InstallStatus::CorruptPackage);
  EXPECT_EQ(event.detail, "corrupt-package");
}

// ---------------------------------------------------------------------
// Fleet fault-injection campaign (the acceptance scenario)
// ---------------------------------------------------------------------

TEST(FaultCampaign, LossyFleetDeployConvergesWithTypedFailures) {
  protocol::Manufacturer manufacturer("fc-man", kKeyBits,
                                      crypto::Drbg("fc-man-seed"));
  protocol::NetworkOperator op("fc-op", kKeyBits, crypto::Drbg("fc-op-seed"));
  op.accept_certificate(manufacturer.certify_operator(
      op.name(), op.public_key(), kNow - 10, kNow + 10'000'000));

  std::vector<std::unique_ptr<protocol::NetworkProcessorDevice>> devices;
  protocol::FleetOperator fleet(op, manufacturer.public_key());
  for (int i = 0; i < 16; ++i) {
    devices.push_back(manufacturer.provision_device(
        "fc-router-" + std::to_string(i), 1));
    fleet.enroll(devices.back().get());
  }

  // >=10% of wire packages corrupted (bit flips + truncation), >=5%
  // message drop in each direction, plus delay -- all from one seed.
  util::FaultProfile profile;
  profile.seed = 0xCAFE2024;
  profile.bit_flip_rate = 0.10;
  profile.truncation_rate = 0.04;
  profile.drop_rate = 0.05;
  profile.delay_rate = 0.05;
  profile.max_delay_s = 5;
  util::FaultInjector inject(profile);
  protocol::LossyChannel channel(inject);

  protocol::RetryPolicy retry;
  retry.max_attempts = 6;
  retry.initial_backoff_s = 0.5;
  retry.backoff_multiplier = 2.0;
  retry.max_backoff_s = 8.0;
  retry.backoff_budget_s = 100.0;

  auto result = fleet.deploy(net::build_ipv4_forward(), kNow,
                             protocol::NiosTimingModel(), &channel, retry);
  ASSERT_EQ(result.reports.size(), 16u);
  EXPECT_EQ(result.succeeded + result.failed, 16u);

  // Every failed device carries a typed reason, not a bare counter.
  for (const protocol::DeviceReport& report : result.reports) {
    if (report.ok()) continue;
    EXPECT_NE(report.outcome, protocol::DeviceOutcome::Installed);
    EXPECT_GT(report.attempts, 0u);
    if (report.saw_reply) {
      EXPECT_NE(report.last_status, protocol::InstallStatus::Ok)
          << report.device;
    }
  }

  // Resume until the campaign converges (bounded; deterministic seed).
  int rounds = 0;
  while (fleet.pending_devices() > 0 && rounds < 8) {
    auto r = fleet.resume(kNow + 60 * (rounds + 1),
                          protocol::NiosTimingModel(), &channel, retry);
    EXPECT_EQ(r.reports.size(), r.succeeded + r.failed);
    ++rounds;
  }
  EXPECT_EQ(fleet.pending_devices(), 0u);

  // Convergence: every device fully installed, none partially.
  util::Bytes pkt = net::make_udp_packet(net::ip(10, 0, 0, 1),
                                         net::ip(10, 0, 0, 2), 1, 2,
                                         util::bytes_of("post-campaign"));
  for (const auto& device : devices) {
    EXPECT_TRUE(device->has_application()) << device->name();
    EXPECT_TRUE(device->last_install_ok()) << device->name();
    EXPECT_EQ(device->application_name(), "ipv4-forward");
    EXPECT_EQ(device->process_packet(pkt).outcome,
              np::PacketOutcome::Forwarded)
        << device->name();
  }
  EXPECT_TRUE(fleet.parameters_all_distinct());

  // The channel really was hostile.
  const util::FaultStats& faults = inject.stats();
  EXPECT_GT(faults.buffers_corrupted + faults.truncations, 0u);
  EXPECT_GT(faults.drops, 0u);
  // And the operator really retried: more attempts than devices.
  std::size_t total_attempts = 0;
  for (const auto& report : result.reports) total_attempts += report.attempts;
  EXPECT_GT(total_attempts, 16u);
}

TEST(FaultCampaign, BackoffBudgetBoundsRetries) {
  protocol::Manufacturer manufacturer("bb-man", kKeyBits,
                                      crypto::Drbg("bb-man-seed"));
  protocol::NetworkOperator op("bb-op", kKeyBits, crypto::Drbg("bb-op-seed"));
  op.accept_certificate(manufacturer.certify_operator(
      op.name(), op.public_key(), kNow - 10, kNow + 10'000'000));
  auto device = manufacturer.provision_device("bb-router", 1);
  protocol::FleetOperator fleet(op, manufacturer.public_key());
  fleet.enroll(device.get());

  // A channel that drops everything: the campaign must stop at the
  // backoff budget with a typed reason, not loop forever.
  util::FaultProfile profile;
  profile.seed = 7;
  profile.drop_rate = 1.0;
  util::FaultInjector inject(profile);
  protocol::LossyChannel channel(inject);

  protocol::RetryPolicy retry;
  retry.max_attempts = 100;
  retry.initial_backoff_s = 1.0;
  retry.backoff_multiplier = 2.0;
  retry.max_backoff_s = 4.0;
  retry.backoff_budget_s = 10.0;

  auto result = fleet.deploy(net::build_udp_echo(), kNow,
                             protocol::NiosTimingModel(), &channel, retry);
  ASSERT_EQ(result.reports.size(), 1u);
  EXPECT_EQ(result.failed, 1u);
  EXPECT_EQ(result.reports[0].outcome,
            protocol::DeviceOutcome::BudgetExhausted);
  EXPECT_LE(result.reports[0].backoff_s, 10.0);
  EXPECT_LT(result.reports[0].attempts, 100u);
  EXPECT_FALSE(device->has_application());
  EXPECT_EQ(fleet.pending_devices(), 1u);
}

}  // namespace
}  // namespace sdmmon
