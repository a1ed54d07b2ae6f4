#include "sdmmon/fleet_ops.hpp"

#include <gtest/gtest.h>

#include <set>

#include "net/apps.hpp"
#include "net/packet.hpp"
#include "support/test_params.hpp"

namespace sdmmon::protocol {
namespace {

// Canonical key size / clock shared with the other protocol suites.
constexpr std::size_t kKeyBits = testsupport::kTestKeyBits;
constexpr std::uint64_t kNow = testsupport::kTestNow;

struct FleetFixture {
  Manufacturer manufacturer{"m", kKeyBits, crypto::Drbg("fo-man")};
  NetworkOperator op{"o", kKeyBits, crypto::Drbg("fo-op")};
  std::vector<std::unique_ptr<NetworkProcessorDevice>> devices;
  FleetOperator fleet{op, manufacturer.public_key()};

  FleetFixture() {
    op.accept_certificate(manufacturer.certify_operator(
        op.name(), op.public_key(), kNow - 10, kNow + 1'000'000));
    for (int i = 0; i < 5; ++i) {
      devices.push_back(manufacturer.provision_device(
          "fleet-router-" + std::to_string(i), 1));
      fleet.enroll(devices.back().get());
    }
  }
};

FleetFixture& fixture() {
  static FleetFixture f;
  return f;
}

const DeviceReport* report_for(const FleetOperator::CampaignResult& result,
                               const std::string& device) {
  for (const DeviceReport& report : result.reports) {
    if (report.device == device) return &report;
  }
  return nullptr;
}

std::uint32_t param_of(const NetworkProcessorDevice& device) {
  const auto* merkle = dynamic_cast<const monitor::MerkleTreeHash*>(
      &device.mpsoc().core(0).monitor().hash());
  return merkle == nullptr ? 0 : merkle->parameter();
}

TEST(FleetOps, DeployReachesEveryDevice) {
  FleetFixture& f = fixture();
  auto result = f.fleet.deploy(net::build_ipv4_forward(), kNow);
  EXPECT_EQ(result.succeeded, 5u);
  EXPECT_EQ(result.failed, 0u);
  EXPECT_GT(result.modeled_seconds_sequential, 5.0);  // >1s per install
  for (const auto& device : f.devices) {
    EXPECT_TRUE(device->has_application());
    EXPECT_EQ(device->application_name(), "ipv4-forward");
  }
}

TEST(FleetOps, ParametersDistinctAcrossFleet) {
  FleetFixture& f = fixture();
  (void)f.fleet.deploy(net::build_ipv4_forward(), kNow);
  EXPECT_TRUE(f.fleet.parameters_all_distinct());
  // Cross-check by reading the actual monitor parameters.
  std::set<std::uint32_t> params;
  for (const auto& device : f.devices) params.insert(param_of(*device));
  EXPECT_EQ(params.size(), f.devices.size());
}

TEST(FleetOps, RotationChangesEveryParameter) {
  FleetFixture& f = fixture();
  (void)f.fleet.deploy(net::build_ipv4_forward(), kNow);
  std::vector<std::uint32_t> before;
  for (const auto& device : f.devices) before.push_back(param_of(*device));

  auto result = f.fleet.rotate_parameters(kNow + 60);
  EXPECT_EQ(result.succeeded, 5u);
  EXPECT_TRUE(f.fleet.parameters_all_distinct());
  for (std::size_t i = 0; i < f.devices.size(); ++i) {
    EXPECT_NE(param_of(*f.devices[i]), before[i]) << "device " << i;
    EXPECT_EQ(f.devices[i]->application_name(), "ipv4-forward");
  }
}

TEST(FleetOps, FleetStillProcessesTrafficAfterRotation) {
  FleetFixture& f = fixture();
  (void)f.fleet.deploy(net::build_ipv4_forward(), kNow);
  (void)f.fleet.rotate_parameters(kNow + 120);
  util::Bytes pkt = net::make_udp_packet(net::ip(10, 0, 0, 1),
                                         net::ip(10, 0, 0, 2), 1, 2,
                                         util::bytes_of("post-rotation"));
  for (const auto& device : f.devices) {
    EXPECT_EQ(device->process_packet(pkt).outcome,
              np::PacketOutcome::Forwarded);
  }
}

TEST(FleetOps, RotateWithoutDeployIsNoop) {
  Manufacturer m("m2", kKeyBits, crypto::Drbg("fo-man2"));
  NetworkOperator o("o2", kKeyBits, crypto::Drbg("fo-op2"));
  o.accept_certificate(
      m.certify_operator(o.name(), o.public_key(), 0, 4'000'000'000ull));
  FleetOperator fleet(o, m.public_key());
  auto result = fleet.rotate_parameters(kNow);
  EXPECT_EQ(result.succeeded, 0u);
  EXPECT_EQ(result.failed, 0u);
}

TEST(FleetOps, DeployProducesPerDeviceReports) {
  FleetFixture& f = fixture();
  auto result = f.fleet.deploy(net::build_ipv4_forward(), kNow);
  EXPECT_TRUE(result.converged());
  ASSERT_EQ(result.reports.size(), f.devices.size());
  for (const auto& device : f.devices) {
    const DeviceReport* report = report_for(result, device->name());
    ASSERT_NE(report, nullptr) << device->name();
    EXPECT_TRUE(report->ok());
    EXPECT_EQ(report->outcome, DeviceOutcome::Installed);
    EXPECT_EQ(report->last_status, InstallStatus::Ok);
    EXPECT_EQ(report->attempts, 1u);  // reliable channel: one shot each
  }
  EXPECT_EQ(report_for(result, "no-such-device"), nullptr);
  EXPECT_EQ(f.fleet.pending_devices(), 0u);
}

TEST(FleetOps, RotateSkipsUnhealthyDeviceAndResumeRecoversIt) {
  FleetFixture& f = fixture();
  (void)f.fleet.deploy(net::build_ipv4_forward(), kNow);

  // Sabotage one device: a garbage package leaves its last install failed.
  NetworkProcessorDevice& sick = *f.devices[2];
  util::Bytes garbage = {0xDE, 0xAD, 0xBE, 0xEF};
  EXPECT_NE(sick.install_bytes(garbage, kNow), InstallStatus::Ok);
  ASSERT_FALSE(sick.last_install_ok());
  std::uint32_t sick_param = param_of(sick);

  auto rotated = f.fleet.rotate_parameters(kNow + 200);
  EXPECT_EQ(rotated.succeeded, 4u);
  EXPECT_EQ(rotated.skipped, 1u);
  const DeviceReport* report = report_for(rotated, sick.name());
  ASSERT_NE(report, nullptr);
  EXPECT_EQ(report->outcome, DeviceOutcome::SkippedUnhealthy);
  // The unhealthy device was not touched: old parameter still active.
  EXPECT_EQ(param_of(sick), sick_param);
  EXPECT_EQ(f.fleet.pending_devices(), 1u);

  // resume() brings the skipped device back once the fault has cleared.
  auto resumed = f.fleet.resume(kNow + 300);
  EXPECT_EQ(resumed.succeeded, 1u);
  EXPECT_TRUE(resumed.converged());
  EXPECT_TRUE(sick.last_install_ok());
  EXPECT_NE(param_of(sick), sick_param);
  EXPECT_EQ(f.fleet.pending_devices(), 0u);
  EXPECT_TRUE(f.fleet.parameters_all_distinct());
}

TEST(FleetOps, ResumeWithoutFailuresIsNoop) {
  FleetFixture& f = fixture();
  (void)f.fleet.deploy(net::build_ipv4_forward(), kNow);
  auto result = f.fleet.resume(kNow + 400);
  EXPECT_EQ(result.succeeded, 0u);
  EXPECT_EQ(result.failed, 0u);
  EXPECT_TRUE(result.reports.empty());
}

// ---------------------------------------------------------------------
// Deterministic per-device retry jitter
// ---------------------------------------------------------------------

TEST(FleetOpsJitter, ZeroJitterKeepsExactGeometricSchedule) {
  RetryPolicy policy;  // jitter defaults to 0
  const std::uint64_t key = device_backoff_key("router-a");
  EXPECT_DOUBLE_EQ(retry_backoff_s(policy, key, 0), 0.5);
  EXPECT_DOUBLE_EQ(retry_backoff_s(policy, key, 1), 1.0);
  EXPECT_DOUBLE_EQ(retry_backoff_s(policy, key, 2), 2.0);
  EXPECT_DOUBLE_EQ(retry_backoff_s(policy, key, 3), 4.0);
  EXPECT_DOUBLE_EQ(retry_backoff_s(policy, key, 4), 8.0);
  EXPECT_DOUBLE_EQ(retry_backoff_s(policy, key, 5), 8.0);  // capped
}

TEST(FleetOpsJitter, JitterStaysInBandAndIsDeterministic) {
  RetryPolicy policy;
  policy.jitter = 0.25;
  const std::uint64_t key = device_backoff_key("router-a");
  for (std::size_t gap = 0; gap < 6; ++gap) {
    RetryPolicy exact;  // same schedule, no jitter
    const double base = retry_backoff_s(exact, key, gap);
    const double jittered = retry_backoff_s(policy, key, gap);
    EXPECT_GE(jittered, base * 0.75) << "gap " << gap;
    EXPECT_LE(jittered, base * 1.25) << "gap " << gap;
    // Pure in (policy, key, gap): replaying gives the same schedule.
    EXPECT_DOUBLE_EQ(jittered, retry_backoff_s(policy, key, gap));
  }
}

TEST(FleetOpsJitter, DevicesDesynchronize) {
  // The point of per-device jitter: after a shared outage, devices must
  // NOT retry on the same instants. Keys come from names; schedules for
  // distinct devices differ at the first gap.
  RetryPolicy policy;
  policy.jitter = 0.25;
  std::set<std::uint64_t> keys;
  std::set<double> first_gaps;
  for (int i = 0; i < 20; ++i) {
    const std::uint64_t key =
        device_backoff_key("router-" + std::to_string(i));
    keys.insert(key);
    first_gaps.insert(retry_backoff_s(policy, key, 0));
  }
  EXPECT_EQ(keys.size(), 20u);
  EXPECT_GE(first_gaps.size(), 19u);  // spread, not resynchronized
}

// A fresh three-device fleet: the tests below fail every device on
// purpose, so they cannot share the suite's fixture.
struct FreshFleet {
  Manufacturer manufacturer{"rm", kKeyBits, crypto::Drbg("restart-man")};
  NetworkOperator op{"ro", kKeyBits, crypto::Drbg("restart-op")};
  std::vector<std::unique_ptr<NetworkProcessorDevice>> devices;
  FleetOperator fleet{op, manufacturer.public_key()};

  FreshFleet() {
    op.accept_certificate(manufacturer.certify_operator(
        op.name(), op.public_key(), kNow - 10, kNow + 1'000'000));
    for (int i = 0; i < 3; ++i) {
      devices.push_back(manufacturer.provision_device(
          "restart-router-" + std::to_string(i), 1));
      fleet.enroll(devices.back().get());
    }
  }
};

TEST(FleetOps, InProcessResumeKeepsFreshSchedule) {
  // resume() grants each pending device a fresh retry allowance.
  FreshFleet f;
  util::FaultInjector dead(util::FaultProfile{.drop_rate = 1.0});
  LossyChannel dead_channel(dead);
  (void)f.fleet.deploy(net::build_udp_echo(), kNow, NiosTimingModel(),
                       &dead_channel, RetryPolicy());
  ASSERT_EQ(f.fleet.pending_devices(), 3u);
  auto resumed = f.fleet.resume(kNow + 100);
  EXPECT_EQ(resumed.succeeded, 3u);
  for (const auto& report : resumed.reports) {
    EXPECT_EQ(report.attempts, 1u);  // fresh schedule, reliable channel
  }
}

TEST(FleetOps, ObsCountsCampaignOutcomesAndJournalsFailures) {
  FreshFleet f;
  obs::Registry registry;
  f.fleet.enable_obs(registry);
  // Dead channel: each of the 3 devices spends all 4 attempts and ends
  // ChannelLost. The reliable resume then installs each in one attempt.
  util::FaultInjector dead(util::FaultProfile{.drop_rate = 1.0});
  LossyChannel dead_channel(dead);
  (void)f.fleet.deploy(net::build_udp_echo(), kNow, NiosTimingModel(),
                       &dead_channel, RetryPolicy());
  (void)f.fleet.resume(kNow + 100);

  const obs::Snapshot snap = registry.snapshot();
  EXPECT_EQ(snap.counters.at(obs::names::kFleetAttempts), 3u * 4 + 3);
  EXPECT_EQ(snap.counters.at(obs::names::kFleetRetries), 3u * 3);
  EXPECT_EQ(snap.counters.at(obs::names::kFleetChannelLost), 3u);
  EXPECT_EQ(snap.counters.at(obs::names::kFleetInstalled), 3u);
  EXPECT_EQ(snap.counters.at(obs::names::kFleetRejected), 0u);
  EXPECT_EQ(snap.histograms.at(obs::names::kFleetAttemptsPerDevice).count,
            6u);
  EXPECT_EQ(snap.histograms.at(obs::names::kFleetBackoffMs).count, 6u);
  ASSERT_EQ(snap.events.size(), 3u);
  for (std::uint32_t i = 0; i < 3; ++i) {
    EXPECT_EQ(snap.events[i].kind, obs::EventKind::CampaignFailure);
    EXPECT_EQ(snap.events[i].device, i);  // enrollment index
    EXPECT_EQ(snap.events[i].arg,
              static_cast<std::uint64_t>(DeviceOutcome::ChannelLost));
  }
}

// ---------------------------------------------------------------------
// Clock skew vs certificate validity during rotation
// ---------------------------------------------------------------------

TEST(FleetOpsClockSkew, SkewedDeviceRejectsRotationAsRejectedNotLost) {
  // A device whose clock runs past the operator certificate's valid_to
  // must reject the (perfectly good) package with BadCertificate -- and
  // the operator must classify that as Rejected (a device-side verdict),
  // not ChannelLost (a delivery failure): retrying cannot fix it.
  FreshFleet f;
  FleetOperator& fleet = f.fleet;
  auto deployed = fleet.deploy(net::build_udp_echo(), kNow);
  ASSERT_TRUE(deployed.converged());

  util::FaultProfile profile;
  profile.clock_skew_rate = 1.0;   // every validity check is skewed
  profile.clock_skew_s = 2'000'000;  // past the cert's valid_to window
  util::FaultInjector skewed(profile);
  LossyChannel channel(skewed);
  auto rotated = fleet.rotate_parameters(kNow + 100, NiosTimingModel(),
                                         &channel, RetryPolicy());
  EXPECT_EQ(rotated.succeeded, 0u);
  EXPECT_EQ(rotated.failed, 3u);
  for (const auto& report : rotated.reports) {
    EXPECT_EQ(report.outcome, DeviceOutcome::Rejected) << report.device;
    EXPECT_NE(report.outcome, DeviceOutcome::ChannelLost);
    EXPECT_TRUE(report.saw_reply);
    EXPECT_EQ(report.last_status, InstallStatus::BadCertificate);
    // Permanent rejection fails fast: no retry storm against a cert
    // problem.
    EXPECT_EQ(report.attempts, 1u);
  }
  EXPECT_GE(skewed.stats().clock_skews, 3u);

  // The devices kept their previous configuration running.
  for (auto& device : f.devices) {
    EXPECT_EQ(device->application_name(), "udp-echo");
  }
}

TEST(FleetOps, EmptyFleetDeploys) {
  FleetFixture& f = fixture();
  FleetOperator empty(f.op, f.manufacturer.public_key());
  auto result = empty.deploy(net::build_udp_echo(), kNow);
  EXPECT_EQ(result.succeeded, 0u);
  EXPECT_EQ(result.modeled_seconds_sequential, 0.0);
}

}  // namespace
}  // namespace sdmmon::protocol
