// Differential suite: FleetOperator campaigns driven over the socket
// transport (SocketChannel -> RpcServer -> DeviceHost) must be
// indistinguishable from the in-process channels they replace -- same
// DeviceReport sequences, same device end-states (audit logs included),
// for both the perfect link (DirectChannel) and a seeded lossy link
// (LossyChannel vs SocketChannel sharing the fault model). Also pins the
// in-process partial-delivery edge the socket transport's request-id
// dedup heals: a lost reply makes the blind-retrying operator install
// twice.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "isa/assembler.hpp"
#include "rpc/client.hpp"
#include "rpc/server.hpp"
#include "sdmmon/fleet_ops.hpp"
#include "support/test_apps.hpp"
#include "support/test_params.hpp"

namespace sdmmon::rpc {
namespace {

using protocol::ChannelResult;
using protocol::ChannelStatus;
using protocol::DeviceReport;
using protocol::FleetOperator;
using protocol::InstallStatus;
using testsupport::kTestKeyBits;
using testsupport::kTestNow;

constexpr std::size_t kFleetSize = 3;

/// One fleet world. Two worlds built from the same seed are bit-identical
/// (keys, certificates, package parameters), so campaign outcomes can be
/// compared across transports.
struct FleetWorld {
  protocol::Manufacturer mfg;
  protocol::NetworkOperator op;
  std::vector<std::unique_ptr<protocol::NetworkProcessorDevice>> devices;
  FleetOperator fleet;
  isa::Program binary;

  explicit FleetWorld(const std::string& seed)
      : mfg("m", kTestKeyBits, crypto::Drbg(seed + "-man")),
        op("o", kTestKeyBits, crypto::Drbg(seed + "-op")),
        fleet(op, mfg.public_key()),
        binary(isa::assemble(testsupport::kEchoApp)) {
    op.accept_certificate(mfg.certify_operator(
        op.name(), op.public_key(), kTestNow - 10, kTestNow + 1'000'000));
    for (std::size_t i = 0; i < kFleetSize; ++i) {
      devices.push_back(mfg.provision_device(
          "diff-router-" + std::to_string(i), 1));
      fleet.enroll(devices.back().get());
    }
  }
};

/// RPC servers fronting every device of a world, with a SocketChannel
/// routing installs to them by device name.
struct ServedFleet {
  std::vector<std::unique_ptr<obs::Registry>> registries;
  std::vector<std::unique_ptr<DeviceHost>> hosts;
  std::vector<std::unique_ptr<RpcServer>> servers;
  SocketChannel channel;

  ServedFleet(FleetWorld& world, util::FaultInjector* faults)
      : channel(world.op, faults) {
    for (auto& device : world.devices) {
      registries.push_back(std::make_unique<obs::Registry>());
      hosts.push_back(
          std::make_unique<DeviceHost>(*device, *registries.back()));
      servers.push_back(std::make_unique<RpcServer>(
          *hosts.back(), world.mfg.public_key(), ServerOptions{}));
      EXPECT_TRUE(servers.back()->start());
      channel.add_endpoint(device->name(), servers.back()->port());
    }
  }

  ~ServedFleet() {
    channel.disconnect_all();
    for (auto& server : servers) server->stop();
  }
};

void expect_same_reports(const FleetOperator::CampaignResult& a,
                         const FleetOperator::CampaignResult& b,
                         const char* what) {
  EXPECT_EQ(a.succeeded, b.succeeded) << what;
  EXPECT_EQ(a.failed, b.failed) << what;
  EXPECT_EQ(a.skipped, b.skipped) << what;
  ASSERT_EQ(a.reports.size(), b.reports.size()) << what;
  for (std::size_t i = 0; i < a.reports.size(); ++i) {
    const DeviceReport& ra = a.reports[i];
    const DeviceReport& rb = b.reports[i];
    EXPECT_EQ(ra.device, rb.device) << what << " report " << i;
    EXPECT_EQ(ra.outcome, rb.outcome) << what << " " << ra.device;
    EXPECT_EQ(ra.last_status, rb.last_status) << what << " " << ra.device;
    EXPECT_EQ(ra.saw_reply, rb.saw_reply) << what << " " << ra.device;
    EXPECT_EQ(ra.attempts, rb.attempts) << what << " " << ra.device;
    EXPECT_DOUBLE_EQ(ra.backoff_s, rb.backoff_s) << what << " " << ra.device;
  }
}

void expect_same_device_state(const FleetWorld& a, const FleetWorld& b) {
  for (std::size_t d = 0; d < kFleetSize; ++d) {
    const auto& log_a = a.devices[d]->audit_log();
    const auto& log_b = b.devices[d]->audit_log();
    ASSERT_EQ(log_a.size(), log_b.size()) << "device " << d;
    for (std::size_t i = 0; i < log_a.size(); ++i) {
      EXPECT_EQ(log_a[i].kind, log_b[i].kind) << d << ":" << i;
      EXPECT_EQ(log_a[i].time, log_b[i].time) << d << ":" << i;
      EXPECT_EQ(log_a[i].detail, log_b[i].detail) << d << ":" << i;
      EXPECT_EQ(log_a[i].status, log_b[i].status) << d << ":" << i;
    }
  }
  EXPECT_EQ(a.fleet.parameters_all_distinct(),
            b.fleet.parameters_all_distinct());
}

TEST(RpcDiff, SocketCampaignMatchesDirectChannel) {
  FleetWorld direct_world("rpcdiff-a");
  FleetWorld socket_world("rpcdiff-a");  // same seed: identical twin

  protocol::DirectChannel direct;
  auto deployed_direct =
      direct_world.fleet.deploy(direct_world.binary, kTestNow,
                                protocol::NiosTimingModel(), &direct);

  ServedFleet served(socket_world, nullptr);
  auto deployed_socket =
      socket_world.fleet.deploy(socket_world.binary, kTestNow,
                                protocol::NiosTimingModel(),
                                &served.channel);

  expect_same_reports(deployed_direct, deployed_socket, "deploy");
  EXPECT_TRUE(deployed_socket.converged());

  // Rotation rides the same sessions (no reconnect): still equal.
  served.channel.set_purpose(InstallPurpose::Rotate);
  auto rotated_direct = direct_world.fleet.rotate_parameters(
      kTestNow + 100, protocol::NiosTimingModel(), &direct);
  auto rotated_socket = socket_world.fleet.rotate_parameters(
      kTestNow + 100, protocol::NiosTimingModel(), &served.channel);
  expect_same_reports(rotated_direct, rotated_socket, "rotate");
  expect_same_device_state(direct_world, socket_world);

  // The transport left its own fingerprints: every server saw exactly
  // one session, and installs+rotations were tallied per purpose.
  for (std::size_t d = 0; d < kFleetSize; ++d) {
    EXPECT_EQ(served.servers[d]->sessions_served(), 1u) << d;
    EXPECT_EQ(
        served.registries[d]->counter(obs::names::kRpcInstalls).value(), 1u);
    EXPECT_EQ(
        served.registries[d]->counter(obs::names::kRpcRotations).value(),
        1u);
  }
}

TEST(RpcDiff, SocketCampaignMatchesLossyChannelSeedForSeed) {
  // The same fault profile + seed drives both transports; SocketChannel
  // consumes the injector's decisions in LossyChannel's exact order, so
  // the campaigns must agree everywhere -- reports, retries, device audit
  // logs, and even the injector's own statistics.
  util::FaultProfile profile;
  profile.seed = 0xD1FF;
  profile.drop_rate = 0.25;
  profile.bit_flip_rate = 0.20;
  profile.max_bit_flips = 3;
  profile.truncation_rate = 0.10;
  profile.delay_rate = 0.20;
  profile.max_delay_s = 10;
  profile.clock_skew_rate = 0.15;
  profile.clock_skew_s = 120;  // within the certificate validity window

  protocol::RetryPolicy retry;
  retry.max_attempts = 4;

  FleetWorld lossy_world("rpcdiff-b");
  FleetWorld socket_world("rpcdiff-b");
  util::FaultInjector lossy_faults(profile);
  util::FaultInjector socket_faults(profile);

  protocol::LossyChannel lossy(lossy_faults);
  auto deployed_lossy = lossy_world.fleet.deploy(
      lossy_world.binary, kTestNow, protocol::NiosTimingModel(), &lossy,
      retry);

  ServedFleet served(socket_world, &socket_faults);
  auto deployed_socket = socket_world.fleet.deploy(
      socket_world.binary, kTestNow, protocol::NiosTimingModel(),
      &served.channel, retry);

  expect_same_reports(deployed_lossy, deployed_socket, "lossy deploy");
  expect_same_device_state(lossy_world, socket_world);
  EXPECT_EQ(lossy_world.fleet.pending_devices(),
            socket_world.fleet.pending_devices());

  // resume() targets exactly the unconverged remainder: still lockstep.
  auto resumed_lossy = lossy_world.fleet.resume(
      kTestNow + 500, protocol::NiosTimingModel(), &lossy, retry);
  auto resumed_socket = socket_world.fleet.resume(
      kTestNow + 500, protocol::NiosTimingModel(), &served.channel, retry);
  expect_same_reports(resumed_lossy, resumed_socket, "resume");
  expect_same_device_state(lossy_world, socket_world);

  // The fault models consumed identical decision streams.
  const util::FaultStats& sa = lossy_faults.stats();
  const util::FaultStats& sb = socket_faults.stats();
  EXPECT_EQ(sa.messages_seen, sb.messages_seen);
  EXPECT_EQ(sa.drops, sb.drops);
  EXPECT_EQ(sa.buffers_corrupted, sb.buffers_corrupted);
  EXPECT_EQ(sa.bits_flipped, sb.bits_flipped);
  EXPECT_EQ(sa.truncations, sb.truncations);
  EXPECT_EQ(sa.delays, sb.delays);
  EXPECT_EQ(sa.clock_skews, sb.clock_skews);
}

/// DirectChannel that delivers every request but claims the first
/// `losses` replies vanished -- the partial-delivery scenario: the device
/// executed the install, the operator never learned.
class ReplyLosingChannel : public protocol::Channel {
 public:
  explicit ReplyLosingChannel(int losses) : losses_remaining_(losses) {}

  ChannelResult send_install(protocol::NetworkProcessorDevice& device,
                             const protocol::WirePackage& wire,
                             std::uint64_t now) override {
    ChannelResult result = inner_.send_install(device, wire, now);
    if (losses_remaining_ > 0) {
      --losses_remaining_;
      return {ChannelStatus::ReplyLost, result.install_status};
    }
    return result;
  }

 private:
  protocol::DirectChannel inner_;
  int losses_remaining_;
};

// Pin the in-process edge: a lost reply makes the blind-retrying
// operator re-seal and re-send, and the device -- which already
// installed -- installs AGAIN. Two audit entries, two sequence numbers,
// one logical deployment. This is the documented cost of the in-process
// model (retries stay safe because re-sealing keeps sequences monotone);
// the socket transport's request-id dedup avoids the second install
// entirely (tests/rpc_server_test.cpp LostReplyIsHealedByIdempotentRetry).
TEST(RpcDiff, InProcessLostReplyInstallsTwiceByDesign) {
  FleetWorld world("rpcdiff-c");
  protocol::NetworkProcessorDevice& device = *world.devices[0];
  const std::size_t audit_before = device.audit_log().size();

  ReplyLosingChannel channel(/*losses=*/1);
  protocol::RetryPolicy retry;
  retry.max_attempts = 3;

  // Single-device campaign view so the other routers stay out of frame.
  FleetOperator solo(world.op, world.mfg.public_key());
  solo.enroll(&device);
  auto result = solo.deploy(world.binary, kTestNow,
                            protocol::NiosTimingModel(), &channel, retry);

  ASSERT_TRUE(result.converged());
  ASSERT_EQ(result.reports.size(), 1u);
  EXPECT_EQ(result.reports[0].attempts, 2u)
      << "reply loss must trigger a retry";

  const auto& audit = device.audit_log();
  ASSERT_EQ(audit.size(), audit_before + 2)
      << "the device installed twice for one logical deployment";
  EXPECT_EQ(audit[audit_before].status, InstallStatus::Ok);
  EXPECT_EQ(audit[audit_before + 1].status, InstallStatus::Ok)
      << "the retry is a fresh package, so the duplicate install SUCCEEDS "
         "(monotone sequence), silently consuming a sequence number";
}

}  // namespace
}  // namespace sdmmon::rpc
