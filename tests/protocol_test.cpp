// Three-entity protocol tests: manufacturer provisions devices and
// certifies operators; operators seal packages; devices verify, decrypt,
// install -- and reject every tampering the security model (SR1-SR4)
// covers.
#include "sdmmon/entities.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "crypto/aes.hpp"
#include "monitor/analysis.hpp"
#include "net/apps.hpp"
#include "net/packet.hpp"
#include "obs/obs.hpp"
#include "sdmmon/timed_install.hpp"

namespace sdmmon::protocol {
namespace {

constexpr std::size_t kKeyBits = 1024;  // tests use 1024 for speed; the
                                        // benches run the paper's 2048.
constexpr std::uint64_t kNow = 1'700'000'000;

struct World {
  Manufacturer manufacturer{"acme-networks", kKeyBits,
                            crypto::Drbg("manufacturer-seed")};
  NetworkOperator op{"backbone-operator", kKeyBits,
                     crypto::Drbg("operator-seed")};
  std::unique_ptr<NetworkProcessorDevice> device;

  World() {
    op.accept_certificate(manufacturer.certify_operator(
        op.name(), op.public_key(), kNow - 1000, kNow + 1'000'000));
    device = manufacturer.provision_device("router-0", 2);
  }
};

World& world() {
  static World w;  // key generation is slow; share across tests
  return w;
}

TEST(Protocol, FullInstallSucceeds) {
  World& w = world();
  WirePackage wire =
      w.op.program_device(net::build_ipv4_forward(), w.device->public_key());
  EXPECT_EQ(w.device->install(wire, kNow), InstallStatus::Ok);
  EXPECT_TRUE(w.device->has_application());
  EXPECT_EQ(w.device->application_name(), "ipv4-forward");
}

TEST(Protocol, InstalledAppProcessesTraffic) {
  World& w = world();
  WirePackage wire =
      w.op.program_device(net::build_ipv4_forward(), w.device->public_key());
  ASSERT_EQ(w.device->install(wire, kNow), InstallStatus::Ok);
  util::Bytes pkt = net::make_udp_packet(net::ip(10, 0, 0, 1),
                                         net::ip(10, 0, 0, 2), 5, 6,
                                         util::bytes_of("through the router"));
  np::PacketResult r = w.device->process_packet(pkt);
  EXPECT_EQ(r.outcome, np::PacketOutcome::Forwarded);
  EXPECT_TRUE(net::ipv4_checksum_ok(r.output));
}

TEST(Protocol, ReprogrammingSwitchesApplication) {
  World& w = world();
  ASSERT_EQ(w.device->install(w.op.program_device(net::build_ipv4_forward(),
                                                  w.device->public_key()),
                              kNow),
            InstallStatus::Ok);
  ASSERT_EQ(w.device->install(w.op.program_device(net::build_udp_echo(),
                                                  w.device->public_key()),
                              kNow),
            InstallStatus::Ok);
  EXPECT_EQ(w.device->application_name(), "udp-echo");
  // Echo semantics now live.
  util::Bytes pkt = net::make_udp_packet(net::ip(1, 2, 3, 4),
                                         net::ip(5, 6, 7, 8), 1000, 2000,
                                         util::bytes_of("echo me"));
  np::PacketResult r = w.device->process_packet(pkt);
  ASSERT_EQ(r.outcome, np::PacketOutcome::Forwarded);
  auto out = net::Ipv4Packet::parse(r.output);
  EXPECT_EQ(out->src, net::ip(5, 6, 7, 8));
}

// The sealed install path records the installed artifacts' compile
// times, once per install; a fast switch records them again.
TEST(Protocol, SealedInstallRecordsCompileHistograms) {
  World& w = world();
  obs::Registry registry;  // outlives the device attached to it
  auto device = w.manufacturer.provision_device("router-obs", 2);
  device->mpsoc().enable_obs(registry);
  const auto samples = [&registry] {
    return std::vector<std::uint64_t>{
        registry.histogram(obs::names::kEngineGraphCompileNs, {}).count(),
        registry.histogram(obs::names::kCorePredecodeNs, {}).count()};
  };
  ASSERT_EQ(device->install(w.op.program_device(net::build_ipv4_forward(),
                                                device->public_key()),
                            kNow),
            InstallStatus::Ok);
  EXPECT_EQ(samples(), (std::vector<std::uint64_t>{1, 1}));
  ASSERT_TRUE(device->switch_to("ipv4-forward"));
  EXPECT_EQ(samples(), (std::vector<std::uint64_t>{2, 2}));
}

TEST(Protocol, FreshHashParameterPerPackage) {
  World& w = world();
  (void)w.op.program_device(net::build_ipv4_forward(), w.device->public_key());
  std::uint32_t p1 = w.op.last_hash_param();
  (void)w.op.program_device(net::build_ipv4_forward(), w.device->public_key());
  std::uint32_t p2 = w.op.last_hash_param();
  EXPECT_NE(p1, p2);
}

TEST(Protocol, ReplayRejected) {
  World& w = world();
  WirePackage wire =
      w.op.program_device(net::build_ipv4_forward(), w.device->public_key());
  ASSERT_EQ(w.device->install(wire, kNow), InstallStatus::Ok);
  EXPECT_EQ(w.device->install(wire, kNow), InstallStatus::ReplayRejected);
}

TEST(Protocol, WrongDeviceRejected) {
  // SR4: a package sealed for router-0 must not install on router-1.
  World& w = world();
  auto other = w.manufacturer.provision_device("router-1", 1);
  WirePackage wire =
      w.op.program_device(net::build_ipv4_forward(), w.device->public_key());
  EXPECT_EQ(other->install(wire, kNow), InstallStatus::WrongDevice);
  EXPECT_FALSE(other->has_application());
}

TEST(Protocol, UncertifiedOperatorRejected) {
  // SR1: an attacker with their own keypair but no manufacturer-issued
  // certificate cannot program the device.
  World& w = world();
  NetworkOperator rogue("rogue", kKeyBits, crypto::Drbg("rogue-seed"));
  // Self-issued certificate (signed by the rogue's own key).
  crypto::RsaKeyPair rogue_ca = crypto::rsa_generate(
      kKeyBits, *std::make_unique<crypto::Drbg>("rogue-ca"));
  rogue.accept_certificate(crypto::issue_certificate(
      "rogue", crypto::CertRole::NetworkOperator, 9, kNow - 10, kNow + 10000,
      rogue.public_key(), "fake-manufacturer", rogue_ca.priv));
  WirePackage wire =
      rogue.program_device(net::build_ipv4_forward(), w.device->public_key());
  EXPECT_EQ(w.device->install(wire, kNow), InstallStatus::BadCertificate);
}

TEST(Protocol, ExpiredCertificateRejected) {
  World& w = world();
  NetworkOperator stale("stale-op", kKeyBits, crypto::Drbg("stale-seed"));
  stale.accept_certificate(w.manufacturer.certify_operator(
      stale.name(), stale.public_key(), kNow - 5000, kNow - 1000));
  WirePackage wire =
      stale.program_device(net::build_ipv4_forward(), w.device->public_key());
  EXPECT_EQ(w.device->install(wire, kNow), InstallStatus::BadCertificate);
}

TEST(Protocol, TamperedCiphertextRejected) {
  World& w = world();
  WirePackage wire =
      w.op.program_device(net::build_ipv4_forward(), w.device->public_key());
  wire.ciphertext[wire.ciphertext.size() / 2] ^= 0x40;
  InstallStatus s = w.device->install(wire, kNow);
  EXPECT_TRUE(s == InstallStatus::CorruptPackage ||
              s == InstallStatus::BadSignature);
}

TEST(Protocol, TamperedKeyWrapRejected) {
  World& w = world();
  WirePackage wire =
      w.op.program_device(net::build_ipv4_forward(), w.device->public_key());
  wire.wrapped_key[0] ^= 0x01;
  InstallStatus s = w.device->install(wire, kNow);
  EXPECT_TRUE(s == InstallStatus::WrongDevice ||
              s == InstallStatus::CorruptPackage);
}

TEST(Protocol, SwappedCertificateRejected) {
  // Substituting a different (validly certified) operator's certificate
  // breaks signature verification: the payload wasn't signed by that key.
  World& w = world();
  NetworkOperator other("other-op", kKeyBits, crypto::Drbg("other-seed"));
  crypto::Certificate other_cert = w.manufacturer.certify_operator(
      other.name(), other.public_key(), kNow - 10, kNow + 10000);
  WirePackage wire =
      w.op.program_device(net::build_ipv4_forward(), w.device->public_key());
  wire.operator_cert = other_cert;
  EXPECT_EQ(w.device->install(wire, kNow), InstallStatus::BadSignature);
}

TEST(Protocol, GraphTamperCaughtBySignature) {
  // AC2's nightmare scenario -- shipping a graph that whitelists malicious
  // code -- requires re-signing, which the attacker cannot do (AC3/AC4).
  // Any bit flip anywhere in the sealed payload lands in one of the
  // rejection buckets.
  World& w = world();
  WirePackage wire =
      w.op.program_device(net::build_ipv4_cm(), w.device->public_key());
  for (std::size_t pos : {std::size_t{0}, wire.ciphertext.size() / 3,
                          wire.ciphertext.size() - 1}) {
    WirePackage tampered = wire;
    tampered.ciphertext[pos] ^= 0x80;
    InstallStatus s = w.device->install(tampered, kNow);
    EXPECT_NE(s, InstallStatus::Ok) << "flip at " << pos;
  }
}

TEST(Protocol, WireSerializationRoundTrip) {
  World& w = world();
  WirePackage wire =
      w.op.program_device(net::build_firewall({53}), w.device->public_key());
  util::Bytes bytes = wire.serialize();
  WirePackage back = WirePackage::deserialize(bytes);
  EXPECT_EQ(back.ciphertext, wire.ciphertext);
  EXPECT_EQ(back.wrapped_key, wire.wrapped_key);
  EXPECT_EQ(back.iv, wire.iv);
  EXPECT_EQ(w.device->install(back, kNow), InstallStatus::Ok);
}

TEST(Protocol, PayloadPaddingGrowsWire) {
  World& w = world();
  WirePackage small =
      w.op.program_device(net::build_ipv4_forward(), w.device->public_key());
  WirePackage padded = w.op.program_device(net::build_ipv4_forward(),
                                           w.device->public_key(), 50'000);
  EXPECT_GT(padded.wire_size(), small.wire_size() + 49'000);
  EXPECT_EQ(w.device->install(padded, kNow), InstallStatus::Ok);
}

TEST(Protocol, MonitorStillCatchesAttackAfterSecureInstall) {
  // Full-stack: secure install of the vulnerable app, then the data-plane
  // attack, then detection.
  World& w = world();
  ASSERT_EQ(w.device->install(w.op.program_device(net::build_ipv4_cm(),
                                                  w.device->public_key()),
                              kNow),
            InstallStatus::Ok);
  // Benign CM traffic flows.
  np::PacketResult good = w.device->process_packet(
      net::make_udp_packet(net::ip(1, 1, 1, 1), net::ip(2, 2, 2, 2), 7, 8,
                           util::bytes_of("fine")));
  EXPECT_EQ(good.outcome, np::PacketOutcome::Forwarded);
}

TEST(Protocol, AppStoreRetainsInstalledApps) {
  World& w = world();
  auto device = w.manufacturer.provision_device("store-router", 1);
  ASSERT_EQ(device->install(w.op.program_device(net::build_ipv4_forward(),
                                                device->public_key()),
                            kNow),
            InstallStatus::Ok);
  ASSERT_EQ(device->install(w.op.program_device(net::build_udp_echo(),
                                                device->public_key()),
                            kNow),
            InstallStatus::Ok);
  auto apps = device->stored_apps();
  EXPECT_EQ(apps.size(), 2u);
  EXPECT_NE(std::find(apps.begin(), apps.end(), "ipv4-forward"), apps.end());
  EXPECT_NE(std::find(apps.begin(), apps.end(), "udp-echo"), apps.end());
  EXPECT_GT(device->store_bytes(), 0u);
}

TEST(Protocol, FastSwitchRestoresBehaviour) {
  World& w = world();
  auto device = w.manufacturer.provision_device("switch-router", 1);
  ASSERT_EQ(device->install(w.op.program_device(net::build_ipv4_forward(),
                                                device->public_key()),
                            kNow),
            InstallStatus::Ok);
  ASSERT_EQ(device->install(w.op.program_device(net::build_udp_echo(),
                                                device->public_key()),
                            kNow),
            InstallStatus::Ok);
  EXPECT_EQ(device->application_name(), "udp-echo");

  // Switch back without any cryptography.
  ASSERT_TRUE(device->switch_to("ipv4-forward"));
  EXPECT_EQ(device->application_name(), "ipv4-forward");
  util::Bytes pkt = net::make_udp_packet(net::ip(9, 9, 9, 9),
                                         net::ip(8, 8, 8, 8), 1, 2,
                                         util::bytes_of("fwd me"));
  np::PacketResult r = device->process_packet(pkt);
  ASSERT_EQ(r.outcome, np::PacketOutcome::Forwarded);
  // Forwarding, not echoing: destination unchanged, TTL decremented.
  auto out = net::Ipv4Packet::parse(r.output);
  EXPECT_EQ(out->dst, net::ip(8, 8, 8, 8));
  EXPECT_EQ(out->ttl, 63);
}

// The device store, every core and the fast-switch path share one
// summary per stored application: switching swaps the stored pointers
// back in, and never rebuilds the summary.
TEST(Protocol, FastSwitchSharesTheStoredSummary) {
  World& w = world();
  auto device = w.manufacturer.provision_device("summary-router", 2);
  ASSERT_EQ(device->install(w.op.program_device(net::build_ipv4_forward(),
                                                device->public_key()),
                            kNow),
            InstallStatus::Ok);
  const np::InstallArtifacts* forward =
      device->stored_artifacts("ipv4-forward");
  ASSERT_NE(forward, nullptr);
  ASSERT_NE(forward->summary, nullptr);
  EXPECT_TRUE(forward->summary->built_from(forward->graph.get(),
                                           forward->code.get()));
  const np::MonitorSummary* stored = forward->summary.get();
  ASSERT_EQ(device->install(w.op.program_device(net::build_udp_echo(),
                                                device->public_key()),
                            kNow),
            InstallStatus::Ok);
  ASSERT_TRUE(device->switch_to("ipv4-forward"));
  EXPECT_EQ(device->stored_artifacts("ipv4-forward")->summary.get(), stored);
  for (std::size_t c = 0; c < device->mpsoc().num_cores(); ++c) {
    EXPECT_EQ(device->mpsoc().core(c).summary().get(), stored) << "core " << c;
  }
  ASSERT_TRUE(device->switch_core_to(1, "udp-echo"));
  EXPECT_EQ(device->mpsoc().core(1).summary(),
            device->stored_artifacts("udp-echo")->summary);
  EXPECT_EQ(device->stored_artifacts("nonexistent"), nullptr);
}

TEST(Protocol, SwitchToUnknownAppFails) {
  World& w = world();
  auto device = w.manufacturer.provision_device("empty-router", 1);
  EXPECT_FALSE(device->switch_to("nonexistent"));
  EXPECT_TRUE(device->stored_apps().empty());
}

TEST(Protocol, ReinstallSameAppUpdatesStoreEntry) {
  World& w = world();
  auto device = w.manufacturer.provision_device("update-router", 1);
  ASSERT_EQ(device->install(w.op.program_device(net::build_ipv4_forward(),
                                                device->public_key()),
                            kNow),
            InstallStatus::Ok);
  ASSERT_EQ(device->install(w.op.program_device(net::build_ipv4_forward(),
                                                device->public_key()),
                            kNow),
            InstallStatus::Ok);
  EXPECT_EQ(device->stored_apps().size(), 1u);
}

TEST(SwitchTiming, OrdersOfMagnitudeFasterThanInstall) {
  NiosTimingModel model;
  // A 100 KiB resident app switches in ~ms.
  double switch_s = model.switch_seconds(100 * 1024);
  EXPECT_LT(switch_s, 0.01);
  // Any single security step costs seconds.
  EXPECT_GT(model.step_seconds({}), 1.0);
}

TEST(Protocol, AuditLogRecordsInstallsAndRejections) {
  World& w = world();
  auto device = w.manufacturer.provision_device("audit-router", 1);
  ASSERT_EQ(device->install(w.op.program_device(net::build_ipv4_forward(),
                                                device->public_key()),
                            kNow),
            InstallStatus::Ok);
  // A replay rejection must also be logged.
  WirePackage wire =
      w.op.program_device(net::build_udp_echo(), device->public_key());
  ASSERT_EQ(device->install(wire, kNow), InstallStatus::Ok);
  ASSERT_EQ(device->install(wire, kNow), InstallStatus::ReplayRejected);
  device->switch_to("ipv4-forward");
  device->switch_core_to(0, "udp-echo");

  const auto& log = device->audit_log();
  ASSERT_EQ(log.size(), 5u);
  EXPECT_EQ(log[0].kind, AuditEvent::Kind::InstallAttempt);
  EXPECT_EQ(log[0].status, InstallStatus::Ok);
  EXPECT_EQ(log[0].detail, "ipv4-forward");
  EXPECT_EQ(log[0].time, kNow);
  EXPECT_EQ(log[2].status, InstallStatus::ReplayRejected);
  EXPECT_EQ(log[2].detail, "replay-rejected");
  EXPECT_EQ(log[3].kind, AuditEvent::Kind::FastSwitch);
  EXPECT_EQ(log[3].detail, "ipv4-forward (all cores)");
  EXPECT_EQ(log[4].detail, "udp-echo (core 0)");
}

TEST(Protocol, AuditLogCapturesAttackAttempts) {
  World& w = world();
  auto device = w.manufacturer.provision_device("audit-router-2", 1);
  WirePackage wire =
      w.op.program_device(net::build_ipv4_forward(), device->public_key());
  wire.ciphertext[3] ^= 0x01;
  (void)device->install(wire, kNow);
  ASSERT_EQ(device->audit_log().size(), 1u);
  EXPECT_NE(device->audit_log()[0].status, InstallStatus::Ok);
}

TEST(TimedInstallTest, SucceedsAndReportsOps) {
  World& w = world();
  crypto::RsaKeyPair device_keys = crypto::rsa_generate(
      kKeyBits, *std::make_unique<crypto::Drbg>("timed-device"));
  WirePackage wire =
      w.op.program_device(net::build_ipv4_forward(), device_keys.pub);
  TimedInstallResult r =
      timed_install(wire, device_keys.priv, w.manufacturer.public_key(), kNow);
  ASSERT_TRUE(r.ok);
  EXPECT_GT(r.unwrap_ops.limb_muls, 0u);
  EXPECT_GT(r.aes_ops.aes_blocks, 0u);
  EXPECT_GT(r.verify_ops.sha256_blocks, 0u);
  EXPECT_GT(r.cert_ops.limb_muls, 0u);
  EXPECT_GT(r.wire_bytes, 1000u);

  NiosTimingModel model;
  InstallTiming t = r.timing(model);
  // Each step carries the invocation overhead; RSA unwrap is the most
  // compute-heavy step (Table 2's shape).
  EXPECT_GT(t.rsa_unwrap_s, t.cert_check_s);
  EXPECT_GT(t.total(), t.total_no_network_no_cert());
}

TEST(TimedInstallTest, FailuresSurfaceInStatus) {
  World& w = world();
  crypto::RsaKeyPair device_keys = crypto::rsa_generate(
      kKeyBits, *std::make_unique<crypto::Drbg>("timed-device-2"));
  WirePackage wire =
      w.op.program_device(net::build_ipv4_forward(), device_keys.pub);
  // Wrong manufacturer root: certificate check fails.
  TimedInstallResult r =
      timed_install(wire, device_keys.priv, w.op.public_key(), kNow);
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.cert_status, crypto::CertStatus::BadSignature);
}

/// Seal `plain` the way seal_package does -- signed by the world's
/// operator, encrypted under a fresh K_sym wrapped to `device_pub` -- but
/// with a K_sym of `key_bytes` bytes instead of the AES-128 key.
WirePackage seal_plain(std::span<const std::uint8_t> plain,
                       std::size_t key_bytes,
                       const crypto::RsaPublicKey& device_pub) {
  World& w = world();
  util::ByteWriter inner;
  inner.blob(plain);
  inner.blob(w.op.sign(plain));
  crypto::Drbg drbg("seal-plain");
  util::Bytes k_sym = drbg.bytes(key_bytes);
  WirePackage wire;
  drbg.fill(wire.iv);
  wire.ciphertext = crypto::aes_cbc_encrypt(k_sym, wire.iv, inner.bytes());
  wire.wrapped_key = crypto::rsa_encrypt(device_pub, k_sym, drbg);
  wire.operator_cert = w.op.certificate();
  return wire;
}

TEST(TimedInstallTest, RejectsNonAes128KeyLikeTheDevice) {
  World& w = world();
  auto device = w.manufacturer.provision_device("router-aes256", 1);
  PackagePayload payload;
  payload.binary = net::build_ipv4_forward();
  payload.hash_param = 0x1234;
  payload.graph = monitor::extract_graph(
      payload.binary, monitor::MerkleTreeHash(payload.hash_param));
  payload.sequence = 1;
  // A correctly signed payload under a 32-byte K_sym: AES-256 would
  // decrypt it, but the device only accepts AES-128 keys.
  WirePackage wire =
      seal_plain(payload.serialize(), 32, device->public_key());
  const crypto::RsaPrivateKey& priv = device->private_key_for_instrumentation();
  TimedInstallResult r =
      timed_install(wire, priv, w.manufacturer.public_key(), kNow);
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.open_status, OpenStatus::WrongDevice);
  EXPECT_EQ(r.open_status, open_package(wire, priv, w.op.public_key()).status);
  EXPECT_EQ(device->install(wire, kNow), InstallStatus::WrongDevice);
}

TEST(TimedInstallTest, RejectsSignedPlaintextThatIsNotAPayload) {
  World& w = world();
  auto device = w.manufacturer.provision_device("router-garbage", 1);
  // The operator signs it, so only decoding the payload can reject it.
  WirePackage wire = seal_plain(util::bytes_of("signed, but no payload"), 16,
                                device->public_key());
  const crypto::RsaPrivateKey& priv = device->private_key_for_instrumentation();
  TimedInstallResult r =
      timed_install(wire, priv, w.manufacturer.public_key(), kNow);
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.open_status, OpenStatus::Malformed);
  EXPECT_EQ(r.open_status, open_package(wire, priv, w.op.public_key()).status);
  EXPECT_EQ(device->install(wire, kNow), InstallStatus::CorruptPackage);
}

}  // namespace
}  // namespace sdmmon::protocol
