// The headline security scenario: a crafted packet smashes the ipv4-cm
// stack, diverts execution into packet-carried shellcode, and the hardware
// monitor catches the deviation.
#include "attack/attack.hpp"

#include <gtest/gtest.h>

#include "attack/fleet.hpp"
#include "attack/reuse.hpp"
#include "attack/probe.hpp"
#include "isa/isa.hpp"
#include "monitor/analysis.hpp"
#include "net/apps.hpp"
#include "net/packet.hpp"
#include "np/monitored_core.hpp"

namespace sdmmon::attack {
namespace {

using monitor::Compression;
using monitor::MerkleTreeHash;
using np::PacketOutcome;

np::MonitoredCore monitored_cm(std::uint32_t param) {
  np::MonitoredCore core;
  isa::Program app = net::build_ipv4_cm();
  MerkleTreeHash hash(param);
  core.install(app, monitor::extract_graph(app, hash),
               std::make_unique<MerkleTreeHash>(hash));
  return core;
}

// ipv4-cm on a bare np::Core -- no monitor at all -- run on one packet.
np::StepInfo run_unmonitored_cm(np::Core& core, const util::Bytes& packet) {
  core.load_program(net::build_ipv4_cm());
  core.deliver_packet(packet);
  return core.run();
}

TEST(CmAttack, HijacksUnmonitoredCore) {
  // Without a monitor the shellcode runs to completion: proof the
  // vulnerability is real, not an artifact of the monitor.
  auto attack = craft_cm_overflow(marker_shellcode(0x1337BEEF));
  np::Core core;
  const np::StepInfo last = run_unmonitored_cm(core, attack.packet);
  // Shellcode signaled PKT_DONE itself after planting the marker.
  EXPECT_EQ(last.event, np::StepEvent::PacketDone);
  EXPECT_NE(last.pc, np::kReturnSentinel);
  EXPECT_EQ(core.reg(2), 0x1337BEEFu);  // $v0 marker: code ran
}

TEST(CmAttack, InjectedOutputWithoutMonitor) {
  auto attack = craft_cm_overflow(inject_output_shellcode(0xEE, 64));
  np::Core core;
  const np::StepInfo last = run_unmonitored_cm(core, attack.packet);
  ASSERT_EQ(last.event, np::StepEvent::PacketOut);
  ASSERT_EQ(core.output().size(), 64u);
  EXPECT_EQ(core.output()[0], 0xEE);
  EXPECT_EQ(core.output()[63], 0xEE);
}

TEST(CmAttack, MonitorDetectsHijack) {
  auto attack = craft_cm_overflow(marker_shellcode());
  int detected = 0;
  const int trials = 64;
  for (int t = 0; t < trials; ++t) {
    np::MonitoredCore core =
        monitored_cm(0x9E3779B9u * static_cast<std::uint32_t>(t + 1));
    if (core.process_packet(attack.packet).outcome ==
        PacketOutcome::AttackDetected) {
      ++detected;
    }
  }
  // Several shellcode instructions, each caught w.p. 15/16 -> near-certain.
  EXPECT_GE(detected, trials - 4);
}

TEST(CmAttack, SpinShellcodeCaughtByMonitorOrWatchdog) {
  auto attack = craft_cm_overflow(spin_shellcode());
  np::MonitoredCore core = monitored_cm(0xFEED);
  np::PacketResult r = core.process_packet(attack.packet);
  EXPECT_TRUE(r.outcome == PacketOutcome::AttackDetected ||
              r.outcome == PacketOutcome::Trapped);
}

TEST(CmAttack, CoreRecoversAfterDetection) {
  auto attack = craft_cm_overflow(marker_shellcode());
  np::MonitoredCore core = monitored_cm(0x5EED);
  (void)core.process_packet(attack.packet);
  // Next, honest traffic must flow normally (paper's recovery model).
  util::Bytes good = net::make_udp_packet(net::ip(10, 0, 0, 1),
                                          net::ip(10, 0, 0, 2), 1, 2,
                                          util::bytes_of("ok"));
  np::PacketResult r = core.process_packet(good);
  EXPECT_EQ(r.outcome, PacketOutcome::Forwarded);
}

TEST(CmAttack, BenignCmPacketIsNotFlagged) {
  np::MonitoredCore core = monitored_cm(0xB0B);
  np::PacketResult r = core.process_packet(benign_cm_packet(10));
  EXPECT_EQ(r.outcome, PacketOutcome::Forwarded);
  EXPECT_EQ(core.stats().attacks_detected, 0u);
}

TEST(CmAttack, PacketStructure) {
  auto attack = craft_cm_overflow(marker_shellcode());
  auto parsed = net::Ipv4Packet::parse(attack.packet);
  ASSERT_TRUE(parsed.has_value());
  ASSERT_EQ(parsed->options.size(), 1u);
  EXPECT_EQ(parsed->options[0].type, net::kCmOptionType);
  EXPECT_EQ(parsed->options[0].data.size(), 38u);
  EXPECT_EQ(attack.shellcode_addr, 0x30000u + 60u);
  // The overwrite bytes encode the shellcode address little-endian.
  EXPECT_EQ(parsed->options[0].data[net::kCmRaOffset], 0x3C);
}

TEST(Shellcode, AssemblerRejectsDataSections) {
  EXPECT_THROW(assemble_shellcode(".data\nx: .word 1\n"), isa::IsaError);
}

TEST(BruteForce, FindsMatchingWords) {
  MerkleTreeHash victim(0xDEC0DE);
  std::vector<std::uint8_t> expected = {3, 7, 11};
  std::vector<std::uint32_t> forbidden = {1, 2, 3};
  util::Rng rng(5);
  CraftResult r =
      brute_force_matching_words(victim, expected, forbidden, rng);
  ASSERT_TRUE(r.success);
  ASSERT_EQ(r.words.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(victim.hash(r.words[i]), expected[i]);
    EXPECT_NE(r.words[i], forbidden[i]);
  }
  // Expected probes ~ 16 per position for a 4-bit hash.
  EXPECT_LT(r.probes, 1000u);
}

TEST(BruteForce, RespectsBudget) {
  MerkleTreeHash victim(1);
  // 64 positions at ~16 probes each needs ~1024; budget of 10 must fail.
  std::vector<std::uint8_t> expected(64, 5);
  util::Rng rng(6);
  CraftResult r = brute_force_matching_words(victim, expected, {}, rng, 10);
  EXPECT_FALSE(r.success);
  EXPECT_LE(r.probes, 10u);
}

TEST(Transfer, SumCompressionCollisionsTransferAcrossParameters) {
  // The reproduction's key negative finding: with the prototype's
  // arithmetic-sum compression, a collision crafted against one router
  // passes on EVERY router, independent of parameter.
  util::Rng rng(7);
  MerkleTreeHash victim(rng.next_u32(), 4, Compression::ArithmeticSum);
  std::vector<std::uint32_t> originals = {0x24080001, 0x24090002, 0x01095020};
  std::vector<std::uint8_t> expected;
  for (auto w : originals) expected.push_back(victim.hash(w));
  CraftResult crafted =
      brute_force_matching_words(victim, expected, originals, rng);
  ASSERT_TRUE(crafted.success);
  for (int r = 0; r < 50; ++r) {
    MerkleTreeHash other(rng.next_u32(), 4, Compression::ArithmeticSum);
    EXPECT_TRUE(attack_transfers(other, crafted.words, originals));
  }
}

TEST(Transfer, SboxCompressionStopsTransfer) {
  util::Rng rng(8);
  MerkleTreeHash victim(rng.next_u32(), 4, Compression::SboxSum);
  std::vector<std::uint32_t> originals = {0x24080001, 0x24090002, 0x01095020,
                                          0x3C0AFFFF};
  std::vector<std::uint8_t> expected;
  for (auto w : originals) expected.push_back(victim.hash(w));
  CraftResult crafted =
      brute_force_matching_words(victim, expected, originals, rng);
  ASSERT_TRUE(crafted.success);
  int transferred = 0;
  const int routers = 400;
  for (int r = 0; r < routers; ++r) {
    MerkleTreeHash other(rng.next_u32(), 4, Compression::SboxSum);
    if (attack_transfers(other, crafted.words, originals)) ++transferred;
  }
  // Expected transfer rate (1/16)^4 ~ 1.5e-5; with 400 routers, ~0.
  EXPECT_LE(transferred, 2);
}

TEST(CodeReuse, OnlyLegitimateReturnSiteIsSilent) {
  ReuseScan scan = scan_cm_reuse_targets(0xDECAF123);
  EXPECT_GT(scan.targets, 100u);
  // The sweep includes redirecting $ra to its true return site, which is
  // normal behavior; everything else must be detected or trap.
  EXPECT_LE(scan.silent, 2u);
  EXPECT_EQ(scan.detected + scan.trapped + scan.silent, scan.targets);
  EXPECT_GT(scan.detected, scan.targets * 9 / 10);
}

TEST(CodeReuse, RedirectPacketTargetsArbitraryAddress) {
  CmAttackPacket p = craft_cm_redirect(0x00000040);
  auto parsed = net::Ipv4Packet::parse(p.packet);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->options[0].data[net::kCmRaOffset], 0x40);
  EXPECT_EQ(parsed->options[0].data[net::kCmRaOffset + 1], 0x00);
  EXPECT_EQ(p.shellcode_addr, 0x40u);
}

TEST(CodeReuse, WholeSweepIsDeterministicPerParam) {
  ReuseScan a = scan_cm_reuse_targets(0x77);
  ReuseScan b = scan_cm_reuse_targets(0x77);
  EXPECT_EQ(a.detected, b.detected);
  EXPECT_EQ(a.silent_targets, b.silent_targets);
}

TEST(Fleet, HomogeneousFleetFullyCompromised) {
  FleetConfig config;
  config.num_routers = 200;
  config.diversified = false;
  config.compression = Compression::SboxSum;
  config.attack_len = 3;
  FleetResult r = simulate_fleet(config);
  ASSERT_TRUE(r.craft_succeeded);
  EXPECT_EQ(r.compromised, 200u);
  EXPECT_DOUBLE_EQ(r.compromised_fraction, 1.0);
}

TEST(Fleet, DiversifiedSboxFleetContainsAttack) {
  FleetConfig config;
  config.num_routers = 200;
  config.diversified = true;
  config.compression = Compression::SboxSum;
  config.attack_len = 3;
  FleetResult r = simulate_fleet(config);
  ASSERT_TRUE(r.craft_succeeded);
  EXPECT_LE(r.compromised, 3u);  // victim + expected (1/16)^3 stragglers
}

TEST(Fleet, DiversifiedSumFleetStillFalls) {
  // Reproduced weakness of the prototype compression.
  FleetConfig config;
  config.num_routers = 200;
  config.diversified = true;
  config.compression = Compression::ArithmeticSum;
  config.attack_len = 3;
  FleetResult r = simulate_fleet(config);
  ASSERT_TRUE(r.craft_succeeded);
  EXPECT_EQ(r.compromised, 200u);
}

TEST(Fleet, ProbeCostGrowsWithAttackLength) {
  FleetConfig short_cfg, long_cfg;
  short_cfg.num_routers = long_cfg.num_routers = 10;
  short_cfg.attack_len = 2;
  long_cfg.attack_len = 8;
  auto a = simulate_fleet(short_cfg);
  auto b = simulate_fleet(long_cfg);
  ASSERT_TRUE(a.craft_succeeded);
  ASSERT_TRUE(b.craft_succeeded);
  EXPECT_GT(b.probes_on_victim, a.probes_on_victim);
}

}  // namespace
}  // namespace sdmmon::attack
