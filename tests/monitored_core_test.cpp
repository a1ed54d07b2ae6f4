#include "np/monitored_core.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "isa/assembler.hpp"
#include "monitor/analysis.hpp"
#include "np/mpsoc.hpp"

namespace sdmmon::np {
namespace {

using monitor::MerkleTreeHash;
using monitor::extract_graph;

void install(MonitoredCore& core, const char* src,
             std::uint32_t param = 0x5EC0DE) {
  isa::Program p = isa::assemble(src);
  MerkleTreeHash hash(param);
  core.install(p, extract_graph(p, hash),
               std::make_unique<MerkleTreeHash>(hash));
}

// Echo app: copy the packet to the output buffer and commit.
constexpr const char* kEchoApp = R"(
main:
    li $t0, 0xFFFF0000
    lw $t1, 0($t0)        # len
    beqz $t1, drop
    li $t2, 0x30000       # src
    li $t3, 0x40000       # dst
    move $t4, $zero       # i
copy:
    addu $t5, $t2, $t4
    lbu $t6, 0($t5)
    addu $t5, $t3, $t4
    sb $t6, 0($t5)
    addiu $t4, $t4, 1
    bne $t4, $t1, copy
    li $t0, 0xFFFF0004    # commit
    sw $t1, 0($t0)
drop:
    jr $ra
)";

TEST(MonitoredCore, UninstalledDropsPackets) {
  MonitoredCore core;
  util::Bytes pkt = {1, 2, 3};
  EXPECT_EQ(core.process_packet(pkt).outcome, PacketOutcome::Dropped);
  EXPECT_FALSE(core.installed());
}

TEST(MonitoredCore, ForwardsValidPacket) {
  MonitoredCore core;
  install(core, kEchoApp);
  util::Bytes pkt = {0xDE, 0xAD, 0xBE, 0xEF};
  PacketResult r = core.process_packet(pkt);
  EXPECT_EQ(r.outcome, PacketOutcome::Forwarded);
  EXPECT_EQ(r.output, pkt);
  EXPECT_GT(r.instructions, 0u);
  EXPECT_EQ(core.stats().forwarded, 1u);
}

TEST(MonitoredCore, DropsEmptyPacketViaReturnPath) {
  MonitoredCore core;
  install(core, kEchoApp);
  PacketResult r = core.process_packet(util::Bytes{});
  EXPECT_EQ(r.outcome, PacketOutcome::Dropped);
}

TEST(MonitoredCore, ManyPacketsNoFalsePositives) {
  MonitoredCore core;
  install(core, kEchoApp);
  for (int i = 1; i <= 200; ++i) {
    util::Bytes pkt(static_cast<std::size_t>(1 + i % 64));
    for (auto& b : pkt) b = static_cast<std::uint8_t>(i);
    PacketResult r = core.process_packet(pkt);
    ASSERT_EQ(r.outcome, PacketOutcome::Forwarded) << "packet " << i;
    ASSERT_EQ(r.output, pkt);
  }
  EXPECT_EQ(core.stats().attacks_detected, 0u);
  EXPECT_EQ(core.stats().packets, 200u);
}

// An app that jumps into the packet buffer: injected code executes and the
// monitor must flag the very first foreign instruction with P=15/16.
constexpr const char* kVulnApp = R"(
main:
    li $t0, 0x30000
    jr $t0
)";

TEST(MonitoredCore, DetectsInjectedCode) {
  MonitoredCore core;
  install(core, kVulnApp);
  // Packet carries real instructions (an addiu loop).
  isa::Program payload = isa::assemble(R"(
    addiu $t0, $t0, 1
    addiu $t0, $t0, 2
    addiu $t0, $t0, 3
    jr $ra
  )");
  util::Bytes pkt(payload.text.size() * 4);
  for (std::size_t i = 0; i < payload.text.size(); ++i) {
    util::store_le32(payload.text[i], pkt.data() + 4 * i);
  }
  int detected = 0;
  const int trials = 200;
  for (int t = 0; t < trials; ++t) {
    MonitoredCore c;
    install(c, kVulnApp, static_cast<std::uint32_t>(t * 2654435761u));
    PacketResult r = c.process_packet(pkt);
    if (r.outcome == PacketOutcome::AttackDetected) ++detected;
  }
  // 4 foreign instructions, each ~15/16 detection: expect nearly all.
  EXPECT_GT(detected, trials * 9 / 10);
}

// The baseline DetectsInjectedCode is measured against: the same app on a
// bare Core, with no monitor, runs the injected code to its end.
TEST(MonitoredCore, EnforcementOffLetsAttackRun) {
  Core core;
  core.load_program(isa::assemble(kVulnApp));
  isa::Program payload = isa::assemble(R"(
    li $t2, 0xFFFF0008
    sw $zero, 0($t2)
  )");
  util::Bytes pkt(payload.text.size() * 4);
  for (std::size_t i = 0; i < payload.text.size(); ++i) {
    util::store_le32(payload.text[i], pkt.data() + 4 * i);
  }
  core.deliver_packet(pkt);
  const StepInfo last = core.run();
  // The injected store signaled done from the packet buffer.
  EXPECT_EQ(last.event, StepEvent::PacketDone);
  EXPECT_EQ(last.pc, 0x30000u + 4 * (payload.text.size() - 1));
}

TEST(MonitoredCore, TrapReportsAsTrapped) {
  MonitoredCore core;
  install(core, R"(
main:
    li $t0, 0x00990000
    lw $t1, 0($t0)
    jr $ra
)");
  PacketResult r = core.process_packet(util::Bytes{1});
  EXPECT_EQ(r.outcome, PacketOutcome::Trapped);
  EXPECT_EQ(r.trap, Trap::MemFault);
  EXPECT_EQ(core.stats().traps, 1u);
}

TEST(MonitoredCore, RecoveryAfterAttack) {
  // After an attack is detected the core must process the next packet
  // correctly (paper: drop packet, reset stack, continue).
  MonitoredCore core;
  install(core, kEchoApp);
  // First, a normal packet.
  util::Bytes good = {0x01, 0x02};
  EXPECT_EQ(core.process_packet(good).outcome, PacketOutcome::Forwarded);
  // Re-install the vulnerable app, attack it, then verify echo still works
  // after re-installing the echo app (dynamic reprogramming cycle).
  install(core, kVulnApp);
  isa::Program payload =
      isa::assemble("addiu $t1, $t1, 7\naddiu $t1, $t1, 8\njr $ra\n");
  util::Bytes pkt(payload.text.size() * 4);
  for (std::size_t i = 0; i < payload.text.size(); ++i) {
    util::store_le32(payload.text[i], pkt.data() + 4 * i);
  }
  (void)core.process_packet(pkt);  // likely detected; at minimum no crash
  install(core, kEchoApp);
  PacketResult r = core.process_packet(good);
  EXPECT_EQ(r.outcome, PacketOutcome::Forwarded);
  EXPECT_EQ(r.output, good);
}

// Echo app that counts its packets in data RAM, so a re-image shows.
constexpr const char* kCountingEchoApp = R"(
main:
    la $t7, count
    lw $t8, 0($t7)
    addiu $t8, $t8, 1
    sw $t8, 0($t7)
    li $t0, 0xFFFF0000
    lw $t1, 0($t0)        # len
    beqz $t1, drop
    li $t2, 0x30000       # src
    li $t3, 0x40000       # dst
    move $t4, $zero       # i
copy:
    addu $t5, $t2, $t4
    lbu $t6, 0($t5)
    addu $t5, $t3, $t4
    sb $t6, 0($t5)
    addiu $t4, $t4, 1
    bne $t4, $t1, copy
    li $t0, 0xFFFF0004    # commit
    sw $t1, 0($t0)
drop:
    jr $ra

.data
count:
    .word 5
)";

// An install the core cannot load throws before the core changes: the
// running app keeps its text, data, compiled program and monitor graph,
// and still forwards.
TEST(MonitoredCore, FailedInstallLeavesRunningAppAlone) {
  MonitoredCore core;
  const isa::Program app = isa::assemble(kCountingEchoApp);
  install(core, kCountingEchoApp);
  const util::Bytes pkt = {0xCA, 0xFE};
  ASSERT_EQ(core.process_packet(pkt).outcome, PacketOutcome::Forwarded);
  const auto image = [&] {
    const Memory& mem = core.core().memory();
    return std::vector<util::Bytes>{
        mem.read_block(app.text_base, app.text.size() * 4),
        mem.read_block(app.data_base, app.data.size())};
  };
  const std::vector<util::Bytes> before = image();
  ASSERT_NE(before[1], app.data) << "the packet moved the counter";
  const auto code = core.core().compiled_program();
  const auto graph = core.monitor().compiled();

  isa::Program bad = isa::assemble(kEchoApp);
  bad.data = util::Bytes(64, 0xAB);
  bad.data_base = 0xFFFF'FF00;
  MerkleTreeHash hash(0xBAD);
  EXPECT_THROW(core.install(bad, extract_graph(bad, hash),
                            std::make_unique<MerkleTreeHash>(hash)),
               std::out_of_range);

  EXPECT_EQ(image(), before);
  EXPECT_EQ(core.core().compiled_program(), code);
  EXPECT_EQ(core.monitor().compiled(), graph);
  const PacketResult r = core.process_packet(pkt);
  EXPECT_EQ(r.outcome, PacketOutcome::Forwarded);
  EXPECT_EQ(r.output, pkt);
}

TEST(Mpsoc, RoundRobinDispatch) {
  Mpsoc soc(4);
  isa::Program p = isa::assemble(kEchoApp);
  MerkleTreeHash hash(0x77777777);
  soc.install_all(p, extract_graph(p, hash), hash);
  util::Bytes pkt = {9, 8, 7};
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(soc.process_packet(pkt).outcome, PacketOutcome::Forwarded);
  }
  for (std::size_t c = 0; c < soc.num_cores(); ++c) {
    EXPECT_EQ(soc.core(c).stats().packets, 2u) << "core " << c;
  }
  EXPECT_EQ(soc.aggregate_stats().forwarded, 8u);
}

TEST(Mpsoc, FlowHashIsSticky) {
  Mpsoc soc(4, DispatchPolicy::FlowHash);
  isa::Program p = isa::assemble(kEchoApp);
  MerkleTreeHash hash(0x12121212);
  soc.install_all(p, extract_graph(p, hash), hash);
  util::Bytes pkt = {1};
  for (int i = 0; i < 10; ++i) soc.process_packet(pkt, /*flow_key=*/0xABCD);
  // All ten packets landed on one core.
  int cores_used = 0;
  for (std::size_t c = 0; c < soc.num_cores(); ++c) {
    if (soc.core(c).stats().packets > 0) ++cores_used;
  }
  EXPECT_EQ(cores_used, 1);
}

// The dispatch cursor contract the parallel engine's rollback relies on:
// it rewinds the RoundRobin cursor to a pivot packet's and re-plans the
// tail, which reproduces the serial placement only if RoundRobin consumes
// exactly one cursor step per packet and FlowHash never touches it.
TEST(Dispatch, RoundRobinConsumesCursorOncePerCall) {
  const std::vector<std::size_t> active = {1, 3, 6};
  std::size_t rr = 5;
  for (std::size_t i = 0; i < 10; ++i) {
    const std::size_t core = pick_dispatch_core(
        DispatchPolicy::RoundRobin, active,
        /*flow_key=*/static_cast<std::uint32_t>(i * 7919), rr);
    EXPECT_EQ(core, active[(5 + i) % active.size()]) << "call " << i;
    EXPECT_EQ(rr, 5 + i + 1) << "call " << i;
  }
}

TEST(Dispatch, FlowHashNeverTouchesCursorAndIsStable) {
  const std::vector<std::vector<std::size_t>> active_sets = {
      {0, 1, 2, 3}, {0, 2, 3}, {5}, {1, 4, 7, 9, 12}};
  const std::uint32_t keys[] = {0, 1, 2, 0xABCD, 0xE1EFA27, 0xFFFFFFFFu};
  for (const std::vector<std::size_t>& active : active_sets) {
    for (const std::uint32_t key : keys) {
      std::size_t rr_a = 42;
      std::size_t rr_b = 7;
      const std::size_t a =
          pick_dispatch_core(DispatchPolicy::FlowHash, active, key, rr_a);
      const std::size_t b =
          pick_dispatch_core(DispatchPolicy::FlowHash, active, key, rr_b);
      EXPECT_EQ(rr_a, 42u) << "key " << key;
      EXPECT_EQ(rr_b, 7u) << "key " << key;
      // Same key and active set -> same core, whatever the cursor holds.
      EXPECT_EQ(a, b) << "key " << key;
      EXPECT_NE(std::find(active.begin(), active.end(), a), active.end())
          << "key " << key << " picked core " << a << " outside active";
    }
  }
}

TEST(Mpsoc, PerCoreHeterogeneousInstall) {
  Mpsoc soc(2);
  isa::Program echo = isa::assemble(kEchoApp);
  isa::Program drop = isa::assemble("main:\n jr $ra\n");
  MerkleTreeHash h1(1), h2(2);
  soc.install(0, echo,
              validate_install_config(echo, extract_graph(echo, h1), h1),
              std::make_unique<MerkleTreeHash>(h1));
  soc.install(1, drop,
              validate_install_config(drop, extract_graph(drop, h2), h2),
              std::make_unique<MerkleTreeHash>(h2));
  util::Bytes pkt = {5};
  EXPECT_EQ(soc.process_packet(pkt).outcome, PacketOutcome::Forwarded);
  EXPECT_EQ(soc.process_packet(pkt).outcome, PacketOutcome::Dropped);
}

}  // namespace
}  // namespace sdmmon::np
