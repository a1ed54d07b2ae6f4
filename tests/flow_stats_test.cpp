// The flow-stats app: persistent per-flow counters in NP data memory,
// exercising the soft-reset (state survives packets) vs. full-reset
// (attack recovery wipes state) distinction.
#include <gtest/gtest.h>

#include "monitor/analysis.hpp"
#include "net/apps.hpp"
#include "net/packet.hpp"
#include "np/monitored_core.hpp"

namespace sdmmon::net {
namespace {

struct Rig {
  isa::Program program = build_flow_stats();
  np::MonitoredCore core;

  Rig() {
    monitor::MerkleTreeHash hash(0xF70A75);
    core.install(program, monitor::extract_graph(program, hash),
                 std::make_unique<monitor::MerkleTreeHash>(hash));
  }

  std::uint32_t total() {
    return core.core()
        .memory()
        .load32(program.symbol("total_count"))
        .value();
  }
  std::uint32_t bucket(std::uint8_t index) {
    return core.core()
        .memory()
        .load32(program.symbol("flow_table") + index * 4u)
        .value();
  }
  np::PacketResult send(std::uint32_t src, std::uint32_t dst) {
    return core.process_packet(
        make_udp_packet(src, dst, 1000, 2000, util::bytes_of("pl")));
  }
};

TEST(FlowStats, CountsPersistAcrossPackets) {
  Rig rig;
  const std::uint32_t src = ip(10, 0, 0, 1), dst = ip(10, 0, 0, 2);
  for (int i = 0; i < 5; ++i) {
    ASSERT_EQ(rig.send(src, dst).outcome, np::PacketOutcome::Forwarded);
  }
  EXPECT_EQ(rig.total(), 5u);
  EXPECT_EQ(rig.bucket(flow_stats_bucket(src, dst)), 5u);
}

TEST(FlowStats, DistinctFlowsUseDistinctBuckets) {
  Rig rig;
  const std::uint32_t s1 = ip(10, 0, 0, 1), d1 = ip(10, 0, 0, 2);
  const std::uint32_t s2 = ip(192, 168, 55, 7), d2 = ip(8, 8, 8, 8);
  ASSERT_NE(flow_stats_bucket(s1, d1), flow_stats_bucket(s2, d2));
  (void)rig.send(s1, d1);
  (void)rig.send(s1, d1);
  (void)rig.send(s2, d2);
  EXPECT_EQ(rig.bucket(flow_stats_bucket(s1, d1)), 2u);
  EXPECT_EQ(rig.bucket(flow_stats_bucket(s2, d2)), 1u);
  EXPECT_EQ(rig.total(), 3u);
}

TEST(FlowStats, StillForwardsCorrectly) {
  Rig rig;
  auto r = rig.send(ip(1, 2, 3, 4), ip(5, 6, 7, 8));
  ASSERT_EQ(r.outcome, np::PacketOutcome::Forwarded);
  EXPECT_TRUE(ipv4_checksum_ok(r.output));
  EXPECT_EQ(Ipv4Packet::parse(r.output)->ttl, 63);
}

TEST(FlowStats, MalformedPacketsNotCounted) {
  Rig rig;
  (void)rig.core.process_packet(util::Bytes(6, 0));  // too short
  EXPECT_EQ(rig.total(), 0u);
}

TEST(FlowStats, FullResetWipesCounters) {
  // Trap recovery re-images data memory: counters reset to zero. A
  // one-cycle watchdog budget makes the next packet trap.
  Rig rig;
  (void)rig.send(ip(1, 1, 1, 1), ip(2, 2, 2, 2));
  ASSERT_EQ(rig.total(), 1u);
  rig.core.set_watchdog_budget(1);
  ASSERT_EQ(rig.send(ip(1, 1, 1, 1), ip(2, 2, 2, 2)).outcome,
            np::PacketOutcome::Trapped);
  EXPECT_EQ(rig.total(), 0u);
}

TEST(FlowStats, OracleMatchesByteOrderInsensitivity) {
  // The fold xors all four bytes, so byte order cannot matter.
  EXPECT_EQ(flow_stats_bucket(0x01020304, 0), 0x01 ^ 0x02 ^ 0x03 ^ 0x04);
  EXPECT_EQ(flow_stats_bucket(0, 0xAABBCCDD), 0xAA ^ 0xBB ^ 0xCC ^ 0xDD);
  EXPECT_EQ(flow_stats_bucket(0xFF00FF00, 0x00FF00FF), 0x00);
}

}  // namespace
}  // namespace sdmmon::net
