// The install-time monitor summary (np::MonitorSummary) against the
// per-hash path it replaces. on_hashed() over a hash slice, stopped at the
// first Mismatch, is the oracle: settling a superblock dispatch through
// the summary must give the same accepted count, attack flag, tracked
// set, MonitorStats, peak width and exit bit, for every anchor, entry
// state and retired length -- including graphs whose numbering defeats
// the seed rule.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "attack/attack.hpp"
#include "isa/assembler.hpp"
#include "monitor/analysis.hpp"
#include "monitor/compiled_graph.hpp"
#include "monitor/monitor.hpp"
#include "net/apps.hpp"
#include "np/compiled_program.hpp"
#include "np/monitor_summary.hpp"
#include "np/monitored_core.hpp"
#include "util/rng.hpp"

namespace sdmmon::np {
namespace {

using monitor::CompiledGraph;
using monitor::Compression;
using monitor::HardwareMonitor;
using monitor::MerkleTreeHash;

struct App {
  const char* name;
  isa::Program program;
};

std::vector<App> shipped_apps() {
  return {
      {"ipv4-forward", net::build_ipv4_forward()},
      {"ipv4-cm", net::build_ipv4_cm()},
      {"udp-echo", net::build_udp_echo()},
      {"firewall", net::build_firewall({21, 22, 23, 53, 80, 443, 8080})},
      {"loop-forward", net::build_loop_forward()},
      {"flow-stats", net::build_flow_stats()},
      {"ipip-encap", net::build_ipip_encap(0x0A000001, 0x0A000002)},
      {"ipip-decap", net::build_ipip_decap()},
  };
}

void expect_same_monitor(const HardwareMonitor& got,
                         const HardwareMonitor& want, const std::string& at) {
  EXPECT_EQ(got.attack_flagged(), want.attack_flagged()) << at;
  EXPECT_EQ(got.state_nodes(), want.state_nodes()) << at;
  EXPECT_EQ(got.state_size(), want.state_size()) << at;
  EXPECT_EQ(got.peak_state_size(), want.peak_state_size()) << at;
  EXPECT_EQ(got.exit_allowed(), want.exit_allowed()) << at;
  const monitor::MonitorStats& a = got.stats();
  const monitor::MonitorStats& b = want.stats();
  EXPECT_EQ(a.instructions_checked, b.instructions_checked) << at;
  EXPECT_EQ(a.mismatches, b.mismatches) << at;
  EXPECT_EQ(a.packets_monitored, b.packets_monitored) << at;
  EXPECT_EQ(a.state_size_accum, b.state_size_accum) << at;
}

bool same_monitor(const HardwareMonitor& got, const HardwareMonitor& want) {
  const monitor::MonitorStats& a = got.stats();
  const monitor::MonitorStats& b = want.stats();
  return got.attack_flagged() == want.attack_flagged() &&
         got.state_nodes() == want.state_nodes() &&
         got.state_size() == want.state_size() &&
         got.peak_state_size() == want.peak_state_size() &&
         got.exit_allowed() == want.exit_allowed() &&
         a.instructions_checked == b.instructions_checked &&
         a.mismatches == b.mismatches &&
         a.packets_monitored == b.packets_monitored &&
         a.state_size_accum == b.state_size_accum;
}

// The oracle: `n` hashes through on_hashed(), stopping at the first
// Mismatch. Returns how many matched before it.
std::size_t feed_per_hash(HardwareMonitor& monitor,
                          const std::uint8_t* hashes, std::size_t n) {
  std::size_t ok = 0;
  while (ok < n && monitor.on_hashed(hashes[ok]) == monitor::Verdict::Ok) {
    ++ok;
  }
  return ok;
}

struct DiffCount {
  std::size_t cases = 0;
  std::size_t joined = 0;
};

// Every superblock anchor of `code`, from every state whose tracked set
// holds the anchor's node, the entry state and `random_states` sampled
// states, for every retired length.
void run_differential(const std::shared_ptr<const CompiledGraph>& graph,
                      const std::shared_ptr<const CompiledProgram>& code,
                      const MerkleTreeHash& hash, std::size_t random_states,
                      const std::string& label, DiffCount& count) {
  const std::shared_ptr<const MonitorSummary> summary =
      MonitorSummary::build(graph, code);
  HardwareMonitor fast(graph, hash.clone());
  HardwareMonitor oracle(graph, hash.clone());

  std::vector<std::vector<std::uint32_t>> holding(graph->num_nodes());
  for (std::uint32_t s = 0; s < graph->num_states(); ++s) {
    for (std::uint32_t m : graph->members(s)) holding[m].push_back(s);
  }
  util::Rng rng(0x5EED);

  for (std::uint32_t i = 0; i < code->num_ops(); ++i) {
    const CompiledProgram::TraceRef ref =
        code->trace_at(code->text_base() + i * 4);
    if (ref.len == 0) continue;
    std::vector<std::uint32_t> states;
    if (i < holding.size()) states = holding[i];
    states.push_back(graph->entry_state());
    for (std::size_t r = 0; r < random_states; ++r) {
      states.push_back(static_cast<std::uint32_t>(
          rng.next_u32() % graph->num_states()));
    }
    const monitor::CanonicalLane lane = summary->lane(ref.hashes);
    for (std::uint32_t state : states) {
      for (std::uint32_t len = 1; len <= ref.len; ++len) {
        fast.seek(state);
        oracle.seek(state);
        const HardwareMonitor::LaneAdvance got =
            fast.advance(lane, ref.hashes, len);
        const std::size_t want = feed_per_hash(oracle, ref.hashes, len);
        if (got.ok != want || !same_monitor(fast, oracle)) {
          const std::string at = label + " anchor " + std::to_string(i) +
                                 " state " + std::to_string(state) +
                                 " len " + std::to_string(len);
          EXPECT_EQ(got.ok, want) << at;
          expect_same_monitor(fast, oracle, at);
          return;
        }
        ++count.cases;
        if (got.joined) ++count.joined;
      }
    }
  }
}

class SummaryDifferential : public ::testing::TestWithParam<std::size_t> {};

TEST_P(SummaryDifferential, MatchesPerHashAdvanceOnShippedApp) {
  const App app = shipped_apps()[GetParam()];
  for (Compression compression :
       {Compression::ArithmeticSum, Compression::SboxSum}) {
    for (int width : {1, 2, 4, 8}) {
      for (std::uint32_t param : {0xBEEFCAFEu, 0x1234567u}) {
        const MerkleTreeHash hash(param, width, compression);
        auto graph =
            CompiledGraph::compile(monitor::extract_graph(app.program, hash));
        auto code = CompiledProgram::compile(app.program, hash);
        const std::string label =
            std::string(app.name) + " " +
            monitor::compression_name(compression) + " w=" +
            std::to_string(width) + " p=" + std::to_string(param);
        DiffCount count;
        run_differential(graph, code, hash, 2, label, count);
        ASSERT_FALSE(HasFailure()) << label;
        EXPECT_GT(count.cases, 0u) << label;
        EXPECT_GT(count.joined, 0u) << label;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    ShippedApps, SummaryDifferential, ::testing::Range<std::size_t>(0, 8),
    [](const ::testing::TestParamInfo<std::size_t>& info) {
      std::string name = shipped_apps()[info.param].name;
      std::replace(name.begin(), name.end(), '-', '_');
      return name;
    });

// A graph that accepts exactly what extract_graph's does, with its nodes
// renumbered so node k is no longer text op k: the seed rule names the
// wrong node, so summarised runs join rarely or never -- and every result
// must still be exact.
TEST(SummaryDifferentialRenumbered, SeedMissesStayExact) {
  const isa::Program program = net::build_ipv4_cm();
  for (int width : {2, 4}) {
    const MerkleTreeHash hash(0xC0FFEE, width);
    const monitor::MonitoringGraph natural =
        monitor::extract_graph(program, hash);
    const std::size_t n = natural.size();
    std::vector<std::uint32_t> perm(n);
    std::iota(perm.begin(), perm.end(), 0u);
    util::Rng rng(0xB00);
    for (std::size_t i = n; i > 1; --i) {
      std::swap(perm[i - 1], perm[rng.next_u32() % i]);
    }
    std::vector<monitor::GraphNode> nodes(n);
    for (std::size_t k = 0; k < n; ++k) {
      monitor::GraphNode node = natural.node(static_cast<std::uint32_t>(k));
      for (std::uint32_t& succ : node.successors) succ = perm[succ];
      nodes[perm[k]] = std::move(node);
    }
    auto renumbered = CompiledGraph::compile(monitor::MonitoringGraph(
        natural.hash_width(), natural.text_base(),
        perm[natural.entry_index()], std::move(nodes)));
    auto code = CompiledProgram::compile(program, hash);
    const std::string label = "renumbered w=" + std::to_string(width);
    DiffCount miss, hit;
    run_differential(renumbered, code, hash, 4, label, miss);
    ASSERT_FALSE(HasFailure());

    run_differential(CompiledGraph::compile(natural), code, hash, 4,
                     label + " natural", hit);
    ASSERT_FALSE(HasFailure());
    EXPECT_LT(miss.joined, hit.joined) << label;
  }
}

// Runs whose widths pass the peak byte's range: the stored peak
// saturates, and the rescan must still find the exact maximum -- also
// when the current peak is already past the byte's range. Nodes 5 and 40
// are widened with appended trap terminals (no successors, hashes
// spread over all 16 values), so their multi-matches collapse into a few
// subset states and the graph stays within the compiler's bound.
TEST(SummaryDifferentialWide, SaturatedPeakStaysExact) {
  std::string source = "main:\n";
  for (int i = 0; i < 450; ++i) {
    source += "    addiu $t0, $t0, " + std::to_string(i) + "\n";
  }
  source += "    jr $ra\n";
  const isa::Program program = isa::assemble(source);
  const MerkleTreeHash hash(0xF00D, 4);
  const monitor::MonitoringGraph chain = monitor::extract_graph(program, hash);
  std::vector<monitor::GraphNode> nodes = chain.nodes();
  const auto widen = [&nodes](std::uint32_t node, std::uint32_t extra) {
    for (std::uint32_t k = 0; k < extra; ++k) {
      nodes[node].successors.push_back(
          static_cast<std::uint32_t>(nodes.size()));
      nodes.push_back({static_cast<std::uint8_t>(k % 16), false, {}});
    }
  };
  widen(5, 310);   // node state 5: 311 wide
  widen(40, 400);  // node state 40: 401 wide
  auto graph = CompiledGraph::compile(
      monitor::MonitoringGraph(chain.hash_width(), chain.text_base(),
                               chain.entry_index(), std::move(nodes)));
  ASSERT_EQ(graph->successor_count(5), 311u);
  ASSERT_EQ(graph->successor_count(40), 401u);
  ASSERT_GT(graph->num_subset_states(), 0u);
  DiffCount count;
  run_differential(graph, CompiledProgram::compile(program, hash), hash, 8,
                   "wide", count);
  ASSERT_FALSE(HasFailure());
  EXPECT_GT(count.joined, 0u);
}

// Once an attack is latched, the lane walk accepts no hash of any slice:
// it answers Mismatch at the first hash, counted exactly as on_hashed()
// counts it, and an empty slice changes nothing.
TEST(SummaryDifferentialLatched, FlaggedMonitorAcceptsNoHash) {
  const isa::Program program = net::build_ipv4_cm();
  const MerkleTreeHash hash(0x1A7C4, 4);
  auto graph = CompiledGraph::compile(monitor::extract_graph(program, hash));
  auto code = CompiledProgram::compile(program, hash);
  auto summary = MonitorSummary::build(graph, code);
  HardwareMonitor fast(graph, hash.clone());
  HardwareMonitor oracle(graph, hash.clone());
  const std::uint8_t out_of_range = 0xFF;  // past 2^4: never steps
  std::size_t slices = 0;
  for (std::uint32_t i = 0; i < code->num_ops(); ++i) {
    const CompiledProgram::TraceRef ref =
        code->trace_at(code->text_base() + i * 4);
    if (ref.len == 0) continue;
    const std::string at = "anchor " + std::to_string(i);
    fast.reset();
    oracle.reset();
    ASSERT_EQ(fast.on_hashed(out_of_range), monitor::Verdict::Mismatch);
    ASSERT_EQ(oracle.on_hashed(out_of_range), monitor::Verdict::Mismatch);
    const monitor::CanonicalLane lane = summary->lane(ref.hashes);

    EXPECT_EQ(fast.advance(lane, ref.hashes, 0).ok, 0u) << at;
    ASSERT_NO_FATAL_FAILURE(expect_same_monitor(fast, oracle, at + " empty"));

    const std::uint64_t checked = fast.stats().instructions_checked;
    const HardwareMonitor::LaneAdvance got =
        fast.advance(lane, ref.hashes, ref.len);
    EXPECT_EQ(got.ok, 0u) << at;
    EXPECT_FALSE(got.joined) << at;
    EXPECT_EQ(feed_per_hash(oracle, ref.hashes, ref.len), 0u) << at;
    EXPECT_EQ(fast.stats().instructions_checked, checked + 1) << at;
    EXPECT_TRUE(fast.attack_flagged()) << at;
    ASSERT_NO_FATAL_FAILURE(expect_same_monitor(fast, oracle, at));
    ++slices;
  }
  EXPECT_GT(slices, 0u);
}

// Whole packets through a MonitoredCore: the summarised feed against the
// per-op interleaving of the Interpret tier, attack packets included.
TEST(SummaryDifferentialPackets, SummarisedCoreMatchesInterpreter) {
  const isa::Program program = net::build_ipv4_cm();
  const MerkleTreeHash hash(0x51DE, 4);
  const monitor::MonitoringGraph graph = monitor::extract_graph(program, hash);
  MonitoredCore fast, oracle;
  fast.install(program, graph, hash.clone());
  oracle.install(program, graph, hash.clone());
  oracle.set_tier(Tier::Interpret);
  const util::Bytes attack =
      attack::craft_cm_overflow(attack::marker_shellcode()).packet;
  std::size_t joins = 0;
  std::size_t attacks = 0;
  for (int i = 0; i < 200; ++i) {
    const util::Bytes packet =
        i % 5 == 0 ? attack
                   : attack::benign_cm_packet(static_cast<std::uint8_t>(i));
    const PacketResult a = fast.process_packet(packet);
    const PacketResult b = oracle.process_packet(packet);
    ASSERT_EQ(a.outcome, b.outcome) << "packet " << i;
    ASSERT_EQ(a.output, b.output) << "packet " << i;
    ASSERT_EQ(a.instructions, b.instructions) << "packet " << i;
    ASSERT_EQ(a.monitor_width, b.monitor_width) << "packet " << i;
    EXPECT_LE(a.summary_joins, a.trace_dispatches);
    joins += a.summary_joins;
    if (a.outcome == PacketOutcome::AttackDetected) ++attacks;
    ASSERT_NO_FATAL_FAILURE(expect_same_monitor(
        fast.monitor(), oracle.monitor(), "packet " + std::to_string(i)));
  }
  EXPECT_GT(joins, 0u);
  EXPECT_EQ(attacks, 40u);
}

TEST(MonitorSummary, SizeIsBoundedByTheLane) {
  for (const App& app : shipped_apps()) {
    for (int width : {1, 8}) {
      const MerkleTreeHash hash(0xABCD, width);
      auto graph =
          CompiledGraph::compile(monitor::extract_graph(app.program, hash));
      auto code = CompiledProgram::compile(app.program, hash);
      auto summary = MonitorSummary::build(graph, code);
      EXPECT_EQ(summary->size(), code->num_trace_ops()) << app.name;
      EXPECT_LE(summary->footprint_bytes(),
                MonitorSummary::kBytesPerLaneOp * code->num_trace_ops())
          << app.name;
    }
  }
}

// Telemetry audit (docs/THREAT_MODEL.md): under SboxSum the compiled
// graph's size depends on the secret parameter, but the summary is sized
// by the superblock lane alone, so np.engine.monitor_summary_bytes
// carries nothing about it.
TEST(MonitorSummary, FootprintIsParameterIndependentUnderSboxSum) {
  const isa::Program program = net::build_ipv4_cm();
  util::Rng rng(0x5EC);
  std::size_t first = 0;
  for (int i = 0; i < 50; ++i) {
    const MerkleTreeHash hash(rng.next_u32(), 4, Compression::SboxSum);
    auto summary = MonitorSummary::build(
        CompiledGraph::compile(monitor::extract_graph(program, hash)),
        CompiledProgram::compile(program, hash));
    if (i == 0) first = summary->footprint_bytes();
    EXPECT_EQ(summary->footprint_bytes(), first) << "parameter " << i;
  }
}

TEST(MonitorSummary, BuildRejectsNullArtifacts) {
  const isa::Program program = net::build_udp_echo();
  const MerkleTreeHash hash(0x77);
  auto graph = CompiledGraph::compile(monitor::extract_graph(program, hash));
  auto code = CompiledProgram::compile(program, hash);
  EXPECT_THROW(MonitorSummary::build(nullptr, code), std::invalid_argument);
  EXPECT_THROW(MonitorSummary::build(graph, nullptr), std::invalid_argument);
}

// A summary indexes one graph's states along one program's lane, so
// MonitoredCore::install takes it only with exactly that pair -- and
// rejects any other before the core is touched.
TEST(MonitorSummary, InstallRejectsSummaryOfAnotherPair) {
  const isa::Program program = net::build_udp_echo();
  const MerkleTreeHash hash(0x99);
  auto graph = CompiledGraph::compile(monitor::extract_graph(program, hash));
  auto code = CompiledProgram::compile(program, hash);
  auto summary = MonitorSummary::build(graph, code);
  // Equal content, different artifacts: still not the installed pair.
  auto other_graph =
      CompiledGraph::compile(monitor::extract_graph(program, hash));
  auto other_code = CompiledProgram::compile(program, hash);

  MonitoredCore core;
  core.install(program, InstallArtifacts{graph, code, summary}, hash.clone());
  EXPECT_EQ(core.summary(), summary);
  for (const InstallArtifacts& bad :
       {InstallArtifacts{other_graph, code, summary},
        InstallArtifacts{graph, other_code, summary},
        InstallArtifacts{graph, code, nullptr},
        InstallArtifacts{other_graph, other_code,
                         MonitorSummary::build(graph, other_code)}}) {
    EXPECT_THROW(core.install(program, bad, hash.clone()),
                 std::invalid_argument);
    EXPECT_EQ(core.summary(), summary);
    EXPECT_EQ(core.monitor().compiled(), graph);
    EXPECT_EQ(core.core().compiled_program(), code);
  }
}

}  // namespace
}  // namespace sdmmon::np
