#include "monitor/monitor.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <stdexcept>
#include <utility>
#include <vector>

#include "isa/assembler.hpp"
#include "monitor/analysis.hpp"
#include "monitor/reference_monitor.hpp"
#include "net/apps.hpp"
#include "support/subset_closure.hpp"
#include "util/rng.hpp"

namespace sdmmon::monitor {
namespace {

struct Setup {
  isa::Program program;
  HardwareMonitor monitor;
};

Setup make(const char* src, std::uint32_t param = 0x600DCAFE, int width = 4) {
  isa::Program p = isa::assemble(src);
  MerkleTreeHash hash(param, width);
  return {p, HardwareMonitor(extract_graph(p, hash),
                             std::make_unique<MerkleTreeHash>(hash))};
}

// Feed the straight-line execution trace of a program with no branches.
void feed_linear(HardwareMonitor& m, const isa::Program& p,
                 std::size_t count) {
  for (std::size_t i = 0; i < count; ++i) {
    ASSERT_EQ(m.on_instruction(p.text[i]), Verdict::Ok) << "instr " << i;
  }
}

TEST(Monitor, AcceptsValidStraightLineExecution) {
  auto s = make(R"(
main:
    addiu $t0, $t0, 1
    addiu $t1, $t1, 2
    addu $t2, $t0, $t1
    jr $ra
  )");
  feed_linear(s.monitor, s.program, s.program.text.size());
  EXPECT_TRUE(s.monitor.exit_allowed());
  EXPECT_FALSE(s.monitor.attack_flagged());
}

TEST(Monitor, AcceptsBothBranchOutcomes) {
  const char* src = R"(
main:
    beq $t0, $t1, skip
    addiu $t0, $t0, 1
skip:
    jr $ra
  )";
  // Not-taken path: beq, addiu, jr.
  auto a = make(src);
  EXPECT_EQ(a.monitor.on_instruction(a.program.text[0]), Verdict::Ok);
  EXPECT_EQ(a.monitor.on_instruction(a.program.text[1]), Verdict::Ok);
  EXPECT_EQ(a.monitor.on_instruction(a.program.text[2]), Verdict::Ok);
  EXPECT_TRUE(a.monitor.exit_allowed());
  // Taken path: beq, jr.
  auto b = make(src);
  EXPECT_EQ(b.monitor.on_instruction(b.program.text[0]), Verdict::Ok);
  EXPECT_EQ(b.monitor.on_instruction(b.program.text[2]), Verdict::Ok);
  EXPECT_TRUE(b.monitor.exit_allowed());
}

TEST(Monitor, DetectsForeignInstructionWithHighProbability) {
  // Substituting random instructions must be detected at rate ~15/16 per
  // instruction for a 4-bit hash (Section 2.1).
  auto base_src = R"(
main:
    addiu $t0, $t0, 1
    addiu $t1, $t1, 2
    addiu $t2, $t2, 3
    addiu $t3, $t3, 4
    jr $ra
  )";
  util::Rng rng(42);
  int detected = 0;
  const int trials = 4000;
  for (int t = 0; t < trials; ++t) {
    auto s = make(base_src, 0xAAAA5555);
    // Execute two valid instructions, then one random foreign word.
    s.monitor.on_instruction(s.program.text[0]);
    s.monitor.on_instruction(s.program.text[1]);
    std::uint32_t foreign = rng.next_u32();
    if (foreign == s.program.text[2]) continue;  // astronomically rare
    if (s.monitor.on_instruction(foreign) == Verdict::Mismatch) ++detected;
  }
  const double rate = static_cast<double>(detected) / trials;
  EXPECT_NEAR(rate, 15.0 / 16.0, 0.02);
}

TEST(Monitor, MismatchLatchesUntilReset) {
  auto s = make("main:\n addiu $t0, $t0, 1\n jr $ra\n");
  // Find a word whose hash differs from instruction 0's.
  std::uint32_t bad = 0;
  while (s.monitor.hash().hash(bad) == s.monitor.graph().node(0).hash) ++bad;
  EXPECT_EQ(s.monitor.on_instruction(bad), Verdict::Mismatch);
  EXPECT_TRUE(s.monitor.attack_flagged());
  // Even a now-valid word keeps reporting mismatch until reset.
  EXPECT_EQ(s.monitor.on_instruction(s.program.text[0]), Verdict::Mismatch);
  s.monitor.reset();
  EXPECT_FALSE(s.monitor.attack_flagged());
  EXPECT_EQ(s.monitor.on_instruction(s.program.text[0]), Verdict::Ok);
}

TEST(Monitor, ExitOnlyAllowedAfterExitCapableInstruction) {
  auto s = make(R"(
main:
    addiu $t0, $t0, 1
    jr $ra
  )");
  EXPECT_EQ(s.monitor.on_instruction(s.program.text[0]), Verdict::Ok);
  EXPECT_FALSE(s.monitor.exit_allowed());  // addiu cannot end the handler
  EXPECT_EQ(s.monitor.on_instruction(s.program.text[1]), Verdict::Ok);
  EXPECT_TRUE(s.monitor.exit_allowed());
}

TEST(Monitor, NothingValidAfterTrapInstruction) {
  auto s = make("main:\n syscall\n nop\n");
  EXPECT_EQ(s.monitor.on_instruction(s.program.text[0]), Verdict::Ok);
  // syscall has no successors; anything after it is an attack.
  EXPECT_EQ(s.monitor.on_instruction(s.program.text[1]), Verdict::Mismatch);
}

TEST(Monitor, LoopExecutionStaysValid) {
  auto s = make(R"(
main:
    li $t1, 3
loop:
    addiu $t0, $t0, 1
    bne $t0, $t1, loop
    jr $ra
  )");
  const auto& text = s.program.text;
  // li expands to lui+ori (indices 0,1); loop body 2,3; exit 4.
  ASSERT_EQ(text.size(), 5u);
  EXPECT_EQ(s.monitor.on_instruction(text[0]), Verdict::Ok);
  EXPECT_EQ(s.monitor.on_instruction(text[1]), Verdict::Ok);
  for (int iter = 0; iter < 3; ++iter) {
    EXPECT_EQ(s.monitor.on_instruction(text[2]), Verdict::Ok);
    EXPECT_EQ(s.monitor.on_instruction(text[3]), Verdict::Ok);
  }
  EXPECT_EQ(s.monitor.on_instruction(text[4]), Verdict::Ok);
  EXPECT_TRUE(s.monitor.exit_allowed());
}

TEST(Monitor, StatsAccumulate) {
  auto s = make("main:\n addiu $t0, $t0, 1\n jr $ra\n");
  s.monitor.on_instruction(s.program.text[0]);
  s.monitor.on_instruction(s.program.text[1]);
  EXPECT_EQ(s.monitor.stats().instructions_checked, 2u);
  EXPECT_EQ(s.monitor.stats().mismatches, 0u);
  EXPECT_GT(s.monitor.stats().average_ambiguity(), 0.0);
}

TEST(Monitor, InstallSwapsProgram) {
  auto s = make("main:\n addiu $t0, $t0, 1\n jr $ra\n");
  isa::Program p2 = isa::assemble("main:\n xori $t5, $t5, 0x7\n jr $ra\n");
  MerkleTreeHash h2(0x22222222);
  s.monitor.install(extract_graph(p2, h2),
                    std::make_unique<MerkleTreeHash>(h2));
  EXPECT_EQ(s.monitor.on_instruction(p2.text[0]), Verdict::Ok);
  EXPECT_EQ(s.monitor.on_instruction(p2.text[1]), Verdict::Ok);
}

TEST(Monitor, HashedInterfaceMatchesWordInterface) {
  auto s1 = make("main:\n addiu $t0, $t0, 1\n jr $ra\n");
  auto s2 = make("main:\n addiu $t0, $t0, 1\n jr $ra\n");
  std::uint8_t h = s2.monitor.hash().hash(s2.program.text[0]);
  EXPECT_EQ(s1.monitor.on_instruction(s1.program.text[0]),
            s2.monitor.on_hashed(h));
}

// Property sweep: for random straight-line programs, the true execution is
// always accepted (no false positives), across widths.
class NoFalsePositiveTest : public ::testing::TestWithParam<int> {};

TEST_P(NoFalsePositiveTest, ValidTracesAlwaysAccepted) {
  const int width = GetParam();
  util::Rng rng(100 + width);
  const char* alu_ops[] = {"addiu", "ori", "xori", "andi"};
  for (int t = 0; t < 50; ++t) {
    std::string src = "main:\n";
    const int len = 3 + static_cast<int>(rng.below(20));
    for (int i = 0; i < len; ++i) {
      src += "  ";
      src += alu_ops[rng.below(4)];
      src += " $t" + std::to_string(rng.below(8)) + ", $t" +
             std::to_string(rng.below(8)) + ", " +
             std::to_string(rng.below(1000)) + "\n";
    }
    src += "  jr $ra\n";
    isa::Program p = isa::assemble(src);
    MerkleTreeHash hash(rng.next_u32(), width);
    HardwareMonitor m(extract_graph(p, hash),
                      std::make_unique<MerkleTreeHash>(hash));
    for (std::uint32_t word : p.text) {
      ASSERT_EQ(m.on_instruction(word), Verdict::Ok);
    }
    EXPECT_TRUE(m.exit_allowed());
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, NoFalsePositiveTest,
                         ::testing::Values(2, 4, 8));

// ---- stats semantics -------------------------------------------------------

// Regression: packets_monitored counts reset() (one per packet armed) and
// nothing else. Construction and install() re-arm the state machine but
// are not packets; historically both paths routed through reset() and the
// counter ran ahead of the real packet count.
TEST(Monitor, PacketsMonitoredCountsOnlyPacketResets) {
  auto s = make("main:\n addiu $t0, $t0, 1\n jr $ra\n");
  EXPECT_EQ(s.monitor.stats().packets_monitored, 0u);  // construction
  s.monitor.reset();
  s.monitor.reset();
  EXPECT_EQ(s.monitor.stats().packets_monitored, 2u);

  isa::Program p2 = isa::assemble("main:\n xori $t5, $t5, 0x7\n jr $ra\n");
  MerkleTreeHash h2(0x33333333);
  s.monitor.install(extract_graph(p2, h2),
                    std::make_unique<MerkleTreeHash>(h2));
  EXPECT_EQ(s.monitor.stats().packets_monitored, 2u);  // install: no packet
  s.monitor.reset();
  EXPECT_EQ(s.monitor.stats().packets_monitored, 3u);

  ReferenceMonitor ref(extract_graph(p2, h2),
                       std::make_unique<MerkleTreeHash>(h2));
  EXPECT_EQ(ref.stats().packets_monitored, 0u);
  ref.reset();
  ref.install(extract_graph(p2, h2), std::make_unique<MerkleTreeHash>(h2));
  EXPECT_EQ(ref.stats().packets_monitored, 1u);
}

// ---- compiled matcher edge cases -------------------------------------------

HardwareMonitor make_synthetic(MonitoringGraph graph) {
  return HardwareMonitor(std::move(graph),
                         std::make_unique<MerkleTreeHash>(0xABCD, 4));
}

// A trap terminal (node with no successors) must match in the same pass
// that detects mismatches: the match itself is Ok (and carries the node's
// exit capability), the state set then runs empty, and the NEXT report is
// the mismatch. No second rescan decides this.
TEST(Monitor, TrapTerminalMatchThenMismatch) {
  // entry(hash 3) -> trap(hash 5, no successors, cannot exit)
  MonitoringGraph graph(4, 0x1000, 0,
                        {{3, false, {1}}, {5, false, {}}});
  HardwareMonitor m = make_synthetic(graph);
  ReferenceMonitor ref(graph, std::make_unique<MerkleTreeHash>(0xABCD, 4));
  auto feed = [&](std::uint8_t h) {
    Verdict v = m.on_hashed(h);
    EXPECT_EQ(v, ref.on_hashed(h));
    return v;
  };
  EXPECT_EQ(feed(3), Verdict::Ok);
  EXPECT_EQ(m.state_size(), 1u);           // {trap}
  EXPECT_EQ(feed(5), Verdict::Ok);         // trap terminal matches...
  EXPECT_FALSE(m.exit_allowed());
  EXPECT_EQ(m.state_size(), 0u);           // ...and strands the NFA
  EXPECT_FALSE(m.attack_flagged());
  EXPECT_EQ(feed(3), Verdict::Mismatch);   // anything after it: attack
  EXPECT_TRUE(m.attack_flagged());
}

// An exit-capable trap terminal still reports exit_allowed from the same
// single matching pass.
TEST(Monitor, ExitCapableTrapTerminalAllowsExit) {
  MonitoringGraph graph(4, 0x1000, 0, {{7, true, {}}});
  HardwareMonitor m = make_synthetic(graph);
  EXPECT_EQ(m.on_hashed(7), Verdict::Ok);
  EXPECT_TRUE(m.exit_allowed());
  EXPECT_EQ(m.state_size(), 0u);
}

// Hashed reports outside [0, 2^w) cannot match any node; the bucketed
// matcher must treat them as a plain mismatch, not an out-of-bounds read.
TEST(Monitor, OutOfRangeHashedReportIsMismatch) {
  MonitoringGraph graph(4, 0x1000, 0, {{3, true, {0}}});
  HardwareMonitor m = make_synthetic(graph);
  EXPECT_EQ(m.on_hashed(0xF3), Verdict::Mismatch);  // >= 2^4
  EXPECT_TRUE(m.attack_flagged());
  m.reset();
  EXPECT_EQ(m.on_hashed(3), Verdict::Ok);
}

// ---- CompiledGraph artifact ------------------------------------------------

TEST(CompiledGraph, FlattensSourceIntoCsrForm) {
  MonitoringGraph graph(4, 0x2000, 1,
                        {{3, false, {1, 2}}, {9, true, {0}}, {9, false, {}}});
  auto compiled = CompiledGraph::compile(graph);
  ASSERT_EQ(compiled->num_nodes(), 3u);
  EXPECT_EQ(compiled->num_edges(), 3u);
  EXPECT_EQ(compiled->hash_width(), 4);
  EXPECT_EQ(compiled->entry_index(), 1u);
  EXPECT_EQ(compiled->node_hash(0), 3u);
  EXPECT_TRUE(compiled->node_can_exit(1));
  EXPECT_FALSE(compiled->node_can_exit(2));
  ASSERT_EQ(compiled->successors(0).size(), 2u);
  EXPECT_EQ(compiled->successors(0)[1], 2u);
  EXPECT_TRUE(compiled->successors(2).empty());
  // Both successors of node 0 carry hash 9: one bucket holds them.
  EXPECT_EQ(compiled->bucket(0, 9).size(), 2u);
  EXPECT_TRUE(compiled->bucket(0, 3).empty());
  EXPECT_GT(compiled->footprint_bytes(), 0u);
  EXPECT_EQ(compiled->source(), graph);
}

TEST(CompiledGraph, RejectsMalformedGraphs) {
  // Successor index out of range.
  EXPECT_THROW(CompiledGraph::compile(MonitoringGraph(
                   4, 0, 0, {{1, false, {7}}})),
               std::invalid_argument);
  // Entry index out of range.
  EXPECT_THROW(CompiledGraph::compile(MonitoringGraph(
                   4, 0, 5, {{1, false, {}}})),
               std::invalid_argument);
  // Node hash wider than the declared width.
  EXPECT_THROW(CompiledGraph::compile(MonitoringGraph(
                   2, 0, 0, {{9, false, {}}})),
               std::invalid_argument);
  // Hash width outside [1, 8].
  EXPECT_THROW(CompiledGraph::compile(MonitoringGraph(
                   0, 0, 0, {{0, false, {}}})),
               std::invalid_argument);
  EXPECT_THROW(CompiledGraph::compile(MonitoringGraph(
                   9, 0, 0, {{1, false, {}}})),
               std::invalid_argument);
}

// ---- install-time determinisation -----------------------------------------

TEST(CompiledGraph, MultiMatchBecomesASubsetState) {
  // entry(1) -> {1, 2}, both hash 3; 1 -> {3 (hash 5, exit)}; 2 -> {4}.
  MonitoringGraph graph(4, 0x1000, 0,
                        {{1, false, {1, 2}},
                         {3, true, {3}},
                         {3, false, {4}},
                         {5, true, {}},
                         {6, false, {}}});
  auto compiled = CompiledGraph::compile(graph);
  ASSERT_EQ(compiled->num_subset_states(), 1u);
  ASSERT_EQ(compiled->num_states(), compiled->num_nodes() + 2);
  testsupport::expect_closed(*compiled);

  const std::uint32_t* next = compiled->fast_next_data();
  const std::uint32_t entry = compiled->entry_state();
  const std::uint32_t subset = entry + 1;
  EXPECT_EQ(next[(entry << 4) | 1], 0u);
  EXPECT_EQ(next[(entry << 4) | 2], CompiledGraph::kFastEmpty);
  EXPECT_EQ(next[(0u << 4) | 3], subset);
  EXPECT_EQ(compiled->succ_count_data()[subset], 2u);
  EXPECT_EQ(compiled->node_exit_data()[subset], 1u);  // node 1 can exit
  ASSERT_EQ(compiled->members(subset).size(), 2u);
  EXPECT_EQ(compiled->members(subset)[0], 3u);
  EXPECT_EQ(compiled->members(subset)[1], 4u);
  EXPECT_EQ(next[(subset << 4) | 5], 3u);
  EXPECT_EQ(next[(subset << 4) | 6], 4u);

  HardwareMonitor m(compiled, std::make_unique<MerkleTreeHash>(0xABCD, 4));
  EXPECT_EQ(m.state_size(), 1u);
  EXPECT_EQ(m.on_hashed(1), Verdict::Ok);
  EXPECT_EQ(m.on_hashed(3), Verdict::Ok);
  EXPECT_EQ(m.state_nodes(), (std::vector<std::uint32_t>{3, 4}));
  EXPECT_TRUE(m.exit_allowed());
}

void expect_agree(const HardwareMonitor& compiled,
                  const ReferenceMonitor& reference) {
  ASSERT_EQ(compiled.state_nodes(), reference.state_nodes());
  ASSERT_EQ(compiled.state_size(), reference.state_size());
  ASSERT_EQ(compiled.exit_allowed(), reference.exit_allowed());
  ASSERT_EQ(compiled.attack_flagged(), reference.attack_flagged());
  ASSERT_EQ(compiled.peak_state_size(), reference.peak_state_size());
  ASSERT_EQ(compiled.stats().instructions_checked,
            reference.stats().instructions_checked);
  ASSERT_EQ(compiled.stats().mismatches, reference.stats().mismatches);
  ASSERT_EQ(compiled.stats().state_size_accum,
            reference.stats().state_size_accum);
}

// Walks `streams` through the compiled monitor -- per hash, and batched
// through advance() -- and through the reference walker, requiring
// agreement on every observable.
void run_against_reference(const MonitoringGraph& graph,
                           const std::vector<std::vector<std::uint8_t>>&
                               streams) {
  auto compiled = CompiledGraph::compile(graph);
  HardwareMonitor stepped(compiled,
                          std::make_unique<MerkleTreeHash>(0xABCD, 8));
  HardwareMonitor batched(compiled,
                          std::make_unique<MerkleTreeHash>(0xABCD, 8));
  ReferenceMonitor reference(graph,
                             std::make_unique<MerkleTreeHash>(0xABCD, 8));
  for (const auto& stream : streams) {
    stepped.reset();
    batched.reset();
    reference.reset();
    for (std::uint8_t report : stream) {
      ASSERT_EQ(stepped.on_hashed(report), reference.on_hashed(report));
      ASSERT_NO_FATAL_FAILURE(expect_agree(stepped, reference));
    }
    (void)batched.advance(stream.data(), stream.size(), false);
    ASSERT_NO_FATAL_FAILURE(expect_agree(batched, reference));
  }
}

// Two all-hash-0 cycles of coprime lengths p and q, both entered from
// the entry node: the matched pair {x_i mod p, y_i mod q} runs through
// p * q distinct subsets against 1 + p + q nodes. Each costs 2 member
// entries, so the state bound is the one that binds.
MonitoringGraph coprime_cycles(std::uint32_t p, std::uint32_t q) {
  std::vector<GraphNode> nodes(1 + p + q);
  nodes[0] = {0, false, {1, 1 + p}};
  for (std::uint32_t i = 0; i < p; ++i) {
    nodes[1 + i] = {0, i == 0, {1 + (i + 1) % p}};
  }
  for (std::uint32_t j = 0; j < q; ++j) {
    nodes[1 + p + j] = {0, j == 0, {1 + p + (j + 1) % q}};
  }
  return MonitoringGraph(1, 0x1000, 0, std::move(nodes));
}

// The classic "k-th symbol from the end is 1" NFA: its subset automaton
// has 2^k reachable states against 2k + 2 nodes.
MonitoringGraph kth_from_end(std::uint32_t k) {
  // 0 entry, 1/2 the any-symbol loop (hash 0/1), 3 the guessed 1,
  // then chain positions 2..k as pairs (hash 0, hash 1).
  std::vector<GraphNode> nodes(4 + 2 * (k - 1));
  const std::vector<std::uint32_t> loop = {1, 2, 3};
  const auto chain = [](std::uint32_t i) {  // first node of position i
    return 4 + 2 * (i - 2);
  };
  nodes[0] = {0, false, loop};
  nodes[1] = {0, false, loop};
  nodes[2] = {1, false, loop};
  nodes[3] = {1, false, {chain(2), chain(2) + 1}};
  for (std::uint32_t i = 2; i <= k; ++i) {
    for (std::uint8_t bit = 0; bit < 2; ++bit) {
      GraphNode& node = nodes[chain(i) + bit];
      node.hash = bit;
      node.can_exit = i == k;
      if (i < k) node.successors = {chain(i + 1), chain(i + 1) + 1};
    }
  }
  return MonitoringGraph(1, 0x1000, 0, std::move(nodes));
}

// `graph` with every node hash shifted by `c` mod 2^w: what a different
// hash parameter does to an extracted graph under ArithmeticSum.
MonitoringGraph rotated(const MonitoringGraph& graph, std::uint32_t c) {
  std::vector<GraphNode> nodes = graph.nodes();
  const std::uint32_t mask = (1u << graph.hash_width()) - 1;
  for (GraphNode& node : nodes) {
    node.hash = static_cast<std::uint8_t>((node.hash + c) & mask);
  }
  return MonitoringGraph(graph.hash_width(), graph.text_base(),
                         graph.entry_index(), std::move(nodes));
}

// A graph whose reachable subsets outnumber the bound does not fit the
// monitor's table: compile() rejects it as a typed error, as does every
// HardwareMonitor path that compiles, while the unbounded reference
// walker still takes it. One exactly at the bound compiles and walks
// like the reference.
TEST(CompiledGraph, BoundedSubsetConstructionRejectsGraphsPastTheBound) {
  for (const MonitoringGraph& graph : {coprime_cycles(5, 7), kth_from_end(8)}) {
    EXPECT_FALSE(testsupport::subset_closure(graph).fits);
    EXPECT_THROW(CompiledGraph::compile(graph), std::invalid_argument);
    EXPECT_THROW((void)HardwareMonitor(
                     graph, std::make_unique<MerkleTreeHash>(0xABCD, 8)),
                 std::invalid_argument);
    HardwareMonitor m = make_synthetic(MonitoringGraph(
        1, 0x1000, 0, {{0, true, {0}}}));
    EXPECT_THROW(m.install(graph, std::make_unique<MerkleTreeHash>(0xABCD, 8)),
                 std::invalid_argument);
    EXPECT_EQ(m.graph().size(), 1u);
    EXPECT_NO_THROW((void)ReferenceMonitor(
        graph, std::make_unique<MerkleTreeHash>(0xABCD, 8)));
  }

  // Cycles of 2 and 3: six pairs against six nodes, at the bound.
  const MonitoringGraph fits = coprime_cycles(2, 3);
  auto compiled = testsupport::compile_checked(fits);
  ASSERT_NE(compiled, nullptr);
  EXPECT_EQ(compiled->num_subset_states(), compiled->num_nodes());
  util::Rng rng(0xB0D);
  std::vector<std::vector<std::uint8_t>> streams;
  streams.push_back(std::vector<std::uint8_t>(20, 0));  // > 6 steps
  for (int s = 0; s < 40; ++s) {
    std::vector<std::uint8_t> stream(1 + rng.below(40), 0);
    for (auto& report : stream) {
      if (rng.chance(0.05)) report = static_cast<std::uint8_t>(rng.below(3));
    }
    streams.push_back(std::move(stream));
  }
  ASSERT_NO_FATAL_FAILURE(run_against_reference(fits, streams));
}

// Every shipped application determinises completely: under the default
// ArithmeticSum at every hash width, and under SboxSum at the widths it
// applies to across eight parameters. So the benchmark's per-report
// monitor cost is one table load by construction, and no shipped app is
// rejected for its parameter.
TEST(CompiledGraph, ShippedAppsDeterminiseCompletely) {
  const std::pair<const char*, isa::Program> apps[] = {
      {"ipv4-forward", net::build_ipv4_forward()},
      {"ipv4-cm", net::build_ipv4_cm()},
      {"udp-echo", net::build_udp_echo()},
      {"firewall", net::build_firewall({21, 22, 23, 53, 80, 443, 8080})},
      {"loop-forward", net::build_loop_forward()},
      {"flow-stats", net::build_flow_stats()},
      {"ipip-encap", net::build_ipip_encap(0x0A000001, 0x0A000002)},
      {"ipip-decap", net::build_ipip_decap()},
  };
  std::vector<MerkleTreeHash> hashes;
  for (int width : {1, 2, 4, 8}) hashes.emplace_back(0xBEEFCAFE, width);
  util::Rng rng(0x5B0C);
  for (int i = 0; i < 8; ++i) {
    const std::uint32_t param = rng.next_u32();
    for (int width : {4, 8}) {
      hashes.emplace_back(param, width, Compression::SboxSum);
    }
  }
  for (const auto& [name, program] : apps) {
    for (const MerkleTreeHash& hash : hashes) {
      auto compiled =
          testsupport::compile_checked(extract_graph(program, hash));
      EXPECT_NE(compiled, nullptr) << name << " " << hash.name();
    }
  }
}

// Sealed packages carry only a parameter: the device always hashes with
// MerkleTreeHash(param), i.e. ArithmeticSum, under which a parameter
// shifts every node hash by one constant mod 2^w. Which nodes share a
// hash -- all the subset construction reads -- is then the same for
// every parameter, so whether a graph is rejected is a function of the
// public binary alone and an install outcome cannot leak the parameter.
TEST(CompiledGraph, RejectionIsParameterIndependentUnderArithmeticSum) {
  const isa::Program program = net::build_ipv4_cm();
  util::Rng rng(0x207);
  for (int width : {1, 2, 4, 8}) {
    const MonitoringGraph base =
        extract_graph(program, MerkleTreeHash(0, width));
    for (int i = 0; i < 4; ++i) {
      const MerkleTreeHash hash(rng.next_u32(), width);
      EXPECT_EQ(extract_graph(program, hash), rotated(base, hash.hash(0)))
          << "w=" << width;
    }
  }
  for (const MonitoringGraph& graph : {coprime_cycles(5, 7), kth_from_end(8)}) {
    for (std::uint32_t c = 0; c < (1u << graph.hash_width()); ++c) {
      EXPECT_THROW(CompiledGraph::compile(rotated(graph, c)),
                   std::invalid_argument)
          << "rotation " << c;
    }
  }
}

// Under the default ArithmeticSum compression the hash is (parameter
// chunk sum + word chunk sum) mod 2^w, so which words collide -- and
// with it the subset states and the artifact size -- does not depend on
// the secret parameter (docs/THREAT_MODEL.md, telemetry audit).
TEST(CompiledGraph, FootprintIsParameterIndependentUnderArithmeticSum) {
  const isa::Program program = net::build_ipv4_cm();
  util::Rng rng(0x5EC);
  auto first = CompiledGraph::compile(
      extract_graph(program, MerkleTreeHash(rng.next_u32())));
  for (int i = 0; i < 50; ++i) {
    auto other = CompiledGraph::compile(
        extract_graph(program, MerkleTreeHash(rng.next_u32())));
    EXPECT_EQ(other->num_subset_states(), first->num_subset_states());
    EXPECT_EQ(other->footprint_bytes(), first->footprint_bytes());
  }
}

// The S-box compression is nonlinear in the parameter, so collisions --
// and the artifact size -- vary with it: compiled_graph_bytes then
// carries information about the parameter.
TEST(CompiledGraph, FootprintCanDependOnParameterUnderSboxSum) {
  const isa::Program program = net::build_ipv4_cm();
  util::Rng rng(0x5EC);
  std::set<std::size_t> footprints;
  for (int i = 0; i < 20; ++i) {
    MerkleTreeHash hash(rng.next_u32(), 4, Compression::SboxSum);
    footprints.insert(
        CompiledGraph::compile(extract_graph(program, hash))
            ->footprint_bytes());
  }
  EXPECT_GT(footprints.size(), 1u);
}

}  // namespace
}  // namespace sdmmon::monitor
