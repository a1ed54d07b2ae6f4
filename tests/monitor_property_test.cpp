// End-to-end soundness property: for randomly GENERATED programs with
// real control flow (forward branches, bounded loops, calls), executed on
// the actual core with the monitor armed, the monitor must never flag
// honest execution -- across hash widths, parameters, and packets.
// This exercises core+analysis+monitor together, beyond the hand-fed
// traces in monitor_test.cpp.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "isa/assembler.hpp"
#include "monitor/analysis.hpp"
#include "monitor/reference_monitor.hpp"
#include "np/monitored_core.hpp"
#include "support/subset_closure.hpp"
#include "util/rng.hpp"

namespace sdmmon {
namespace {

// Generates a structured random program:
//  * a few loops with packet-dependent trip counts (bounded),
//  * forward branches on packet bytes,
//  * calls to 1-2 leaf functions,
//  * reads of the rx buffer, writes to data RAM,
//  * return (drop) or commit at the end.
std::string generate_program(util::Rng& rng) {
  std::ostringstream os;
  const int blocks = 2 + static_cast<int>(rng.below(4));
  const bool commit = rng.chance(0.5);
  const bool use_call = rng.chance(0.6);

  os << "main:\n";
  if (use_call) {
    os << "  addiu $sp, $sp, -8\n"
       << "  sw $ra, 4($sp)\n";
  }
  os << "  li $s0, 0x30000\n"
     << "  li $s1, 0x40000\n"
     << "  li $t0, 0xFFFF0000\n"
     << "  lw $s2, 0($t0)\n"
     << "  beqz $s2, finish\n";

  for (int b = 0; b < blocks; ++b) {
    os << "blk" << b << ":\n";
    // Random ALU filler.
    const int filler = 1 + static_cast<int>(rng.below(4));
    for (int i = 0; i < filler; ++i) {
      os << "  addiu $t" << rng.below(4) << ", $t" << rng.below(4) << ", "
         << rng.below(100) << "\n";
    }
    switch (rng.below(3)) {
      case 0: {
        // Bounded loop over min(len, K) packet bytes.
        const int cap = 4 + static_cast<int>(rng.below(12));
        os << "  li $t4, " << cap << "\n"
           << "  blt $s2, $t4, cap_ok" << b << "\n"
           << "  li $t4, " << cap << "\n"
           << "  b cap_done" << b << "\n"
           << "cap_ok" << b << ":\n"
           << "  move $t4, $s2\n"
           << "cap_done" << b << ":\n"
           << "  move $t5, $zero\n"
           << "  move $t6, $zero\n"
           << "loop" << b << ":\n"
           << "  addu $t7, $s0, $t5\n"
           << "  lbu $t8, 0($t7)\n"
           << "  addu $t6, $t6, $t8\n"
           << "  addiu $t5, $t5, 1\n"
           << "  blt $t5, $t4, loop" << b << "\n";
        break;
      }
      case 1:
        // Data-dependent forward branch on a packet byte.
        os << "  lbu $t5, " << rng.below(16) << "($s0)\n"
           << "  andi $t5, $t5, 1\n"
           << "  beqz $t5, skip" << b << "\n"
           << "  addiu $t6, $t6, 7\n"
           << "  sw $t6, " << (4 * rng.below(16)) << "($s1)\n"
           << "skip" << b << ":\n";
        break;
      case 2:
        if (use_call) {
          os << "  lbu $a0, " << rng.below(8) << "($s0)\n"
             << "  jal helper\n";
        } else {
          os << "  xori $t6, $t6, 0x55\n";
        }
        break;
    }
  }

  os << "finish:\n";
  if (commit) {
    os << "  sb $t6, 0($s1)\n"
       << "  li $t0, 0xFFFF0004\n"
       << "  li $t1, 1\n"
       << "  sw $t1, 0($t0)\n";
  }
  if (use_call) {
    os << "  lw $ra, 4($sp)\n"
       << "  addiu $sp, $sp, 8\n";
  }
  os << "  jr $ra\n";
  if (use_call) {
    os << "helper:\n"
       << "  andi $v0, $a0, 0xF\n"
       << "  addiu $v0, $v0, 3\n"
       << "  jr $ra\n";
  }
  return os.str();
}

class MonitorSoundness : public ::testing::TestWithParam<int> {};

TEST_P(MonitorSoundness, GeneratedProgramsNeverFalsePositive) {
  util::Rng rng(0x50DA + static_cast<std::uint64_t>(GetParam()) * 1299827);
  for (int trial = 0; trial < 8; ++trial) {
    std::string src = generate_program(rng);
    isa::Program program;
    try {
      program = isa::assemble(src);
    } catch (const isa::AsmError& e) {
      FAIL() << e.what() << "\n" << src;
    }
    const int width = (GetParam() % 2 == 0) ? 4 : 8;
    monitor::MerkleTreeHash hash(rng.next_u32(), width);
    np::MonitoredCore core;
    core.install(program, monitor::extract_graph(program, hash),
                 std::make_unique<monitor::MerkleTreeHash>(hash));
    for (int pkt = 0; pkt < 6; ++pkt) {
      util::Bytes packet(rng.below(64));
      for (auto& b : packet) b = static_cast<std::uint8_t>(rng.next());
      np::PacketResult r = core.process_packet(packet);
      ASSERT_NE(r.outcome, np::PacketOutcome::AttackDetected)
          << "false positive, trial " << trial << " pkt " << pkt << "\n"
          << src;
      ASSERT_NE(r.outcome, np::PacketOutcome::Trapped)
          << np::trap_name(r.trap) << "\n" << src;
    }
    EXPECT_EQ(core.stats().attacks_detected, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MonitorSoundness, ::testing::Range(0, 12));

// Batch-partitioning independence: the parallel engine's split of
// process_packet() into execute_packet() + commit_result() must be
// invisible. For any random partitioning of a packet stream into batches,
// the per-packet results and cumulative CoreStats must equal the plain
// serial stream. (The test ID still names the rollback half, deleted
// with the parallel engine's rollback, to keep its twelve IDs stable.)
TEST_P(MonitorSoundness, BatchPartitioningAndRollbackIndependence) {
  util::Rng rng(0xBA7C + static_cast<std::uint64_t>(GetParam()) * 777767);
  for (int trial = 0; trial < 4; ++trial) {
    std::string src = generate_program(rng);
    isa::Program program = isa::assemble(src);
    monitor::MerkleTreeHash hash(rng.next_u32());

    np::MonitoredCore serial, batched;
    for (np::MonitoredCore* core : {&serial, &batched}) {
      core->install(program, monitor::extract_graph(program, hash),
                    std::make_unique<monitor::MerkleTreeHash>(hash));
    }

    const std::size_t n = 24;
    std::vector<util::Bytes> packets(n);
    for (auto& packet : packets) {
      packet.resize(1 + rng.below(48));
      for (auto& b : packet) b = static_cast<std::uint8_t>(rng.next());
    }

    // Reference: the serial engine's per-packet path.
    std::vector<np::PacketResult> expected;
    for (const auto& packet : packets) {
      expected.push_back(serial.process_packet(packet));
    }

    // Random partitioning: execute a whole batch, then commit it in order.
    for (std::size_t i = 0; i < n;) {
      const std::size_t batch = std::min(n - i, 1 + rng.below(5));
      std::vector<np::PacketResult> results;
      for (std::size_t k = 0; k < batch; ++k) {
        results.push_back(batched.execute_packet(packets[i + k]));
      }
      for (std::size_t k = 0; k < batch; ++k) {
        batched.commit_result(results[k]);
        EXPECT_EQ(results[k].outcome, expected[i + k].outcome) << i + k;
        EXPECT_EQ(results[k].instructions, expected[i + k].instructions)
            << i + k;
        EXPECT_EQ(results[k].output, expected[i + k].output) << i + k;
      }
      i += batch;
    }

    EXPECT_EQ(batched.stats().packets, serial.stats().packets);
    EXPECT_EQ(batched.stats().forwarded, serial.stats().forwarded);
    EXPECT_EQ(batched.stats().dropped, serial.stats().dropped);
    EXPECT_EQ(batched.stats().attacks_detected,
              serial.stats().attacks_detected);
    EXPECT_EQ(batched.stats().traps, serial.stats().traps);
    EXPECT_EQ(batched.stats().instructions, serial.stats().instructions);
  }
}

// ---------------------------------------------------------------------------
// Differential fuzz: the compiled HardwareMonitor vs the original
// vector-filter walker (ReferenceMonitor) on random synthetic graphs and
// random hashed-report streams. The two implementations must agree on
// EVERY observable at EVERY step -- verdict, exit_allowed, state_size,
// attack_flagged -- and on the per-packet peak width, the exact tracked
// node set, and the cumulative MonitorStats, across packet resets and
// mid-stream re-installs. Every graph drawn also checks compile()
// against the closure oracle (support/subset_closure.hpp): a graph past
// the subset construction's bound is rejected, and is redrawn at the
// start of a sequence or left uninstalled mid-stream, where both walkers
// must stay exactly where they were.

// One random hashed-report stream over `graph`. Three flavors: a valid
// random walk from the entry node, a valid walk with corrupted reports
// injected, and uniform random bytes (including values >= 2^w, which the
// bucketed matcher must treat as a plain mismatch).
std::vector<std::uint8_t> random_stream(util::Rng& rng,
                                        const monitor::MonitoringGraph& graph) {
  const std::size_t len = 1 + rng.below(32);
  std::vector<std::uint8_t> stream;
  stream.reserve(len);
  const std::uint32_t flavor = rng.below(3);
  if (flavor == 2) {
    for (std::size_t i = 0; i < len; ++i) {
      stream.push_back(static_cast<std::uint8_t>(rng.below(256)));
    }
    return stream;
  }
  std::uint32_t at = graph.entry_index();
  for (std::size_t i = 0; i < len; ++i) {
    std::uint8_t report = graph.node(at).hash;
    if (flavor == 1 && rng.chance(0.2)) {
      report = static_cast<std::uint8_t>(rng.below(256));  // corruption
    }
    stream.push_back(report);
    const auto& succ = graph.node(at).successors;
    if (succ.empty()) break;  // trap terminal: next report would mismatch
    at = succ[rng.below(static_cast<std::uint32_t>(succ.size()))];
  }
  return stream;
}

void expect_monitors_agree(const monitor::HardwareMonitor& compiled,
                           const monitor::ReferenceMonitor& reference,
                           const char* where) {
  ASSERT_EQ(compiled.state_size(), reference.state_size()) << where;
  ASSERT_EQ(compiled.exit_allowed(), reference.exit_allowed()) << where;
  ASSERT_EQ(compiled.attack_flagged(), reference.attack_flagged()) << where;
  ASSERT_EQ(compiled.peak_state_size(), reference.peak_state_size()) << where;
  ASSERT_EQ(compiled.state_nodes(), reference.state_nodes()) << where;
  ASSERT_EQ(compiled.stats().instructions_checked,
            reference.stats().instructions_checked) << where;
  ASSERT_EQ(compiled.stats().mismatches, reference.stats().mismatches)
      << where;
  ASSERT_EQ(compiled.stats().packets_monitored,
            reference.stats().packets_monitored) << where;
  ASSERT_EQ(compiled.stats().state_size_accum,
            reference.stats().state_size_accum) << where;
}

// Hot-swaps a freshly drawn graph into both walkers. A graph past the
// bound is a typed rejection (counted in `rejected`): the compiled
// walker's install throws and it must still agree with the reference,
// which never saw the swap.
void swap_graph(util::Rng& rng, monitor::MonitoringGraph& graph,
                monitor::HardwareMonitor& compiled,
                monitor::ReferenceMonitor& reference, int& rejected) {
  monitor::MonitoringGraph next = testsupport::random_graph(rng);
  auto artifact = testsupport::compile_checked(next);
  ASSERT_FALSE(::testing::Test::HasFailure());
  if (artifact == nullptr) {
    ++rejected;
    EXPECT_THROW(
        compiled.install(next, std::make_unique<monitor::MerkleTreeHash>(
                                   rng.next_u32(), 8)),
        std::invalid_argument);
    ASSERT_NO_FATAL_FAILURE(
        expect_monitors_agree(compiled, reference, "rejected install"));
    return;
  }
  graph = std::move(next);
  compiled.install(
      artifact, std::make_unique<monitor::MerkleTreeHash>(rng.next_u32(), 8));
  reference.install(
      graph, std::make_unique<monitor::MerkleTreeHash>(rng.next_u32(), 8));
  ASSERT_NO_FATAL_FAILURE(
      expect_monitors_agree(compiled, reference, "post-install"));
}

class MonitorDifferential : public ::testing::TestWithParam<int> {};

TEST_P(MonitorDifferential, CompiledMatchesReferenceOnRandomStreams) {
  util::Rng rng(0xD1FF + static_cast<std::uint64_t>(GetParam()) * 2654435761u);
  // 50 accepted graphs x 25 streams x 10 seeds = 12,500 fuzzed streams.
  int rejected = 0;
  for (int g = 0; g < 50;) {
    monitor::MonitoringGraph graph = testsupport::random_graph(rng);
    auto artifact = testsupport::compile_checked(graph);
    ASSERT_FALSE(HasFailure());
    if (artifact == nullptr) {  // past the bound: redraw
      ++rejected;
      continue;
    }
    ++g;
    // The streams below feed on_hashed() directly, so the hash unit is
    // never consulted; a fixed 8-bit unit keeps construction valid for
    // every graph hash width (MerkleTreeHash supports 1/2/4/8 only).
    monitor::HardwareMonitor compiled(
        artifact, std::make_unique<monitor::MerkleTreeHash>(rng.next_u32(), 8));
    monitor::ReferenceMonitor reference(
        graph, std::make_unique<monitor::MerkleTreeHash>(rng.next_u32(), 8));
    for (int s = 0; s < 25; ++s) {
      // Occasionally hot-swap a fresh graph mid-sequence: both walkers
      // must re-arm identically and keep accumulating the same stats.
      if (rng.chance(0.04)) {
        ASSERT_NO_FATAL_FAILURE(
            swap_graph(rng, graph, compiled, reference, rejected));
      }
      compiled.reset();
      reference.reset();
      ASSERT_NO_FATAL_FAILURE(
          expect_monitors_agree(compiled, reference, "post-reset"));
      for (std::uint8_t report : random_stream(rng, graph)) {
        const monitor::Verdict vc = compiled.on_hashed(report);
        const monitor::Verdict vr = reference.on_hashed(report);
        ASSERT_EQ(vc, vr) << "graph " << g << " stream " << s;
        ASSERT_NO_FATAL_FAILURE(
            expect_monitors_agree(compiled, reference, "mid-stream"));
      }
    }
  }
  EXPECT_GT(rejected, 0) << "no graph past the bound was drawn";
}

// The lane walk HardwareMonitor::advance() -- the path superblock
// dispatches take -- against the per-hash reference, on the same graphs
// and streams as above. The lane never joins, so random graphs and
// subset states reach the walk's own stepping and its stop at the first
// mismatch. Each stream is cut into random-size chunks; after every chunk
// the returned count must be the reference's first-mismatch index within
// the chunk (or the chunk size), and every observable must agree. Once
// the reference is latched, every chunk accepts 0 hashes.
TEST_P(MonitorDifferential, BatchedAdvanceMatchesReferenceOnRandomStreams) {
  util::Rng rng(0xD1FF + static_cast<std::uint64_t>(GetParam()) * 2654435761u);
  util::Rng chunking(0xC4C + static_cast<std::uint64_t>(GetParam()));
  int rejected = 0;
  for (int g = 0; g < 50;) {
    monitor::MonitoringGraph graph = testsupport::random_graph(rng);
    auto artifact = testsupport::compile_checked(graph);
    ASSERT_FALSE(HasFailure());
    if (artifact == nullptr) {  // past the bound: redraw
      ++rejected;
      continue;
    }
    ++g;
    monitor::HardwareMonitor compiled(
        artifact, std::make_unique<monitor::MerkleTreeHash>(rng.next_u32(), 8));
    monitor::ReferenceMonitor reference(
        graph, std::make_unique<monitor::MerkleTreeHash>(rng.next_u32(), 8));
    for (int s = 0; s < 25; ++s) {
      if (rng.chance(0.04)) {
        ASSERT_NO_FATAL_FAILURE(
            swap_graph(rng, graph, compiled, reference, rejected));
      }
      compiled.reset();
      reference.reset();
      const std::vector<std::uint8_t> stream = random_stream(rng, graph);
      const testsupport::NeverJoiningLane never_joining(stream.size());
      std::size_t at = 0;
      while (at < stream.size()) {
        const std::size_t chunk = 1 + chunking.below(
            static_cast<std::uint32_t>(stream.size() - at));
        std::size_t expected = chunk;
        for (std::size_t k = 0; k < chunk; ++k) {
          if (reference.on_hashed(stream[at + k]) ==
              monitor::Verdict::Mismatch) {
            expected = k;
            break;
          }
        }
        const std::size_t got =
            compiled.advance(never_joining.lane(), stream.data() + at, chunk)
                .ok;
        ASSERT_EQ(got, expected) << "graph " << g << " stream " << s
                                 << " offset " << at;
        ASSERT_NO_FATAL_FAILURE(
            expect_monitors_agree(compiled, reference, "after chunk"));
        // A stopped chunk consumed its mismatching hash too.
        at += expected == chunk ? chunk : expected + 1;
      }
    }
  }
  EXPECT_GT(rejected, 0) << "no graph past the bound was drawn";
}

INSTANTIATE_TEST_SUITE_P(Seeds, MonitorDifferential, ::testing::Range(0, 10));

}  // namespace
}  // namespace sdmmon
