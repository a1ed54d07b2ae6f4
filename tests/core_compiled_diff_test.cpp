// Differential testing of the compiled tier (docs/EXECUTION.md) against
// the word-at-a-time interpreter oracle. A core on Tier::Compiled --
// predecoded per-op steps, whole superblocks through Core::exec_trace,
// superblock-granular hash slices through HardwareMonitor::advance,
// overshoot retraction through Core::retract_trace -- must be
// bit-identical to a Tier::Interpret core: StepInfo sequences, final core
// state (registers, cycles, retired mix), per-packet results, cumulative
// core stats, AND cumulative monitor stats (instructions_checked /
// state_size_accum catch over- or under-feeding the monitor even when
// every verdict agrees).
//
// Three suites, one per random-program shape and the constructs it
// stresses:
//   * PredecodeDifferential -- per-op lockstep: step() on the predecoded
//     artifact vs the interpreter, every StepInfo compared;
//   * FuseDifferential -- body-heavy text: long straight-line superblocks
//     stopped by overflow traps, MMIO and faulting accesses, and
//     mismatches inside a body-only run;
//   * TraceDifferential -- branchy text: superblocks spanning several
//     predicted branches, constant side exits, and a mismatch landing
//     before a side-exiting branch.
// Each also covers mid-stream reinstalls, self-modifying stores, shared
// artifacts, and all three recovery policies on an MPSoC.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "isa/assembler.hpp"
#include "monitor/analysis.hpp"
#include "net/apps.hpp"
#include "net/traffic.hpp"
#include "np/mpsoc.hpp"
#include "support/test_apps.hpp"
#include "util/rng.hpp"

namespace sdmmon::np {
namespace {

// ---------------------------------------------------------------------
// Random programs
// ---------------------------------------------------------------------

// Cumulative percent thresholds of each construct in a random text; the
// rest are raw words (often undecodable, sometimes accidentally valid).
struct ProgramShape {
  int branch, jump, jr, mem, trap_arith, imm, alu, shift;
  int branch_min, branch_span;  // branch offsets in [min, min + span)
  bool jal;                     // jumps include jal (writes $ra)
};

// Every construct in moderation (predecode lockstep).
constexpr ProgramShape kMixed{8, 12, 15, 25, 30, 45, 85, 90, -4, 12, false};
// Long straight-line bodies, still broken by every stop construct.
constexpr ProgramShape kBodyHeavy{7, 10, 13, 21, 27, 45, 92, 96, -4, 12, false};
// Short backward (predicted-taken) loops, forward skips (taken = side
// exit), branch-to-next (imm 0: counted not-taken), j/jal.
constexpr ProgramShape kBranchy{20, 24, 27, 35, 41, 58, 94, 97, -7, 12, true};

isa::Program random_program(util::Rng& rng, const ProgramShape& shape) {
  const std::size_t n = 16 + rng.below(48);
  isa::Program p;
  p.name = "compiled-fuzz";
  p.text_base = 0;
  p.entry = 0;
  p.text.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const int pick = static_cast<int>(rng.below(100));
    const int rd = static_cast<int>(8 + rng.below(16));  // $t0..$s7
    const int rs = static_cast<int>(8 + rng.below(16));
    const int rt = static_cast<int>(8 + rng.below(16));
    if (pick < shape.branch) {
      static constexpr isa::Op kBranch[] = {isa::Op::Beq, isa::Op::Bne,
                                            isa::Op::Blez, isa::Op::Bgtz};
      const std::int32_t off =
          shape.branch_min +
          static_cast<std::int32_t>(
              rng.below(static_cast<std::uint64_t>(shape.branch_span)));
      p.text.push_back(isa::encode(
          isa::make_branch(kBranch[rng.below(4)], rs, rt, off)));
    } else if (pick < shape.jump) {
      const isa::Op op =
          shape.jal && rng.below(2) == 0 ? isa::Op::Jal : isa::Op::J;
      p.text.push_back(isa::encode(
          isa::make_jump(op, static_cast<std::uint32_t>(rng.below(n)))));
    } else if (pick < shape.jr) {
      p.text.push_back(isa::encode(isa::make_rtype(isa::Op::Jr, 0, 31, 0)));
    } else if (pick < shape.mem) {
      static constexpr isa::Op kMem[] = {isa::Op::Lw,  isa::Op::Lb,
                                         isa::Op::Lbu, isa::Op::Lh,
                                         isa::Op::Sw,  isa::Op::Sb,
                                         isa::Op::Sh};
      const std::int32_t imm =
          static_cast<std::int32_t>(rng.below(0x100)) - 0x80;
      p.text.push_back(
          isa::encode(isa::make_itype(kMem[rng.below(7)], rt, rs, imm)));
    } else if (pick < shape.trap_arith) {
      // Overflow-trapping arithmetic: stop-before ops inside a body.
      static constexpr isa::Op kTrapArith[] = {isa::Op::Add, isa::Op::Sub};
      p.text.push_back(isa::encode(
          isa::make_rtype(kTrapArith[rng.below(2)], rd, rs, rt)));
    } else if (pick < shape.imm) {
      static constexpr isa::Op kImm[] = {isa::Op::Addiu, isa::Op::Ori,
                                         isa::Op::Andi,  isa::Op::Xori,
                                         isa::Op::Slti,  isa::Op::Sltiu,
                                         isa::Op::Lui,   isa::Op::Addi};
      const std::int32_t imm =
          static_cast<std::int32_t>(rng.below(0x10000)) - 0x8000;
      p.text.push_back(
          isa::encode(isa::make_itype(kImm[rng.below(8)], rt, rs, imm)));
    } else if (pick < shape.alu) {
      static constexpr isa::Op kAlu[] = {
          isa::Op::Addu, isa::Op::Subu, isa::Op::And,   isa::Op::Or,
          isa::Op::Xor,  isa::Op::Nor,  isa::Op::Slt,   isa::Op::Sltu,
          isa::Op::Mult, isa::Op::Multu, isa::Op::Div,  isa::Op::Divu,
          isa::Op::Mfhi, isa::Op::Mflo, isa::Op::Sllv,  isa::Op::Srav};
      p.text.push_back(
          isa::encode(isa::make_rtype(kAlu[rng.below(16)], rd, rs, rt)));
    } else if (pick < shape.shift) {
      static constexpr isa::Op kShift[] = {isa::Op::Sll, isa::Op::Srl,
                                           isa::Op::Sra};
      p.text.push_back(isa::encode(
          isa::make_shift(kShift[rng.below(3)], rd, rt,
                          static_cast<int>(rng.below(32)))));
    } else {
      p.text.push_back(rng.next_u32());
    }
  }
  return p;
}

// ---------------------------------------------------------------------
// Core-level comparison
// ---------------------------------------------------------------------

void load_seeded(Core& core, Tier tier, const isa::Program& p,
                 const std::shared_ptr<const CompiledProgram>& compiled,
                 const std::vector<std::uint32_t>& seeds,
                 std::uint64_t watchdog) {
  core.set_tier(tier);
  core.load_program(p, compiled);
  core.set_watchdog_budget(watchdog);
  for (int r = 1; r < 32; ++r) {
    if (r == 31) continue;  // keep the return sentinel
    core.set_reg(r, seeds[static_cast<std::size_t>(r)]);
  }
}

void expect_same_step(const StepInfo& a, const StepInfo& b,
                      std::uint64_t step) {
  ASSERT_EQ(a.pc, b.pc) << "step " << step;
  ASSERT_EQ(a.word, b.word) << "step " << step;
  ASSERT_EQ(static_cast<int>(a.event), static_cast<int>(b.event))
      << "step " << step << " pc=" << a.pc;
  ASSERT_EQ(static_cast<int>(a.trap), static_cast<int>(b.trap))
      << "step " << step << " pc=" << a.pc;
}

void expect_same_state(const Core& a, const Core& b) {
  ASSERT_EQ(a.pc(), b.pc());
  ASSERT_EQ(a.cycles(), b.cycles());
  ASSERT_EQ(a.runnable(), b.runnable());
  ASSERT_EQ(a.text_dirty(), b.text_dirty());
  for (int r = 0; r < 32; ++r) ASSERT_EQ(a.reg(r), b.reg(r)) << "reg " << r;
  const InstrMix& ma = a.instr_mix();
  const InstrMix& mb = b.instr_mix();
  ASSERT_EQ(ma.alu, mb.alu);
  ASSERT_EQ(ma.muldiv, mb.muldiv);
  ASSERT_EQ(ma.load, mb.load);
  ASSERT_EQ(ma.store, mb.store);
  ASSERT_EQ(ma.branch_taken, mb.branch_taken);
  ASSERT_EQ(ma.branch_not_taken, mb.branch_not_taken);
  ASSERT_EQ(ma.jump, mb.jump);
  ASSERT_EQ(ma.trap, mb.trap);
  ASSERT_EQ(a.has_output(), b.has_output());
  if (a.has_output()) {
    ASSERT_EQ(a.output(), b.output());
    ASSERT_EQ(a.output_port(), b.output_port());
  }
}

// `trials` random programs of `shape`, each run end to end on both tiers
// (sometimes under a tiny watchdog or a max_steps cap, so superblocks get
// clamped mid-way); with `lockstep`, also stepped one op at a time.
void fuzz_programs(std::uint64_t seed, const ProgramShape& shape, int trials,
                   bool lockstep) {
  util::Rng rng(seed);
  for (int trial = 0; trial < trials; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    const isa::Program p = random_program(rng, shape);
    auto compiled =
        CompiledProgram::compile(p, monitor::MerkleTreeHash(0xD1FF));
    const std::uint64_t watchdog =
        rng.below(8) == 0 ? 1 + rng.below(40) : 512;
    const std::uint64_t max_steps =
        rng.below(4) == 0 ? 1 + rng.below(32) : 300;
    std::vector<std::uint32_t> seeds(32);
    for (auto& s : seeds) s = rng.next_u32();

    if (lockstep) {
      Core fast, oracle;
      load_seeded(fast, Tier::Compiled, p, compiled, seeds, watchdog);
      load_seeded(oracle, Tier::Interpret, p, compiled, seeds, watchdog);
      for (std::uint64_t step = 0; step < 300 && oracle.runnable(); ++step) {
        expect_same_step(fast.step(), oracle.step(), step);
        ASSERT_EQ(fast.pc(), oracle.pc()) << "step " << step;
        ASSERT_EQ(fast.cycles(), oracle.cycles()) << "step " << step;
      }
      expect_same_state(fast, oracle);
    }

    Core fast, oracle;
    load_seeded(fast, Tier::Compiled, p, compiled, seeds, watchdog);
    load_seeded(oracle, Tier::Interpret, p, compiled, seeds, watchdog);
    ASSERT_TRUE(fast.compiled_live());
    ASSERT_FALSE(oracle.compiled_live());
    expect_same_step(fast.run(max_steps), oracle.run(max_steps), max_steps);
    expect_same_state(fast, oracle);
  }
}

// ---------------------------------------------------------------------
// Monitored packet processing
// ---------------------------------------------------------------------

void expect_same_result(const PacketResult& a, const PacketResult& b,
                        std::size_t packet) {
  ASSERT_EQ(static_cast<int>(a.outcome), static_cast<int>(b.outcome))
      << "packet " << packet;
  ASSERT_EQ(a.output, b.output) << "packet " << packet;
  ASSERT_EQ(a.output_port, b.output_port) << "packet " << packet;
  ASSERT_EQ(a.instructions, b.instructions) << "packet " << packet;
  ASSERT_EQ(static_cast<int>(a.trap), static_cast<int>(b.trap))
      << "packet " << packet;
  ASSERT_EQ(a.monitor_width, b.monitor_width) << "packet " << packet;
}

void expect_same_stats(const MonitoredCore& a, const MonitoredCore& b) {
  ASSERT_EQ(a.stats().packets, b.stats().packets);
  ASSERT_EQ(a.stats().forwarded, b.stats().forwarded);
  ASSERT_EQ(a.stats().dropped, b.stats().dropped);
  ASSERT_EQ(a.stats().attacks_detected, b.stats().attacks_detected);
  ASSERT_EQ(a.stats().traps, b.stats().traps);
  ASSERT_EQ(a.stats().instructions, b.stats().instructions);
  const monitor::MonitorStats& ma = a.monitor().stats();
  const monitor::MonitorStats& mb = b.monitor().stats();
  ASSERT_EQ(ma.instructions_checked, mb.instructions_checked);
  ASSERT_EQ(ma.mismatches, mb.mismatches);
  ASSERT_EQ(ma.packets_monitored, mb.packets_monitored);
  ASSERT_EQ(ma.state_size_accum, mb.state_size_accum);
  expect_same_state(a.core(), b.core());
}

// A (compiled, oracle) MonitoredCore pair; the oracle interprets.
struct CorePair {
  MonitoredCore fast, oracle;
  CorePair() { oracle.core().set_tier(Tier::Interpret); }

  void install(const isa::Program& app, const monitor::MonitoringGraph& graph,
               const monitor::MerkleTreeHash& hash) {
    for (MonitoredCore* mc : {&fast, &oracle}) {
      mc->install(app, monitor::CompiledGraph::compile(graph),
                  std::make_unique<monitor::MerkleTreeHash>(hash));
    }
    ASSERT_TRUE(fast.core().compiled_live());
    ASSERT_FALSE(oracle.core().compiled_live());
  }

  PacketResult process(const util::Bytes& packet, std::size_t index) {
    const PacketResult want = oracle.process_packet(packet);
    const PacketResult got = fast.process_packet(packet);
    expect_same_result(want, got, index);
    EXPECT_GE(got.trace_dispatches, got.trace_side_exits);
    return got;
  }
};

// Generated traffic plus one garbage packet in seven (traps and drops)
// through every app; `watchdog` (when nonzero) also clamps superblocks
// mid-way in monitored mode.
void expect_apps_match(const std::vector<isa::Program>& apps,
                       std::uint64_t seed, std::uint64_t watchdog = 0) {
  util::Rng rng(seed);
  for (const isa::Program& app : apps) {
    SCOPED_TRACE(app.name);
    monitor::MerkleTreeHash hash(static_cast<std::uint32_t>(
        seed + app.text.size()));
    CorePair pair;
    pair.install(app, monitor::extract_graph(app, hash), hash);
    if (watchdog != 0) {
      pair.fast.core().set_watchdog_budget(watchdog);
      pair.oracle.core().set_watchdog_budget(watchdog);
    }
    net::TrafficGenerator gen;
    std::uint64_t dispatches = 0;
    for (std::size_t i = 0; i < 1400; ++i) {
      util::Bytes packet;
      if (i % 7 == 2) {
        packet.resize(rng.below(128));
        for (auto& b : packet) b = static_cast<std::uint8_t>(rng.next());
      } else {
        packet = gen.next().packet;
      }
      dispatches += pair.process(packet, i).trace_dispatches;
    }
    EXPECT_GT(dispatches, 0u) << "the compiled tier never dispatched";
    expect_same_stats(pair.fast, pair.oracle);
  }
}

// Attack traffic on the vulnerable app in both enforcement modes, one
// packet in `attack_every` an attack: the smashed control flow diverts
// into packet-carried code, the monitor flags it, and per-packet
// instruction counts prove both tiers executed exactly as many ops
// before the recovery reset.
void expect_attack_traffic_matches(std::uint32_t hash_param,
                                   std::size_t attack_every) {
  for (bool enforce : {true, false}) {
    SCOPED_TRACE(enforce ? "enforcing" : "not enforcing");
    const isa::Program vuln = isa::assemble(testsupport::kVulnApp);
    monitor::MerkleTreeHash hash(hash_param);
    CorePair pair;
    pair.fast.set_enforcement(enforce);
    pair.oracle.set_enforcement(enforce);
    pair.install(vuln, monitor::extract_graph(vuln, hash), hash);
    const util::Bytes attack = testsupport::attack_packet();
    net::TrafficGenerator gen;
    for (std::size_t i = 0; i < 100; ++i) {
      pair.process(i % attack_every == 0 ? attack : gen.next().packet, i);
    }
    expect_same_stats(pair.fast, pair.oracle);
  }
}

// Install `full`'s text under a graph extracted from `expected`: the
// monitor flags the first op whose installed hash differs, partway
// through a superblock slice.
void expect_installed_mismatch_matches(const isa::Program& full,
                                       const isa::Program& expected) {
  monitor::MerkleTreeHash hash(0xBEEF);
  CorePair pair;
  pair.install(full, monitor::extract_graph(expected, hash), hash);
  const PacketResult got = pair.process(util::Bytes(16, 0xAB), 0);
  EXPECT_EQ(static_cast<int>(got.outcome),
            static_cast<int>(PacketOutcome::AttackDetected));
  EXPECT_GT(got.trace_dispatches, 0u);
  expect_same_stats(pair.fast, pair.oracle);
}

// New hash parameter with the same binary, then a different binary:
// artifacts are rebuilt per install and equivalence holds across swaps.
void expect_reinstalls_match(const std::vector<isa::Program>& binaries) {
  CorePair pair;
  net::TrafficGenerator gen;
  std::size_t packet = 0;
  for (const isa::Program& app : binaries) {
    for (std::uint32_t param : {0xAAAAu, 0xBBBBu}) {
      monitor::MerkleTreeHash hash(param);
      pair.install(app, monitor::extract_graph(app, hash), hash);
      for (int i = 0; i < 200; ++i, ++packet) {
        pair.process(gen.next().packet, packet);
      }
      expect_same_stats(pair.fast, pair.oracle);
    }
  }
}

// A program that patches its own text ("addiu $v0, $zero, 42" over the
// first nop at `target`) and then executes the patched word.
isa::Program self_patching_program() {
  const std::uint32_t patch =
      isa::encode(isa::make_itype(isa::Op::Addiu, 2, 0, 42));
  isa::Program p = isa::assemble(R"(
main:
    la $t0, target
    lui $t1, 0
    ori $t1, $t1, 0
    sw $t1, 0($t0)
target:
    nop
    nop
    nop
    jr $ra
)");
  // The assembler has no word-valued immediates for a label patch, so
  // the lui/ori pair is rewritten to materialize the patch word in $t1.
  p.text[2] = isa::encode(isa::make_itype(
      isa::Op::Lui, 9, 0, static_cast<std::int32_t>(patch >> 16)));
  p.text[3] = isa::encode(isa::make_itype(
      isa::Op::Ori, 9, 9, static_cast<std::int32_t>(patch & 0xFFFF)));
  return p;
}

// Attack traffic under every recovery policy on two-core MPSoCs: the
// compiled engine and the interpreter oracle must agree packet for
// packet, through quarantines and last-good re-images, and recovery
// re-images must keep each core's tier.
void expect_recovery_policies_match(std::uint64_t seed) {
  for (RecoveryPolicy policy :
       {RecoveryPolicy::ResetAndContinue, RecoveryPolicy::QuarantineAfterK,
        RecoveryPolicy::ReinstallLastGood}) {
    SCOPED_TRACE(recovery_policy_name(policy));
    RecoveryConfig config;
    config.policy = policy;
    config.violation_threshold = 3;
    config.window_packets = 8;
    Mpsoc fast_soc(2, DispatchPolicy::RoundRobin, config);
    Mpsoc oracle_soc(2, DispatchPolicy::RoundRobin, config);
    for (std::size_t c = 0; c < oracle_soc.num_cores(); ++c) {
      oracle_soc.core(c).core().set_tier(Tier::Interpret);
    }
    testsupport::install_all(fast_soc, testsupport::kVulnApp, 0x7E57);
    testsupport::install_all(oracle_soc, testsupport::kVulnApp, 0x7E57);

    const util::Bytes attack = testsupport::attack_packet();
    util::Rng rng(seed + static_cast<std::uint64_t>(policy));
    net::TrafficGenerator gen;
    for (std::size_t i = 0; i < 120; ++i) {
      const util::Bytes packet = rng.below(3) == 0 ? attack : gen.next().packet;
      expect_same_result(oracle_soc.process_packet(packet),
                         fast_soc.process_packet(packet), i);
    }
    const MpsocStats sa = fast_soc.aggregate_stats();
    const MpsocStats sb = oracle_soc.aggregate_stats();
    EXPECT_EQ(sa.forwarded, sb.forwarded);
    EXPECT_EQ(sa.attacks_detected, sb.attacks_detected);
    EXPECT_EQ(sa.quarantined_cores, sb.quarantined_cores);
    EXPECT_EQ(sa.quarantine_events, sb.quarantine_events);
    EXPECT_EQ(sa.reinstalls, sb.reinstalls);
    for (std::size_t c = 0; c < oracle_soc.num_cores(); ++c) {
      EXPECT_EQ(oracle_soc.core(c).core().tier(), Tier::Interpret);
      EXPECT_EQ(fast_soc.core(c).core().tier(), Tier::Compiled);
    }
  }
}

const CompiledProgram* expect_one_shared_artifact(const Mpsoc& soc) {
  const CompiledProgram* shared = soc.core(0).core().compiled_program().get();
  EXPECT_NE(shared, nullptr);
  for (std::size_t c = 1; c < soc.num_cores(); ++c) {
    EXPECT_EQ(soc.core(c).core().compiled_program().get(), shared)
        << "core " << c;
  }
  return shared;
}

// ---------------------------------------------------------------------
// PredecodeDifferential: per-op lockstep
// ---------------------------------------------------------------------

class PredecodeDifferentialTest : public ::testing::TestWithParam<int> {};

// 8 seeds x 700 programs, each stepped in lockstep (StepInfo equality on
// every step) and re-run end to end.
TEST_P(PredecodeDifferentialTest, RandomProgramsLockstepAndRun) {
  fuzz_programs(static_cast<std::uint64_t>(GetParam()) * 0x9E3779B9 + 7,
                kMixed, 700, /*lockstep=*/true);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PredecodeDifferentialTest,
                         ::testing::Range(0, 8));

TEST(PredecodeDifferential, MonitoredVerdictsAndStatsMatchInterpreter) {
  expect_apps_match({net::build_ipv4_forward(), net::build_ipv4_cm(),
                     net::build_udp_echo(),
                     net::build_firewall({22, 53, 80, 443})},
                    0xC0DE5EED);
}

TEST(PredecodeDifferential, MidStreamReinstallKeepsEquivalence) {
  expect_reinstalls_match({net::build_udp_echo(), net::build_ipv4_forward()});
}

// A hash-mismatched artifact must be rejected before any core state is
// touched (the install-time spot check).
TEST(PredecodeDifferential, MismatchedArtifactHashRejectedAtInstall) {
  const isa::Program app = net::build_udp_echo();
  monitor::MerkleTreeHash installed(0x1111);
  auto graph = monitor::extract_graph(app, installed);
  auto wrong = CompiledProgram::compile(app, monitor::MerkleTreeHash(0x2222));
  MonitoredCore core;
  EXPECT_THROW(
      core.install(app, monitor::CompiledGraph::compile(graph), wrong,
                   std::make_unique<monitor::MerkleTreeHash>(installed)),
      std::invalid_argument);
}

// Stepping op by op: the artifact is stale the moment the store lands,
// so the core drops to interpretation and executes the NEW word. Only
// the re-imaging reset() re-arms the compiled tier; soft_reset() keeps
// the corrupted text and therefore the fallback.
TEST(PredecodeDifferential, SelfModifyingStoreFallsBackAndMatchesOracle) {
  const isa::Program p = self_patching_program();
  auto compiled = CompiledProgram::compile(p, monitor::MerkleTreeHash(0x5E1F));
  Core fast, oracle;
  oracle.set_tier(Tier::Interpret);
  fast.load_program(p, compiled);
  oracle.load_program(p, compiled);
  ASSERT_TRUE(fast.compiled_live());

  for (std::uint64_t step = 0; step < 64 && oracle.runnable(); ++step) {
    expect_same_step(fast.step(), oracle.step(), step);
  }
  expect_same_state(fast, oracle);
  EXPECT_EQ(fast.reg(2), 42u) << "patched instruction must have executed";
  EXPECT_TRUE(fast.text_dirty());
  EXPECT_FALSE(fast.compiled_live())
      << "stale artifact must not serve predecoded ops";

  fast.soft_reset();
  EXPECT_TRUE(fast.text_dirty());
  EXPECT_FALSE(fast.compiled_live());
  fast.reset();
  EXPECT_FALSE(fast.text_dirty());
  EXPECT_TRUE(fast.compiled_live());
  EXPECT_EQ(static_cast<int>(fast.run(64).event),
            static_cast<int>(StepEvent::PacketDone));
}

TEST(PredecodeDifferential, InstallAllSharesOneCompiledProgramAcrossCores) {
  Mpsoc soc(4);
  testsupport::install_all(soc, testsupport::kEchoApp, 0x1D1D);
  const CompiledProgram* shared = expect_one_shared_artifact(soc);
  ASSERT_NE(shared, nullptr);
  EXPECT_EQ(shared->num_ops(),
            isa::assemble(testsupport::kEchoApp).text.size());
}

TEST(PredecodeDifferential, AttackRecoveryPoliciesMatchAcrossEngines) {
  expect_recovery_policies_match(0xA77AC4);
}

// ---------------------------------------------------------------------
// FuseDifferential: body-heavy superblocks
// ---------------------------------------------------------------------

class FuseDifferentialTest : public ::testing::TestWithParam<int> {};

TEST_P(FuseDifferentialTest, RandomProgramsRunIdenticalAcrossTiers) {
  fuzz_programs(static_cast<std::uint64_t>(GetParam()) * 0x51CAFE + 13,
                kBodyHeavy, 600, /*lockstep=*/false);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuseDifferentialTest, ::testing::Range(0, 8));

// The same apps under a watchdog that cuts packets off mid-superblock:
// the watchdog clamp and the Watchdog trap must land on the same op.
TEST(FuseDifferential, MonitoredVerdictsAndStatsMatchAcrossTiers) {
  expect_apps_match({net::build_ipv4_forward(), net::build_ipv4_cm(),
                     net::build_udp_echo(),
                     net::build_firewall({22, 53, 80, 443})},
                    0xF0E5EED, /*watchdog=*/150);
}

// The attack payload is a straight body run (addiu sled) executed from
// the packet buffer, outside the artifact: the per-op path feeds the
// monitor, which flags the first foreign op.
TEST(FuseDifferential, MismatchMidPureRunMatchesOracle) {
  expect_attack_traffic_matches(0x7E57, 3);
}

// Attack text INSIDE the artifact: the installed text ends in a body-only
// sled the graph does not expect (graph extracted from a truncated
// program), so advance() mismatches partway through a body-only
// superblock slice and the overshoot is retracted.
TEST(FuseDifferential, MismatchInsideFusedInstalledRunMatchesOracle) {
  const isa::Program full = isa::assemble(R"(
main:
    addiu $t0, $t0, 1
    addiu $t0, $t0, 2
    addiu $t0, $t0, 3
    addiu $t0, $t0, 4
    addiu $t0, $t0, 5
    addiu $t0, $t0, 6
    jr $ra
)");
  isa::Program truncated = full;
  truncated.text.resize(2);
  truncated.text.push_back(
      isa::encode(isa::make_rtype(isa::Op::Jr, 0, 31, 0)));
  expect_installed_mismatch_matches(full, truncated);
}

TEST(FuseDifferential, MidStreamReinstallKeepsEquivalence) {
  expect_reinstalls_match({net::build_ipv4_cm(), net::build_udp_echo()});
}

// Running whole superblocks: the store ends its dispatch after retiring,
// the patched word executes through the interpreter.
TEST(FuseDifferential, SelfModifyingStoreKillsFusionAndMatchesOracle) {
  const isa::Program p = self_patching_program();
  auto compiled = CompiledProgram::compile(p, monitor::MerkleTreeHash(0x5E1F));
  Core fast, oracle;
  oracle.set_tier(Tier::Interpret);
  fast.load_program(p, compiled);
  oracle.load_program(p, compiled);
  ASSERT_TRUE(fast.compiled_live());

  expect_same_step(fast.run(64), oracle.run(64), 64);
  expect_same_state(fast, oracle);
  EXPECT_EQ(fast.reg(2), 42u) << "patched instruction must have executed";
  EXPECT_FALSE(fast.compiled_live())
      << "the compiled tier must not survive a dirtied text image";
  fast.reset();
  EXPECT_TRUE(fast.compiled_live());
}

// Every core reads the one predecoded op table of the shared artifact.
TEST(FuseDifferential, FusedTablesRideTheSharedArtifact) {
  Mpsoc soc(4);
  testsupport::install_all(soc, testsupport::kEchoApp, 0x1D1D);
  const CompiledProgram* shared = expect_one_shared_artifact(soc);
  ASSERT_NE(shared, nullptr);
  for (std::size_t c = 1; c < soc.num_cores(); ++c) {
    EXPECT_EQ(soc.core(c).core().compiled_program()->ops_data(),
              shared->ops_data())
        << "core " << c;
  }
}

TEST(FuseDifferential, AttackRecoveryPoliciesMatchAcrossTiers) {
  expect_recovery_policies_match(0xF5A77AC4);
}

// ---------------------------------------------------------------------
// TraceDifferential: branchy superblocks and side exits
// ---------------------------------------------------------------------

class TraceDifferentialTest : public ::testing::TestWithParam<int> {};

TEST_P(TraceDifferentialTest, RandomProgramsRunIdenticalAcrossTiers) {
  fuzz_programs(static_cast<std::uint64_t>(GetParam()) * 0x7ACE5EED + 29,
                kBranchy, 600, /*lockstep=*/false);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TraceDifferentialTest,
                         ::testing::Range(0, 8));

// loop-forward is the extreme case: nearly every retired op reaches the
// monitor inside a slice spanning many unrolled loop iterations.
TEST(TraceDifferential, MonitoredVerdictsAndStatsMatchAcrossTiers) {
  expect_apps_match({net::build_ipv4_forward(), net::build_udp_echo(),
                     net::build_loop_forward()},
                    0x7ACE5EED);
}

// Attack packets back to back with benign ones: every recovery reset is
// followed at once by a packet that must run compiled again.
TEST(TraceDifferential, AttackMismatchMidTraceMatchesOracle) {
  expect_attack_traffic_matches(0x7ACE, 2);
}

// A counted loop (backward bne, predicted taken) whose superblock
// unrolls several iterations, under a graph that expects a different
// second body op: advance() flags a hash on the first unrolled
// iteration while predicted-taken branches sit retired beyond it, and on
// the last dispatch the loop-exit side exit flips the final op's
// taken-attribution. Instruction counts and monitor stats prove the
// retraction is exact.
TEST(TraceDifferential, MismatchBeforeSideExitRetractsExactly) {
  const isa::Program full = isa::assemble(R"(
main:
    li $t0, 6
    move $t1, $zero
loop:
    addiu $t1, $t1, 1
    addiu $t2, $t2, 3
    bne $t1, $t0, loop
    addiu $t3, $t3, 5
    jr $ra
)");
  isa::Program expected = full;
  expected.text[3] = isa::encode(isa::make_itype(isa::Op::Addiu, 10, 10, 4));
  expect_installed_mismatch_matches(full, expected);
}

// A taken branch-to-next (beq $0,$0 to the following word) stays on its
// predicted path, so it never side-exits. Under a graph that expects a
// different op before it in the same superblock, the retraction must
// therefore un-retire it as not-taken, exactly as the interpreter
// counted it.
TEST(TraceDifferential, MismatchBeforeTakenBranchToNextRetractsExactly) {
  const isa::Program full = isa::assemble(R"(
main:
    addiu $t1, $t1, 1
    addiu $t2, $t2, 3
    beq $zero, $zero, next
next:
    addiu $t3, $t3, 5
    jr $ra
)");
  isa::Program expected = full;
  expected.text[1] = isa::encode(isa::make_itype(isa::Op::Addiu, 10, 10, 4));
  expect_installed_mismatch_matches(full, expected);
}

TEST(TraceDifferential, MidStreamReinstallKeepsEquivalence) {
  expect_reinstalls_match(
      {net::build_loop_forward(), net::build_ipv4_forward()});
}

// The self-patching store sits inside a superblock that continues past
// it; the dispatch must end right after the store.
TEST(TraceDifferential, SelfModifyingStoreKillsTracesAndMatchesOracle) {
  const isa::Program p = self_patching_program();
  auto compiled = CompiledProgram::compile(p, monitor::MerkleTreeHash(0x5E1F));
  ASSERT_GT(compiled->trace_at(p.entry).len, 4u);
  Core fast, oracle;
  oracle.set_tier(Tier::Interpret);
  fast.load_program(p, compiled);
  oracle.load_program(p, compiled);
  // Six steps: the store (op 5) ends the dispatch, the sixth op is the
  // patched word, executed through the interpreter.
  expect_same_step(fast.run(6), oracle.run(6), 6);
  expect_same_state(fast, oracle);
  EXPECT_FALSE(fast.compiled_live());
  EXPECT_EQ(fast.reg(2), 42u) << "patched instruction must have executed";
  expect_same_step(fast.run(64), oracle.run(64), 64);
  expect_same_state(fast, oracle);
}

// The tier is a property of the core, not the program: it survives
// load_program and both resets, and a dirty text image suspends the
// compiled tier without changing the selection.
TEST(TraceDifferential, TierSelectorIsSticky) {
  const isa::Program app = net::build_loop_forward();
  auto compiled =
      CompiledProgram::compile(app, monitor::MerkleTreeHash(0x1357));
  Core core;
  EXPECT_EQ(core.tier(), Tier::Compiled) << "compiled by default";
  core.set_tier(Tier::Interpret);
  core.load_program(app, compiled);
  EXPECT_FALSE(core.compiled_live());
  core.reset();
  core.soft_reset();
  EXPECT_FALSE(core.compiled_live()) << "tier must survive both resets";
  core.set_tier(Tier::Compiled);
  EXPECT_TRUE(core.compiled_live());
  core.load_program(app);
  EXPECT_FALSE(core.compiled_live()) << "no artifact, nothing to run";
  EXPECT_EQ(core.tier(), Tier::Compiled);
  core.load_program(app, compiled);
  EXPECT_TRUE(core.compiled_live());
}

TEST(TraceDifferential, TraceTablesRideTheSharedArtifact) {
  Mpsoc soc(4);
  testsupport::install_all(soc, testsupport::kEchoApp, 0x1D1D);
  const CompiledProgram* shared = expect_one_shared_artifact(soc);
  ASSERT_NE(shared, nullptr);
  for (std::size_t c = 1; c < soc.num_cores(); ++c) {
    EXPECT_EQ(soc.core(c).core().compiled_program()->trace_ops_data(),
              shared->trace_ops_data())
        << "core " << c;
  }
  EXPECT_GT(shared->num_traces(), 0u);
}

TEST(TraceDifferential, AttackRecoveryPoliciesMatchAcrossTiers) {
  expect_recovery_policies_match(0x7AC3A77C);
}

}  // namespace
}  // namespace sdmmon::np
