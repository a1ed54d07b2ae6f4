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
//     before a side-exiting branch; plus fixed cases of each stop rule
//     at a known place in a superblock, and of each handler variant and
//     fused pair under every max_steps and watchdog cut.
// The random programs also carry the idioms handler selection fuses or
// specialises, so every handler runs in all three suites.
// Each also covers mid-stream reinstalls, self-modifying stores, shared
// artifacts, and all three recovery policies on an MPSoC.
#include <gtest/gtest.h>

#include <iterator>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "isa/assembler.hpp"
#include "monitor/analysis.hpp"
#include "net/apps.hpp"
#include "net/traffic.hpp"
#include "np/mpsoc.hpp"
#include "np/op_table.hpp"
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
  int idiom;                    // percent of positions holding an idiom
};

// Every construct in moderation (predecode lockstep).
constexpr ProgramShape kMixed{
    8, 12, 15, 25, 30, 45, 85, 90, -4, 12, false, 8};
// Long straight-line bodies, still broken by every stop construct.
constexpr ProgramShape kBodyHeavy{
    7, 10, 13, 21, 27, 45, 92, 96, -4, 12, false, 10};
// Short backward (predicted-taken) loops, forward skips (taken = side
// exit), branch-to-next (imm 0: counted not-taken), j/jal.
constexpr ProgramShape kBranchy{
    20, 24, 27, 35, 41, 58, 94, 97, -7, 12, true, 10};

// The non-trapping ALU ops, by the field they write.
#define SDMMON_OP_OF(name, ...) isa::Op::name,
constexpr isa::Op kAluRdOps[] = {SDMMON_OPS_ALU_RD(SDMMON_OP_OF)};
constexpr isa::Op kAluRtOps[] = {SDMMON_OPS_ALU_RT(SDMMON_OP_OF)};
#undef SDMMON_OP_OF

// `op`, one of the above, writing $zero, in the encoding the decoder
// takes.
isa::Instr zero_dest_op(isa::Op op, int rs, int rt, std::int32_t imm) {
  switch (op) {
    case isa::Op::Sll:
    case isa::Op::Srl:
    case isa::Op::Sra: return isa::make_shift(op, 0, rt, imm & 31);
    case isa::Op::Mfhi:
    case isa::Op::Mflo: return isa::make_rtype(op, 0, 0, 0);
    case isa::Op::Lui: return isa::make_itype(op, 0, 0, imm);
    default: break;
  }
  for (const isa::Op rt_op : kAluRtOps) {
    if (op == rt_op) return isa::make_itype(op, 0, rs, imm);
  }
  return isa::make_rtype(op, 0, rs, rt);
}

// One of the idioms handler selection looks for (docs/EXECUTION.md,
// "Handler selection"), at random operands, so every fused pair and
// variant runs against the interpreter:
//   * addu, then an lbu or sb based on the sum. The sum is a text
//     address ($zero + $zero: a store there dirties the text), a data
//     address (after lui 1), or a random one (mostly unmapped or MMIO);
//   * addiu r, r, k, then a backward bne on r (bne r, r never branches:
//     a side exit from the fused pair);
//   * an ALU op writing $zero;
//   * a branch to the next word.
void push_idiom(util::Rng& rng, isa::Program& p, int rd, int rs, int rt) {
  const std::int32_t imm = static_cast<std::int32_t>(rng.below(0x100)) - 0x80;
  switch (rng.below(4)) {
    case 0: {
      int a = rs, b = rt;
      switch (rng.below(3)) {
        case 0: a = b = 0; break;
        case 1:
          p.text.push_back(
              isa::encode(isa::make_itype(isa::Op::Lui, rd, 0, 1)));
          a = rd;
          b = 0;
          break;
        default: break;
      }
      p.text.push_back(isa::encode(isa::make_rtype(isa::Op::Addu, rd, a, b)));
      const isa::Op mem = rng.below(2) == 0 ? isa::Op::Lbu : isa::Op::Sb;
      p.text.push_back(isa::encode(
          isa::make_itype(mem, rng.below(2) == 0 ? rd : rt, rd, imm)));
      break;
    }
    case 1:
      p.text.push_back(isa::encode(isa::make_itype(
          isa::Op::Addiu, rd, rd, static_cast<std::int32_t>(1 + rng.below(3)))));
      p.text.push_back(isa::encode(isa::make_branch(
          isa::Op::Bne, rd, rng.below(4) == 0 ? rd : rt,
          -static_cast<std::int32_t>(1 + rng.below(4)))));
      break;
    case 2: {
      const std::size_t n_rd = std::size(kAluRdOps);
      const std::size_t pick = rng.below(n_rd + std::size(kAluRtOps));
      const isa::Op op =
          pick < n_rd ? kAluRdOps[pick] : kAluRtOps[pick - n_rd];
      p.text.push_back(isa::encode(zero_dest_op(op, rs, rt, imm)));
      break;
    }
    default: {
      static constexpr isa::Op kBranch[] = {isa::Op::Beq, isa::Op::Bne,
                                            isa::Op::Blez, isa::Op::Bgtz};
      const isa::Op op = kBranch[rng.below(4)];
      const bool two_regs = op == isa::Op::Beq || op == isa::Op::Bne;
      p.text.push_back(
          isa::encode(isa::make_branch(op, rs, two_regs ? rt : 0, 0)));
      break;
    }
  }
}

isa::Program random_program(util::Rng& rng, const ProgramShape& shape) {
  const std::size_t n = 16 + rng.below(48);
  isa::Program p;
  p.name = "compiled-fuzz";
  p.text_base = 0;
  p.entry = 0;
  p.text.reserve(n + 2);
  while (p.text.size() < n) {
    const int pick = static_cast<int>(rng.below(100));
    const int rd = static_cast<int>(8 + rng.below(16));  // $t0..$s7
    const int rs = static_cast<int>(8 + rng.below(16));
    const int rt = static_cast<int>(8 + rng.below(16));
    if (static_cast<int>(rng.below(100)) < shape.idiom) {
      push_idiom(rng, p, rd, rs, rt);
    } else if (pick < shape.branch) {
      static constexpr isa::Op kBranch[] = {isa::Op::Beq, isa::Op::Bne,
                                            isa::Op::Blez, isa::Op::Bgtz};
      const std::int32_t off =
          shape.branch_min +
          static_cast<std::int32_t>(
              rng.below(static_cast<std::uint64_t>(shape.branch_span)));
      // blez/bgtz encode rt as 0, or the word does not decode.
      const isa::Op op = kBranch[rng.below(4)];
      const bool two_regs = op == isa::Op::Beq || op == isa::Op::Bne;
      p.text.push_back(
          isa::encode(isa::make_branch(op, rs, two_regs ? rt : 0, off)));
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
                                         isa::Op::Lhu, isa::Op::Sw,
                                         isa::Op::Sb,  isa::Op::Sh};
      const std::int32_t imm =
          static_cast<std::int32_t>(rng.below(0x100)) - 0x80;
      p.text.push_back(
          isa::encode(isa::make_itype(kMem[rng.below(8)], rt, rs, imm)));
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
          isa::Op::Mfhi, isa::Op::Mflo, isa::Op::Sllv,  isa::Op::Srlv,
          isa::Op::Srav};
      const isa::Op op = kAlu[rng.below(17)];
      // Decode rejects words with junk in unused fields: multiply/divide
      // write no rd, mfhi/mflo read no rs/rt.
      isa::Instr in = isa::make_rtype(op, rd, rs, rt);
      if (op == isa::Op::Mult || op == isa::Op::Multu ||
          op == isa::Op::Div || op == isa::Op::Divu) {
        in.rd = 0;
      } else if (op == isa::Op::Mfhi || op == isa::Op::Mflo) {
        in.rs = in.rt = 0;
      }
      p.text.push_back(isa::encode(in));
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
  CorePair() { oracle.set_tier(Tier::Interpret); }

  void install(const isa::Program& app, const monitor::MonitoringGraph& graph,
               const monitor::MerkleTreeHash& hash) {
    for (MonitoredCore* mc : {&fast, &oracle}) {
      mc->install(app, graph, std::make_unique<monitor::MerkleTreeHash>(hash));
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
      pair.fast.set_watchdog_budget(watchdog);
      pair.oracle.set_watchdog_budget(watchdog);
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

// Attack traffic on the vulnerable app, one packet in `attack_every` an
// attack: the smashed control flow diverts into packet-carried code, the
// monitor flags it, and per-packet instruction counts prove both tiers
// executed exactly as many ops before the recovery reset.
void expect_attack_traffic_matches(std::uint32_t hash_param,
                                   std::size_t attack_every) {
  const isa::Program vuln = isa::assemble(testsupport::kVulnApp);
  monitor::MerkleTreeHash hash(hash_param);
  CorePair pair;
  pair.install(vuln, monitor::extract_graph(vuln, hash), hash);
  const util::Bytes attack = testsupport::attack_packet();
  net::TrafficGenerator gen;
  for (std::size_t i = 0; i < 100; ++i) {
    pair.process(i % attack_every == 0 ? attack : gen.next().packet, i);
  }
  expect_same_stats(pair.fast, pair.oracle);
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
      oracle_soc.core(c).set_tier(Tier::Interpret);
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
  auto graph =
      monitor::CompiledGraph::compile(monitor::extract_graph(app, installed));
  auto wrong = CompiledProgram::compile(app, monitor::MerkleTreeHash(0x2222));
  const InstallArtifacts artifacts{graph, wrong,
                                   MonitorSummary::build(graph, wrong)};
  MonitoredCore core;
  EXPECT_THROW(
      core.install(app, artifacts,
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

// ---------------------------------------------------------------------
// Stop rules inside a superblock
// ---------------------------------------------------------------------

// What run_observed() retired, dispatch by dispatch.
struct DispatchLog {
  std::vector<std::uint64_t> batches;  // ops retired per superblock dispatch
  std::vector<StepInfo> steps;         // per-op steps
  std::uint64_t on_batch(const std::uint8_t*, std::uint64_t n, bool) {
    batches.push_back(n);
    return n;
  }
  bool on_step(const StepInfo& info) {
    steps.push_back(info);
    return true;
  }
};

// How the superblock executor must treat the op under test.
enum class OpFate {
  EndsDispatch,  // branch-to-next, retired as the dispatch's last op
  StopsBefore,   // would trap or touches MMIO: step() takes it over
  NeverInTrace,  // jr/jalr/syscall/break: the superblock ends before it
};

struct OpCase {
  isa::Instr in;
  std::uint32_t a = 0;  // value of rs ($t4)
  std::uint32_t b = 0;  // value of rt ($t5)
  OpFate fate = OpFate::StopsBefore;
};

constexpr int kRs = 12, kRt = 13, kRd = 14;  // $t4, $t5, $t6
constexpr std::uint32_t kOpIndex = 2;        // text index of the op
constexpr std::uint32_t kDataWord = kDataBase + 0x100;

// The op under test at text index 2 of
//   addiu $t1, $t1, 1; addiu $t1, $t1, 1; <op>; addiu $t2, $t2, 1; jr $ra
// with mapped data around kDataWord.
isa::Program op_program(const isa::Instr& in) {
  isa::Program p;
  p.name = "stop-rules";
  const std::uint32_t bump =
      isa::encode(isa::make_itype(isa::Op::Addiu, 9, 9, 1));
  p.text = {bump, bump, isa::encode(in),
            isa::encode(isa::make_itype(isa::Op::Addiu, 10, 10, 1)),
            isa::encode(isa::make_rtype(isa::Op::Jr, 0, 31, 0))};
  p.data_base = kDataBase;
  p.data.assign(0x200, 0);
  return p;
}

// The cases the random programs reach rarely or never: overflow operands,
// every load and store faulting and reaching MMIO, each branch to the
// next word taken and not, and the ops that end a superblock before them.
std::vector<OpCase> stop_rule_cases() {
  using isa::Op;
  std::vector<OpCase> cases;
  auto add = [&](isa::Instr in, std::uint32_t a, std::uint32_t b,
                 OpFate fate) { cases.push_back({in, a, b, fate}); };
  add(isa::make_rtype(Op::Add, kRd, kRs, kRt), 0x7FFF'FFFFu, 1,
      OpFate::StopsBefore);
  add(isa::make_rtype(Op::Sub, kRd, kRs, kRt), 0x7FFF'FFFFu, 0xFFFF'FFFFu,
      OpFate::StopsBefore);
  add(isa::make_itype(Op::Addi, kRt, kRs, 1), 0x7FFF'FFFFu, 0,
      OpFate::StopsBefore);
  for (Op op : {Op::Lb, Op::Lbu, Op::Lh, Op::Lhu, Op::Lw, Op::Sb, Op::Sh,
                Op::Sw}) {
    const isa::Instr in = isa::make_itype(op, kRt, kRs, 4);
    const bool byte = op == Op::Lb || op == Op::Lbu || op == Op::Sb;
    if (!byte) add(in, kDataWord - 3, 0, OpFate::StopsBefore);  // unaligned
    add(in, 0x0010'0000u, 0, OpFate::StopsBefore);                // unmapped
    add(in, kRegPktInLen - 4, 0, OpFate::StopsBefore);
    if (isa::op_class(op) == isa::OpClass::Store) {
      add(in, kRegPktOutPort - 4, 0, OpFate::StopsBefore);
    }
  }
  for (Op op : {Op::Beq, Op::Bne, Op::Blez, Op::Bgtz}) {
    const int rt = op == Op::Beq || op == Op::Bne ? kRt : 0;
    const isa::Instr in = isa::make_branch(op, kRs, rt, 0);
    add(in, 5, 5, OpFate::EndsDispatch);            // beq, bgtz taken
    add(in, 0x8000'0000u, 5, OpFate::EndsDispatch);  // bne, blez taken
  }
  add(isa::make_rtype(Op::Jr, 0, kRs, 0), 20, 0, OpFate::NeverInTrace);
  add(isa::make_rtype(Op::Jalr, kRd, kRs, 0), 20, 0, OpFate::NeverInTrace);
  add(isa::make_rtype(Op::Syscall, 0, 0, 0), 0, 0, OpFate::NeverInTrace);
  add(isa::make_rtype(Op::Break, 0, 0, 0), 0, 0, OpFate::NeverInTrace);
  return cases;
}

// Each case at a fixed place in a superblock, run on the compiled tier
// and for as many steps on the interpreter: state, pc, cycles and the
// retired mix must match, and the dispatch must stop where the stop
// rules say.
TEST(TraceDifferential, StopRulesMatchInterpreterInsideASuperblock) {
  const std::vector<OpCase> cases = stop_rule_cases();
  for (std::size_t c = 0; c < cases.size(); ++c) {
    const OpCase& oc = cases[c];
    SCOPED_TRACE(std::string(isa::op_name(oc.in.op)) + " case " +
                 std::to_string(c));
    const isa::Program p = op_program(oc.in);
    auto compiled =
        CompiledProgram::compile(p, monitor::MerkleTreeHash(0x0A11));
    const CompiledProgram::TraceRef entry = compiled->trace_at(0);
    if (oc.fate == OpFate::NeverInTrace) {
      ASSERT_EQ(entry.len, kOpIndex) << "the superblock must end before it";
      ASSERT_EQ(compiled->trace_at(4 * kOpIndex).len, 0u);
    } else {
      ASSERT_GT(entry.len, kOpIndex);
      ASSERT_EQ(entry.ops[kOpIndex].instr, oc.in);
    }
    const std::uint64_t steps =
        oc.fate == OpFate::StopsBefore ? entry.len : kOpIndex + 1;

    Core fast, oracle;
    oracle.set_tier(Tier::Interpret);
    for (Core* core : {&fast, &oracle}) {
      core->load_program(p, compiled);
      core->set_reg(kRs, oc.a);
      core->set_reg(kRt, oc.b);
    }
    DispatchLog log;
    const StepInfo got = fast.run_observed(steps, log);
    expect_same_step(got, oracle.run(steps), steps);
    expect_same_state(fast, oracle);
    EXPECT_EQ(fast.output_port(), oracle.output_port());

    ASSERT_FALSE(log.batches.empty());
    if (oc.fate == OpFate::EndsDispatch) {
      EXPECT_EQ(log.batches, std::vector<std::uint64_t>{steps})
          << "one dispatch retires the branch";
      EXPECT_TRUE(log.steps.empty());
    } else {
      EXPECT_EQ(log.batches.front(), kOpIndex)
          << "the dispatch must stop before the op";
      ASSERT_FALSE(log.steps.empty());
      EXPECT_EQ(log.steps.front().pc, 4 * kOpIndex);
      EXPECT_EQ(log.steps.front().word, isa::encode(oc.in));
    }
  }
}

// ---------------------------------------------------------------------
// Mix settlement past the prefix table's byte wrap
// ---------------------------------------------------------------------

// A dispatch settles its retired mix from a byte-wide prefix table over
// the artifact's superblock ops, exact only modulo 256. This text puts
// more than 256 ops in that table and enters a superblock at a suffix
// anchor past offset 256, where the running alu count crosses 256
// inside the dispatch (and again inside the retracted tail below):
//   [0, 100)    lw (never executed; keeps the alu count below the offset)
//   [100, 400)  addiu $t1, $t1, 1
//   400         beq $zero, $zero, 402 (forward, predicted not taken)
//   401         addiu $t1, $t1, 1
//   402         jr $ra
constexpr std::uint32_t kWrapEntry = 300;   // text index of the entry
constexpr std::uint32_t kWrapBranch = 400;  // the side-exiting branch

isa::Program wrap_program() {
  isa::Program p;
  p.name = "mix-wrap";
  p.text.assign(100, isa::encode(isa::make_itype(isa::Op::Lw, 10, 0, 0)));
  p.text.resize(kWrapBranch,
                isa::encode(isa::make_itype(isa::Op::Addiu, 9, 9, 1)));
  p.text.push_back(
      isa::encode(isa::make_branch(isa::Op::Beq, 0, 0, 1)));
  p.text.push_back(isa::encode(isa::make_itype(isa::Op::Addiu, 9, 9, 1)));
  p.text.push_back(isa::encode(isa::make_rtype(isa::Op::Jr, 0, 31, 0)));
  p.entry = 4 * kWrapEntry;
  return p;
}

TEST(TraceDifferential, MixSettlesExactlyPastThePrefixByteWrap) {
  const isa::Program p = wrap_program();
  auto compiled = CompiledProgram::compile(p, monitor::MerkleTreeHash(0x3A9));
  ASSERT_GT(compiled->num_trace_ops(), 256u);
  const CompiledProgram::TraceRef entry = compiled->trace_at(p.entry);
  ASSERT_GT(entry.ops - compiled->trace_ops_data(), 256);
  ASSERT_EQ(compiled->trace_at(p.entry - 4).ops + 1, entry.ops)
      << "the entry must be a suffix anchor";
  ASSERT_GT(entry.len, kWrapBranch - kWrapEntry);

  // One dispatch retires the entry's run and side-exits at the branch.
  const std::uint64_t steps = kWrapBranch - kWrapEntry + 1;
  Core fast, oracle;
  oracle.set_tier(Tier::Interpret);
  fast.load_program(p, compiled);
  oracle.load_program(p, compiled);
  DispatchLog log;
  expect_same_step(fast.run_observed(steps, log), oracle.run(steps), steps);
  EXPECT_EQ(log.batches, std::vector<std::uint64_t>{steps});
  expect_same_state(fast, oracle);
  EXPECT_EQ(fast.instr_mix().branch_taken, 1u);
  expect_same_step(fast.run(), oracle.run(), 0);
  expect_same_state(fast, oracle);

  // A monitor mismatch ten ops past the entry, whose retracted tail holds
  // the byte wrap and the side-exiting branch; and one at that branch,
  // which retracts nothing.
  for (const std::uint32_t flagged : {kWrapEntry + 10, kWrapBranch}) {
    SCOPED_TRACE("mismatch at " + std::to_string(flagged));
    isa::Program expected = p;
    expected.text[flagged] =
        isa::encode(isa::make_itype(isa::Op::Addiu, 9, 9, 2));
    expect_installed_mismatch_matches(p, expected);
  }
}

// ---------------------------------------------------------------------
// Handler selection: variants and fused pairs
// ---------------------------------------------------------------------

using Regs = std::vector<std::pair<int, std::uint32_t>>;

// A program whose op at text index `at` must get `handler`, run from
// p.entry with `regs` preset. Run for `limit` steps, the first dispatch
// retires `first_batch` ops.
struct HandlerCase {
  std::string what;
  isa::Program p;
  std::uint32_t at;
  TraceHandler handler;
  Regs regs;
  std::uint64_t limit;
  std::uint64_t first_batch;
};

void load_case(Core& core, Tier tier, const HandlerCase& hc,
               const std::shared_ptr<const CompiledProgram>& compiled,
               std::uint64_t watchdog) {
  core.set_tier(tier);
  core.load_program(hc.p, compiled);
  core.set_watchdog_budget(watchdog);
  for (const auto& [r, v] : hc.regs) core.set_reg(r, v);
}

// Each case against the interpreter on state, pc, cycles(), instr_mix()
// and the out port: run for `limit` steps, then cut by every max_steps
// and every watchdog budget in [1, limit], so a cut lands between the
// halves of every pair and before and after every stop.
void expect_handler_cases_match(const std::vector<HandlerCase>& cases) {
  for (const HandlerCase& hc : cases) {
    SCOPED_TRACE(hc.what);
    auto compiled =
        CompiledProgram::compile(hc.p, monitor::MerkleTreeHash(0x4A4D));
    const CompiledProgram::TraceRef ref = compiled->trace_at(4 * hc.at);
    ASSERT_GT(ref.len, 0u);
    ASSERT_EQ(static_cast<int>(ref.ops[0].handler),
              static_cast<int>(hc.handler));

    Core fast, oracle;
    load_case(fast, Tier::Compiled, hc, compiled, 1'000'000);
    load_case(oracle, Tier::Interpret, hc, compiled, 1'000'000);
    DispatchLog log;
    expect_same_step(fast.run_observed(hc.limit, log),
                     oracle.run(hc.limit), hc.limit);
    expect_same_state(fast, oracle);
    EXPECT_EQ(fast.output_port(), oracle.output_port());
    ASSERT_FALSE(log.batches.empty());
    EXPECT_EQ(log.batches.front(), hc.first_batch);

    for (std::uint64_t cut = 1; cut <= hc.limit; ++cut) {
      for (const bool watchdog : {false, true}) {
        SCOPED_TRACE((watchdog ? "watchdog " : "max_steps ") +
                     std::to_string(cut));
        Core f, o;
        const std::uint64_t budget = watchdog ? cut : 1'000'000;
        load_case(f, Tier::Compiled, hc, compiled, budget);
        load_case(o, Tier::Interpret, hc, compiled, budget);
        const std::uint64_t steps = watchdog ? hc.limit + 1 : cut;
        expect_same_step(f.run(steps), o.run(steps), steps);
        expect_same_state(f, o);
        EXPECT_EQ(f.output_port(), o.output_port());
      }
    }
  }
}

isa::Program program_of(std::vector<isa::Instr> body, std::uint32_t entry) {
  isa::Program p;
  p.name = "handlers";
  for (const isa::Instr& in : body) {
    const std::uint32_t word = isa::encode(in);
    EXPECT_EQ(isa::try_decode(word), in) << "not a canonical encoding";
    p.text.push_back(word);
  }
  p.text.push_back(isa::encode(isa::make_rtype(isa::Op::Jr, 0, 31, 0)));
  p.entry = 4 * entry;
  return p;
}

constexpr int kT1 = 9, kT2 = 10, kT4 = 12, kT5 = 13, kT6 = 14, kT7 = 15,
              kT8 = 24;

isa::Instr bump(int reg) { return isa::make_itype(isa::Op::Addiu, reg, reg, 1); }

// addiu $t1; addu $t7, $t4, $t5; <lbu or sb> $t8 (or $t7), 3($t7);
// addiu $t2; jr $ra -- the pair at index 1, entered at `entry`.
isa::Program addu_pair_program(isa::Op second, int value_reg,
                               std::uint32_t entry = 0) {
  return program_of({bump(kT1), isa::make_rtype(isa::Op::Addu, kT7, kT4, kT5),
                     isa::make_itype(second, value_reg, kT7, 3), bump(kT2)},
                    entry);
}

// The second half of each addu pair stopping, and running through.
TEST(TraceDifferential, FusedPairStopsMatchInterpreter) {
  const std::uint32_t unmapped = 0x0010'0000u;
  std::vector<HandlerCase> cases;
  for (const isa::Op second : {isa::Op::Lbu, isa::Op::Sb}) {
    const TraceHandler pair = second == isa::Op::Lbu ? TraceHandler::AdduLbu
                                                     : TraceHandler::AdduSb;
    const isa::Program p = addu_pair_program(second, kT8);
    const std::string name(isa::op_name(second));
    auto add = [&](const std::string& what, std::uint32_t t4,
                   std::uint64_t first_batch) {
      cases.push_back({"addu+" + name + " " + what, p, 1, pair,
                       {{kT4, t4}, {kT5, 0x10}, {kT8, 0xA5}}, 8,
                       first_batch});
    };
    add("data", kDataBase, 4);
    add("unmapped", unmapped, 2);
    add("mmio", kRegPktOutPort - 0x13, 2);
    if (second == isa::Op::Lbu) {
      add("mmio register", kRegPktInLen - 0x13, 2);
    } else {
      // -6 + 0x10 + 3 lands in the addiu after the store: it retires,
      // dirties the text and ends the dispatch.
      add("into text", static_cast<std::uint32_t>(-6), 3);
    }
  }
  // The stored value is the sum itself: read after the first half wrote.
  cases.push_back({"addu+sb of the sum", addu_pair_program(isa::Op::Sb, kT7),
                   1, TraceHandler::AdduSb, {{kT4, kDataBase}, {kT5, 0x10}},
                   8, 4});
  // The loaded byte lands in the sum's register.
  cases.push_back({"addu+lbu into the sum",
                   addu_pair_program(isa::Op::Lbu, kT7), 1,
                   TraceHandler::AdduLbu, {{kT4, 0}, {kT5, 0x10}}, 8, 4});
  expect_handler_cases_match(cases);
}

// A suffix anchor entering at the second op of a pair runs that op's own
// handler.
TEST(TraceDifferential, SuffixEntryAtTheSecondOpOfAPairMatchesInterpreter) {
  std::vector<HandlerCase> cases;
  for (const isa::Op second : {isa::Op::Lbu, isa::Op::Sb}) {
    const isa::Program p = addu_pair_program(second, kT8, /*entry=*/2);
    auto compiled = CompiledProgram::compile(p, monitor::MerkleTreeHash(1));
    ASSERT_EQ(compiled->trace_at(8).ops, compiled->trace_at(0).ops + 2)
        << "the entry must be a suffix anchor";
    const TraceHandler own = static_cast<TraceHandler>(second);
    const Regs regs{{kT7, kDataBase}, {kT8, 0x5A}};
    cases.push_back({std::string(isa::op_name(second)) + " entered", p, 2,
                     own, regs, 6, 2});
    cases.push_back({std::string(isa::op_name(second)) + " entered, fault", p,
                     2, own, {{kT7, 0x0010'0000u}}, 6, 0});
  }
  // The loop's bne entered directly: its own predicted-taken handler.
  isa::Program loop = program_of(
      {bump(kT1), bump(kT6), isa::make_branch(isa::Op::Bne, kT6, kT5, -2),
       bump(kT2)},
      /*entry=*/2);
  cases.push_back({"bne entered", loop, 2, TraceHandler::BneTaken,
                   {{kT6, 0}, {kT5, 3}}, 12, 7});
  expect_handler_cases_match(cases);
}

// addiu + predicted-taken bne closing a loop: it side-exits when the
// loop ends, and bne r, r side-exits at once.
TEST(TraceDifferential, FusedLoopBranchSideExitsMatchInterpreter) {
  std::vector<HandlerCase> cases;
  for (const int rt : {kT5, kT6}) {
    const isa::Program p =
        program_of({bump(kT1), bump(kT6),
                    isa::make_branch(isa::Op::Bne, kT6, rt, -2), bump(kT2)},
                   0);
    cases.push_back({rt == kT6 ? "bne r, r" : "counted loop", p, 1,
                     TraceHandler::AddiuBneTaken, {{kT6, 0}, {kT5, 3}}, 12,
                     rt == kT6 ? 3u : 7u});
  }
  expect_handler_cases_match(cases);
}

// Operands that make each branch go the given way (rt unused by
// blez/bgtz).
Regs branch_operands(isa::Op op, bool taken) {
  switch (op) {
    case isa::Op::Beq: return {{kT4, 5}, {kT5, taken ? 5u : 6u}};
    case isa::Op::Bne: return {{kT4, 5}, {kT5, taken ? 6u : 5u}};
    case isa::Op::Blez: return {{kT4, taken ? 0x8000'0000u : 5u}};
    default: return {{kT4, taken ? 5u : 0u}};
  }
}

isa::Instr branch_of(isa::Op op, std::int32_t offset) {
  const bool two_regs = op == isa::Op::Beq || op == isa::Op::Bne;
  return isa::make_branch(op, kT4, two_regs ? kT5 : 0, offset);
}

// Each branch predicted each way (forward: not taken; backward: taken)
// and resolving each way.
TEST(TraceDifferential, SplitBranchesMatchInterpreterBothWays) {
  std::vector<HandlerCase> cases;
  for (const isa::Op op :
       {isa::Op::Beq, isa::Op::Bne, isa::Op::Blez, isa::Op::Bgtz}) {
    const std::string name(isa::op_name(op));
    // addiu; addiu; b +1; addiu; addiu; jr
    const isa::Program fwd = program_of(
        {bump(kT1), bump(kT1), branch_of(op, 1), bump(kT2), bump(kT1)}, 0);
    // addiu; addiu (target); b -2; addiu; jr
    const isa::Program back = program_of(
        {bump(kT1), bump(kT2), branch_of(op, -2), bump(kT1)}, 0);
    const TraceHandler taken_variant = static_cast<TraceHandler>(
        static_cast<int>(TraceHandler::BeqTaken) +
        (static_cast<int>(op) - static_cast<int>(isa::Op::Beq)));
    for (const bool taken : {false, true}) {
      const std::string way = taken ? " taken" : " not taken";
      cases.push_back({name + " forward" + way, fwd, 2,
                       static_cast<TraceHandler>(op),
                       branch_operands(op, taken), 10, taken ? 3u : 5u});
      cases.push_back({name + " backward" + way, back, 2, taken_variant,
                       branch_operands(op, taken), 10, taken ? 10u : 3u});
    }
  }
  expect_handler_cases_match(cases);
}

// A branch to the next word cannot leave the fall-through path, taken or
// not: Nop, and no side exit.
TEST(TraceDifferential, BranchToNextIsANopTakenOrNot) {
  std::vector<HandlerCase> cases;
  for (const isa::Op op :
       {isa::Op::Beq, isa::Op::Bne, isa::Op::Blez, isa::Op::Bgtz}) {
    const isa::Program p = program_of(
        {bump(kT1), bump(kT1), branch_of(op, 0), bump(kT2)}, 0);
    for (const bool taken : {false, true}) {
      cases.push_back({std::string(isa::op_name(op)) +
                           (taken ? " taken" : " not taken"),
                       p, 2, TraceHandler::Nop, branch_operands(op, taken), 6,
                       4});
    }
  }
  expect_handler_cases_match(cases);
}

// Every non-trapping ALU op writing $zero is a Nop; $zero stays 0.
TEST(TraceDifferential, ZeroDestinationAluOpsAreNops) {
  std::vector<isa::Op> ops(std::begin(kAluRdOps), std::end(kAluRdOps));
  ops.insert(ops.end(), std::begin(kAluRtOps), std::end(kAluRtOps));
  std::vector<HandlerCase> cases;
  for (const isa::Op op : ops) {
    const isa::Instr in = zero_dest_op(op, kT4, kT5, 0x1F83);
    cases.push_back({std::string(isa::op_name(op)),
                     program_of({bump(kT1), bump(kT1), in, bump(kT2)}, 0), 2,
                     TraceHandler::Nop, {{kT4, 0x1234'5678u}, {kT5, 7}}, 6,
                     4});
  }
  expect_handler_cases_match(cases);
}

// The random programs of the three differential suites and the shipped
// apps between them reach every handler a superblock can hold, so each
// one runs against the interpreter.
TEST(TraceDifferential, FormationChoosesEveryHandler) {
  std::vector<bool> chosen(kNumTraceHandlers, false);
  auto note = [&](const isa::Program& p) {
    auto compiled = CompiledProgram::compile(p, monitor::MerkleTreeHash(7));
    const CompiledProgram::TraceOp* ops = compiled->trace_ops_data();
    for (std::size_t i = 0; i < compiled->num_trace_ops(); ++i) {
      chosen[static_cast<std::size_t>(ops[i].handler)] = true;
    }
  };
  for (const ProgramShape* shape : {&kMixed, &kBodyHeavy, &kBranchy}) {
    util::Rng rng(29);
    for (int trial = 0; trial < 600; ++trial) note(random_program(rng, *shape));
  }
  for (const isa::Program& app :
       {net::build_ipv4_forward(), net::build_ipv4_cm(), net::build_udp_echo(),
        net::build_firewall({22, 53, 80, 443}), net::build_loop_forward()}) {
    note(app);
  }
  // jr/jalr/syscall/break end a superblock before them.
  for (const isa::Op never :
       {isa::Op::Jr, isa::Op::Jalr, isa::Op::Syscall, isa::Op::Break}) {
    EXPECT_FALSE(chosen[static_cast<std::size_t>(never)]);
    chosen[static_cast<std::size_t>(never)] = true;
  }
  for (int h = 0; h < kNumTraceHandlers; ++h) {
    EXPECT_TRUE(chosen[static_cast<std::size_t>(h)]) << "handler id " << h;
  }
}

// Structural gate on the hot loop: the six-op byte copy of ipv4-forward
// (and of every app sharing its epilogue) retires through three handlers
// per iteration: addu+lbu, addu+sb, addiu+bne.
TEST(TraceDifferential, CopyLoopRunsThreeHandlersPerSixOps) {
  const isa::Program app = net::build_ipv4_forward();
  const std::uint32_t copy = app.symbol("copy");
  auto compiled = CompiledProgram::compile(app, monitor::MerkleTreeHash(3));
  const CompiledProgram::TraceRef ref = compiled->trace_at(copy);
  ASSERT_GE(ref.len, 12u) << "the loop must unroll";
  const std::uint32_t loop_ops = 6;
  std::uint32_t iterations = 0;
  for (std::uint32_t i = 0; i + loop_ops <= ref.len; i += loop_ops) {
    if (ref.ops[i].pc != copy) break;
    int dispatches = 0;
    for (std::uint32_t j = i; j < i + loop_ops; ++dispatches) {
      const bool pair =
          ref.ops[j].handler >= TraceHandler::AdduLbu;  // pairs come last
      j += pair ? 2 : 1;
    }
    EXPECT_EQ(dispatches, 3) << "iteration " << iterations;
    ++iterations;
  }
  EXPECT_GE(iterations, 2u);
  EXPECT_EQ(static_cast<int>(ref.ops[0].handler),
            static_cast<int>(TraceHandler::AdduLbu));
  EXPECT_EQ(static_cast<int>(ref.ops[2].handler),
            static_cast<int>(TraceHandler::AdduSb));
  EXPECT_EQ(static_cast<int>(ref.ops[4].handler),
            static_cast<int>(TraceHandler::AddiuBneTaken));
}

}  // namespace
}  // namespace sdmmon::np
