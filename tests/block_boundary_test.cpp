// Block-boundary edge cases for the compiled tier (docs/EXECUTION.md):
// superblock formation itself (anchors, lengths, suffix sharing, hash
// lanes on handcrafted texts) and end-to-end equivalence with the
// interpreter oracle for the shapes most likely to break a superblock
// dispatcher -- blocks ending in an indirect jump or an undecodable
// (trapping) word, back-to-back branches, single-instruction blocks
// between taken branches, mid-block entry, a store that dirties the
// block it is executing from, and watchdog/max_steps clamps.
#include <gtest/gtest.h>

#include <vector>

#include "isa/assembler.hpp"
#include "monitor/analysis.hpp"
#include "np/mpsoc.hpp"
#include "util/rng.hpp"

namespace sdmmon::np {
namespace {

std::shared_ptr<const CompiledProgram> compile(const isa::Program& p) {
  return CompiledProgram::compile(p, monitor::MerkleTreeHash(0xB10C));
}

isa::Program raw_program(std::vector<std::uint32_t> words) {
  isa::Program p;
  p.name = "block-boundary";
  p.text_base = 0;
  p.entry = 0;
  p.text = std::move(words);
  return p;
}

// Run one program on both tiers and require identical final state.
// Returns the interpreter's final StepInfo.
StepInfo run_both_tiers(const isa::Program& p, std::uint64_t max_steps = 256,
                        std::uint64_t watchdog = 512) {
  auto artifact = compile(p);
  Core interp, fast;
  interp.set_tier(Tier::Interpret);
  interp.load_program(p, artifact);
  fast.load_program(p, artifact);
  for (Core* c : {&interp, &fast}) c->set_watchdog_budget(watchdog);
  EXPECT_TRUE(fast.compiled_live());

  const StepInfo a = interp.run(max_steps);
  const StepInfo b = fast.run(max_steps);
  EXPECT_EQ(a.pc, b.pc);
  EXPECT_EQ(a.word, b.word);
  EXPECT_EQ(static_cast<int>(a.event), static_cast<int>(b.event));
  EXPECT_EQ(static_cast<int>(a.trap), static_cast<int>(b.trap));
  EXPECT_EQ(interp.pc(), fast.pc());
  EXPECT_EQ(interp.cycles(), fast.cycles());
  EXPECT_EQ(interp.runnable(), fast.runnable());
  EXPECT_EQ(interp.instr_mix().branch_taken, fast.instr_mix().branch_taken);
  EXPECT_EQ(interp.instr_mix().branch_not_taken,
            fast.instr_mix().branch_not_taken);
  for (int r = 0; r < 32; ++r) {
    EXPECT_EQ(interp.reg(r), fast.reg(r)) << "register " << r;
  }
  return a;
}

// Counts what run_observed() dispatches, accepting every retired op.
struct DispatchCounter {
  std::uint64_t dispatches = 0;
  std::uint64_t side_exits = 0;
  std::uint64_t on_batch(const std::uint8_t*, std::uint64_t n,
                         bool side_exit) {
    ++dispatches;
    if (side_exit) ++side_exits;
    return n;
  }
  bool on_step(const StepInfo&) { return true; }
};

std::uint32_t len_at(const CompiledProgram& artifact, std::uint32_t index) {
  return artifact.trace_at(artifact.text_base() + 4 * index).len;
}

std::uint32_t addiu(int rt, int rs, std::int32_t imm) {
  return isa::encode(isa::make_itype(isa::Op::Addiu, rt, rs, imm));
}

std::uint32_t beq(int rs, int rt, std::int32_t off) {
  return isa::encode(isa::make_branch(isa::Op::Beq, rs, rt, off));
}

std::uint32_t jr_ra() {
  return isa::encode(isa::make_rtype(isa::Op::Jr, 0, 31, 0));
}

// ---------------------------------------------------------------------
// Formation on handcrafted texts
// ---------------------------------------------------------------------

// A body-only superblock ends where no superblock may continue: at an
// indirect jump, which itself anchors nothing. Its hash lane is exactly
// the mhash column of the ops it covers.
TEST(BlockBoundary, PureRunStopsAtBlockEnd) {
  const isa::Program p = raw_program(
      {addiu(8, 8, 1), addiu(9, 9, 2), addiu(10, 10, 3), jr_ra(),
       addiu(11, 11, 4)});
  auto artifact = compile(p);
  const CompiledProgram::TraceRef ref = artifact->trace_at(0);
  ASSERT_EQ(ref.len, 3u) << "superblock must stop before the jr";
  for (std::uint32_t i = 0; i < ref.len; ++i) {
    EXPECT_EQ(ref.ops[i].pc, 4 * i);
    EXPECT_EQ(ref.hashes[i], artifact->ops_data()[i].mhash) << "op " << i;
  }
  EXPECT_EQ(len_at(*artifact, 3), 0u) << "jr anchors no superblock";
  EXPECT_EQ(len_at(*artifact, 4), 1u) << "the leader after jr gets its own";
  run_both_tiers(p);
}

// An undecodable word is a trapping op: a superblock falling through
// into it must stop exactly at the boundary so the trap fires at the
// same pc / cycle count on both tiers.
TEST(BlockBoundary, BlockEndingInUndecodableWordTrapsIdentically) {
  const isa::Program p = raw_program(
      {addiu(8, 8, 1), addiu(9, 9, 2), addiu(10, 10, 3), 0xFFFFFFFFu});
  auto artifact = compile(p);
  EXPECT_EQ(len_at(*artifact, 0), 3u);
  EXPECT_EQ(len_at(*artifact, 3), 0u)
      << "undecodable words never enter a superblock";
  const StepInfo last = run_both_tiers(p);
  EXPECT_EQ(static_cast<int>(last.event),
            static_cast<int>(StepEvent::Trapped));
  EXPECT_EQ(static_cast<int>(last.trap),
            static_cast<int>(Trap::DecodeFault));
  EXPECT_EQ(last.pc, 12u) << "trap pc is the undecodable word itself";

  // Entered directly (no superblock leads into it), the word still traps
  // identically on both tiers.
  isa::Program direct = p;
  direct.entry = 12;
  const StepInfo entered = run_both_tiers(direct);
  EXPECT_EQ(static_cast<int>(entered.trap),
            static_cast<int>(Trap::DecodeFault));
  EXPECT_EQ(entered.pc, 12u);
}

// Back-to-back branches: every block is a single branch, and every
// branch is a leader's whole block. Formation stitches them into one
// predicted path (forward = not taken); a branch-to-next (imm 0) is
// taken to its own fall-through, which is its predicted pc, so it never
// side-exits and the whole path retires in one dispatch.
TEST(BlockBoundary, BackToBackBranchesFormOneSuperblock) {
  isa::Program p = raw_program(
      {beq(0, 0, 0), beq(0, 0, 0), beq(0, 0, 0), addiu(8, 0, 7),
       beq(8, 0, 0), beq(8, 0, 0), jr_ra()});
  auto artifact = compile(p);
  for (std::uint32_t i = 0; i < 6; ++i) {
    EXPECT_EQ(len_at(*artifact, i), 6 - i) << "op " << i;
  }
  EXPECT_EQ(len_at(*artifact, 6), 0u);
  run_both_tiers(p);

  Core fast;
  fast.load_program(p, artifact);
  DispatchCounter counter;
  fast.run_observed(256, counter);
  EXPECT_EQ(counter.dispatches, 1u);
  EXPECT_EQ(counter.side_exits, 0u);
  EXPECT_EQ(fast.instr_mix().branch_taken, 0u)
      << "a taken branch-to-next never leaves the fall-through path";
  EXPECT_EQ(fast.instr_mix().branch_not_taken, 5u);
}

// Single-instruction blocks between always-taken forward branches: each
// branch resolves against its not-taken prediction and side-exits, so
// the dispatcher restarts at the taken target's own superblock.
TEST(BlockBoundary, SingleInstructionBlocksSideExitIdentically) {
  isa::Program p = raw_program(
      {addiu(8, 0, 5),    // block A: one body op
       beq(0, 0, 1),      // taken: skip the next word
       addiu(8, 8, 100),  // skipped
       addiu(9, 8, 1),    // block B: one body op (branch target)
       beq(0, 0, 1),      // taken again
       addiu(9, 9, 100),  // skipped
       addiu(10, 9, 1),   // block C
       jr_ra()});
  auto artifact = compile(p);
  EXPECT_EQ(len_at(*artifact, 0), 7u) << "predicted path runs straight";
  EXPECT_EQ(len_at(*artifact, 3), 4u);
  EXPECT_EQ(len_at(*artifact, 6), 1u);
  run_both_tiers(p);

  MonitoredCore mc;
  monitor::MerkleTreeHash hash(0xB10C);
  mc.install(p, monitor::extract_graph(p, hash),
             std::make_unique<monitor::MerkleTreeHash>(hash));
  const PacketResult r = mc.process_packet(util::Bytes(4, 0));
  EXPECT_EQ(r.trace_dispatches, 3u);
  EXPECT_EQ(r.trace_side_exits, 2u);
  Core fast;
  fast.load_program(p, artifact);
  fast.run(64);
  EXPECT_EQ(fast.reg(10), 7u) << "only the taken-path ops executed";
}

// Mid-block entry: a pc inside a block anchors the suffix of its
// leader's superblock -- the same ops, no extra storage -- so jr into
// the middle of a block executes exactly the remaining ops.
TEST(BlockBoundary, MidBlockEntryUsesSuffixRun) {
  isa::Program p = raw_program(
      {addiu(9, 0, 16),   // $t1 = 16 (byte address of op 4)
       isa::encode(isa::make_rtype(isa::Op::Jr, 0, 9, 0)),  // jr $t1
       addiu(8, 8, 1),    // op 2: leader, superblock of 4 (skipped...
       addiu(8, 8, 2),
       addiu(8, 8, 4),    // op 4: jr target (...except this suffix)
       addiu(8, 8, 8),
       jr_ra()});
  auto artifact = compile(p);
  const CompiledProgram::TraceRef leader = artifact->trace_at(8);
  const CompiledProgram::TraceRef suffix = artifact->trace_at(16);
  EXPECT_EQ(leader.len, 4u);
  EXPECT_EQ(suffix.len, 2u) << "suffix at the entry point";
  EXPECT_EQ(suffix.ops, leader.ops + 2) << "suffixes share the leader's ops";
  EXPECT_EQ(suffix.hashes, leader.hashes + 2);
  EXPECT_EQ(artifact->num_traces(), 2u) << "suffixes are not new superblocks";
  run_both_tiers(p);
  Core fast;
  fast.load_program(p, artifact);
  fast.run(64);
  EXPECT_EQ(fast.reg(8), 12u) << "only ops 4..5 execute";
}

// ---------------------------------------------------------------------
// Self-modifying stores into the executing block
// ---------------------------------------------------------------------

// The store patches an op LATER IN ITS OWN BASIC BLOCK. The compiled
// tier must not have pre-committed the stale suffix: a store that lands
// in the predecoded text ends the dispatch immediately after retiring,
// text goes dirty, and the patched word executes via the interpreter --
// exactly like the oracle.
TEST(BlockBoundary, StoreDirtyingOwnBlockExecutesPatchedSuffix) {
  // Block (no branches until jr): lui/ori build the patch word
  // "addiu $v0,$zero,77"; sw patches the addiu two slots ahead;
  // the original word there would have set $v0 = 1.
  const std::uint32_t patch =
      isa::encode(isa::make_itype(isa::Op::Addiu, 2, 0, 77));
  isa::Program p = raw_program(
      {isa::encode(isa::make_itype(isa::Op::Lui, 9, 0,
                                   static_cast<std::int32_t>(patch >> 16))),
       isa::encode(isa::make_itype(
           isa::Op::Ori, 9, 9, static_cast<std::int32_t>(patch & 0xFFFF))),
       addiu(10, 0, 20),  // $t2 = byte address of the victim op (20)
       isa::encode(isa::make_itype(isa::Op::Sw, 9, 10, 0)),
       addiu(11, 0, 1),   // pure op between store and victim
       addiu(2, 0, 1),    // victim: patched to addiu $v0,$zero,77
       jr_ra()});
  auto artifact = compile(p);
  // The whole 6-op body is one superblock; a suffix entry at op 4 sees
  // its remaining 2.
  EXPECT_EQ(len_at(*artifact, 0), 6u);
  EXPECT_EQ(len_at(*artifact, 4), 2u);

  const StepInfo last = run_both_tiers(p);
  EXPECT_EQ(static_cast<int>(last.event),
            static_cast<int>(StepEvent::PacketDone));
  Core fast;
  fast.load_program(p, artifact);
  fast.run(64);
  EXPECT_EQ(fast.reg(2), 77u) << "patched word must execute";
  EXPECT_TRUE(fast.text_dirty());
  EXPECT_FALSE(fast.compiled_live());
}

// Watchdog budget truncates a superblock mid-block: the budget trap must
// fire after exactly the same number of retired ops on both tiers.
TEST(BlockBoundary, WatchdogTruncatesFusedRunMidBlock) {
  std::vector<std::uint32_t> words;
  for (int i = 0; i < 16; ++i) words.push_back(addiu(8, 8, 1));
  words.push_back(jr_ra());
  const isa::Program p = raw_program(words);
  auto artifact = compile(p);
  EXPECT_EQ(len_at(*artifact, 0), 16u);
  for (std::uint64_t budget : {1u, 5u, 15u, 16u}) {
    const StepInfo last = run_both_tiers(p, 256, budget);
    EXPECT_EQ(static_cast<int>(last.event),
              static_cast<int>(StepEvent::Trapped))
        << "budget " << budget;
    EXPECT_EQ(static_cast<int>(last.trap),
              static_cast<int>(Trap::Watchdog))
        << "budget " << budget;
  }
  // Budget 17+ completes the block and returns.
  const StepInfo done = run_both_tiers(p, 256, 18);
  EXPECT_EQ(static_cast<int>(done.event),
            static_cast<int>(StepEvent::PacketDone));
}

// max_steps from run() can also land inside a superblock; the compiled
// tier must clamp and stop on the exact instruction, resumable mid-block.
TEST(BlockBoundary, MaxStepsStopsInsideRunAndResumes) {
  std::vector<std::uint32_t> words;
  for (int i = 0; i < 12; ++i) words.push_back(addiu(8, 8, 1));
  words.push_back(jr_ra());
  const isa::Program p = raw_program(words);
  auto artifact = compile(p);

  Core interp, fast;
  interp.set_tier(Tier::Interpret);
  interp.load_program(p, artifact);
  fast.load_program(p, artifact);
  for (std::uint64_t chunk : {3u, 1u, 5u, 2u, 1u, 1u, 10u}) {
    interp.run(chunk);
    fast.run(chunk);
    ASSERT_EQ(interp.pc(), fast.pc()) << "chunk " << chunk;
    ASSERT_EQ(interp.cycles(), fast.cycles()) << "chunk " << chunk;
    ASSERT_EQ(interp.reg(8), fast.reg(8)) << "chunk " << chunk;
  }
  EXPECT_FALSE(interp.runnable());
  EXPECT_FALSE(fast.runnable());
  EXPECT_EQ(fast.reg(8), 12u);
}

}  // namespace
}  // namespace sdmmon::np
