#include "np/core.hpp"

#include <gtest/gtest.h>

#include "isa/assembler.hpp"

namespace sdmmon::np {
namespace {

Core make_core(const char* src) {
  Core core;
  core.load_program(isa::assemble(src));
  return core;
}

// Runs until terminal event; fails the test on unexpected trap.
StepInfo run_ok(Core& core) {
  StepInfo last = core.run();
  EXPECT_NE(last.event, StepEvent::Executed) << "did not terminate";
  return last;
}

TEST(Core, ArithmeticAndReturn) {
  Core core = make_core(R"(
main:
    li $t0, 20
    li $t1, 22
    addu $v0, $t0, $t1
    jr $ra
  )");
  StepInfo last = run_ok(core);
  EXPECT_EQ(last.event, StepEvent::PacketDone);
  EXPECT_EQ(core.reg(2), 42u);
}

TEST(Core, RegisterZeroIsImmutable) {
  Core core = make_core(R"(
main:
    li $t0, 99
    addu $zero, $t0, $t0
    jr $ra
  )");
  run_ok(core);
  EXPECT_EQ(core.reg(0), 0u);
}

TEST(Core, BranchLoopComputesSum) {
  // sum 1..10 = 55
  Core core = make_core(R"(
main:
    li $t0, 0      # sum
    li $t1, 1      # i
    li $t2, 10
loop:
    addu $t0, $t0, $t1
    addiu $t1, $t1, 1
    ble $t1, $t2, loop
    move $v0, $t0
    jr $ra
  )");
  run_ok(core);
  EXPECT_EQ(core.reg(2), 55u);
}

TEST(Core, MemoryLoadStore) {
  Core core = make_core(R"(
main:
    li $t0, 0x10100
    li $t1, 0xCAFE
    sw $t1, 0($t0)
    lw $v0, 0($t0)
    lhu $v1, 0($t0)
    jr $ra
  )");
  run_ok(core);
  EXPECT_EQ(core.reg(2), 0xCAFEu);
  EXPECT_EQ(core.reg(3), 0xCAFEu);
}

TEST(Core, SignExtensionOnByteLoads) {
  Core core = make_core(R"(
main:
    li $t0, 0x10000
    li $t1, 0xFF
    sb $t1, 0($t0)
    lb $v0, 0($t0)     # sign-extended -1
    lbu $v1, 0($t0)    # zero-extended 255
    jr $ra
  )");
  run_ok(core);
  EXPECT_EQ(core.reg(2), 0xFFFFFFFFu);
  EXPECT_EQ(core.reg(3), 0xFFu);
}

TEST(Core, MultDivHiLo) {
  Core core = make_core(R"(
main:
    li $t0, 100000
    li $t1, 100000
    multu $t0, $t1      # 10^10 = 0x2540BE400
    mfhi $v0
    mflo $v1
    li $t2, 17
    li $t3, 5
    divu $t2, $t3
    mflo $a0            # 3
    mfhi $a1            # 2
    jr $ra
  )");
  run_ok(core);
  EXPECT_EQ(core.reg(2), 2u);           // hi
  EXPECT_EQ(core.reg(3), 0x540BE400u);  // lo
  EXPECT_EQ(core.reg(4), 3u);
  EXPECT_EQ(core.reg(5), 2u);
}

// INT_MIN / -1 overflows a host int32 division (undefined in C++, a
// SIGFPE on x86); a guest must not be able to crash the simulator with
// it. Both tiers wrap: lo = INT_MIN, hi = 0.
TEST(Core, SignedDivideOverflowWraps) {
  const isa::Program program = isa::assemble(R"(
main:
    lui $t0, 0x8000     # INT_MIN
    li $t1, -1
    div $t0, $t1
    mflo $v0
    mfhi $v1
    jr $ra
  )");
  for (Tier tier : {Tier::Interpret, Tier::Compiled}) {
    Core core;
    core.set_tier(tier);
    core.load_program(program, CompiledProgram::compile(
                                   program, monitor::MerkleTreeHash(1)));
    run_ok(core);
    EXPECT_EQ(core.reg(2), 0x8000'0000u);
    EXPECT_EQ(core.reg(3), 0u);
  }
}

TEST(Core, FunctionCallAndReturn) {
  Core core = make_core(R"(
main:
    addiu $sp, $sp, -4
    sw $ra, 0($sp)
    li $a0, 7
    jal double
    move $v1, $v0
    lw $ra, 0($sp)
    addiu $sp, $sp, 4
    jr $ra
double:
    addu $v0, $a0, $a0
    jr $ra
  )");
  StepInfo last = run_ok(core);
  EXPECT_EQ(last.event, StepEvent::PacketDone);
  EXPECT_EQ(core.reg(3), 14u);
}

TEST(Core, SignedOverflowTraps) {
  Core core = make_core(R"(
main:
    li $t0, 0x7FFFFFFF
    li $t1, 1
    add $v0, $t0, $t1
    jr $ra
  )");
  StepInfo last = core.run();
  EXPECT_EQ(last.event, StepEvent::Trapped);
  EXPECT_EQ(last.trap, Trap::Overflow);
  EXPECT_FALSE(core.runnable());
}

TEST(Core, AdduDoesNotTrapOnOverflow) {
  Core core = make_core(R"(
main:
    li $t0, 0x7FFFFFFF
    li $t1, 1
    addu $v0, $t0, $t1
    jr $ra
  )");
  StepInfo last = run_ok(core);
  EXPECT_EQ(last.event, StepEvent::PacketDone);
  EXPECT_EQ(core.reg(2), 0x80000000u);
}

TEST(Core, SyscallAndBreakTrap) {
  Core a = make_core("main:\n syscall\n");
  EXPECT_EQ(a.run().trap, Trap::Syscall);
  Core b = make_core("main:\n break\n");
  EXPECT_EQ(b.run().trap, Trap::Break);
}

TEST(Core, BadMemoryAccessTraps) {
  Core core = make_core(R"(
main:
    li $t0, 0x00500000
    lw $v0, 0($t0)
    jr $ra
  )");
  StepInfo last = core.run();
  EXPECT_EQ(last.event, StepEvent::Trapped);
  EXPECT_EQ(last.trap, Trap::MemFault);
}

TEST(Core, JumpOutsideMemoryFetchFaults) {
  Core core = make_core(R"(
main:
    li $t0, 0x00600000
    jr $t0
  )");
  StepInfo last = core.run();
  EXPECT_EQ(last.event, StepEvent::Trapped);
  EXPECT_EQ(last.trap, Trap::FetchFault);
}

TEST(Core, WatchdogFiresOnInfiniteLoop) {
  Core core = make_core("main:\n b main\n");
  core.set_watchdog_budget(1000);
  StepInfo last = core.run(10'000);
  EXPECT_EQ(last.event, StepEvent::Trapped);
  EXPECT_EQ(last.trap, Trap::Watchdog);
}

TEST(Core, PacketInputVisibleThroughMmio) {
  Core core = make_core(R"(
main:
    li $t0, 0xFFFF0000
    lw $v0, 0($t0)       # PKT_IN_LEN
    li $t1, 0x30000
    lbu $v1, 0($t1)      # first payload byte
    jr $ra
  )");
  util::Bytes pkt = {0xAB, 0xCD, 0xEF};
  core.deliver_packet(pkt);
  run_ok(core);
  EXPECT_EQ(core.reg(2), 3u);
  EXPECT_EQ(core.reg(3), 0xABu);
}

TEST(Core, PacketOutputCommit) {
  Core core = make_core(R"(
main:
    li $t0, 0x40000      # PKT_OUT
    li $t1, 0x11
    sb $t1, 0($t0)
    li $t1, 0x22
    sb $t1, 1($t0)
    li $t2, 0xFFFF0004   # PKT_OUT_COMMIT
    li $t3, 2
    sw $t3, 0($t2)
    jr $ra               # never reached
  )");
  StepInfo last = run_ok(core);
  EXPECT_EQ(last.event, StepEvent::PacketOut);
  ASSERT_TRUE(core.has_output());
  EXPECT_EQ(core.output(), (util::Bytes{0x11, 0x22}));
}

TEST(Core, ExplicitDropViaMmio) {
  Core core = make_core(R"(
main:
    li $t2, 0xFFFF0008   # PKT_DONE
    sw $zero, 0($t2)
  )");
  StepInfo last = run_ok(core);
  EXPECT_EQ(last.event, StepEvent::PacketDone);
  EXPECT_FALSE(core.has_output());
}

TEST(Core, HaltViaMmio) {
  Core core = make_core(R"(
main:
    li $t2, 0xFFFF000C
    sw $zero, 0($t2)
  )");
  EXPECT_EQ(run_ok(core).event, StepEvent::Halted);
}

TEST(Core, CycleCounterReadable) {
  Core core = make_core(R"(
main:
    li $t0, 0xFFFF0010
    lw $v0, 0($t0)
    lw $v1, 0($t0)
    jr $ra
  )");
  run_ok(core);
  EXPECT_GT(core.reg(3), core.reg(2));
}

TEST(Core, ResetRestoresEntryStateAndMemory) {
  Core core = make_core(R"(
main:
    li $t0, 0x10000
    li $t1, 77
    sw $t1, 0($t0)
    jr $ra
.data
    .word 5
  )");
  run_ok(core);
  EXPECT_EQ(core.memory().load32(0x10000).value(), 77u);
  core.reset();
  EXPECT_TRUE(core.runnable());
  // Data image restored, not the attacked value.
  EXPECT_EQ(core.memory().load32(0x10000).value(), 5u);
  EXPECT_EQ(core.reg(29), kStackTop);   // $sp
  EXPECT_EQ(core.reg(31), kReturnSentinel);
}

TEST(Core, StepAfterTerminalEventReportsTrap) {
  Core core = make_core("main:\n jr $ra\n");
  run_ok(core);
  StepInfo again = core.step();
  EXPECT_EQ(again.event, StepEvent::Trapped);
}

TEST(Core, ExecutesCodeFromPacketBuffer) {
  // The vulnerability pathway: jump into the rx buffer and execute
  // packet-carried instructions (no execute protection).
  Core core = make_core(R"(
main:
    li $t0, 0x30000
    jr $t0
  )");
  // Packet contains: li $v0, 0x99 ; sw to PKT_DONE (encoded words, LE).
  isa::Program payload = isa::assemble(R"(
    li $v0, 0x99
    li $t2, 0xFFFF0008
    sw $zero, 0($t2)
  )");
  util::Bytes pkt(payload.text.size() * 4);
  for (std::size_t i = 0; i < payload.text.size(); ++i) {
    util::store_le32(payload.text[i], pkt.data() + 4 * i);
  }
  core.deliver_packet(pkt);
  StepInfo last = run_ok(core);
  EXPECT_EQ(last.event, StepEvent::PacketDone);
  EXPECT_EQ(core.reg(2), 0x99u);
}

}  // namespace
}  // namespace sdmmon::np
