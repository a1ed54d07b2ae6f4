// Core::exec_trace, the compiled tier's superblock executor, in a file of
// its own: it is the one function built with -fno-crossjumping
// (src/np/CMakeLists.txt), which would only grow the rest of Core.
#include <algorithm>

#include "isa/isa.hpp"
#include "np/core.hpp"
#include "np/op_table.hpp"

namespace sdmmon::np {

using isa::Op;

// Pinned to a 64-byte boundary: with no change to its code, moving this
// function from a 64-byte to a 32-byte boundary (a code-size change
// elsewhere in the binary) cost perfbench 8-13% of its packet rate
// (docs/BENCHMARKS.md, "Code placement").
__attribute__((aligned(64)))
Core::TraceExec Core::exec_trace(const CompiledProgram::TraceOp* trace,
                                 std::uint64_t n, std::uint64_t budget) {
  // Execute-first batch over the predicted path. The handlers only
  // compute results and find where the batch stops; the epilogue settles
  // cycles, the retired mix and pc for exactly the retired sequence,
  // bit-identical to that many step() calls: step() counts an op on
  // entry, and a stopped-before op has not entered.
  const CompiledProgram::TraceOp* op = trace;
  // Where the batch ends in the superblock: its length or the budget,
  // less the ops a copy run wraps.
  const CompiledProgram::TraceOp* end = trace + std::min(n, budget);
  std::uint32_t wraps = 0;
  std::uint32_t wrap_at = 0;
  std::uint32_t* const regs = regs_.data();
  std::uint32_t hi = hi_;
  std::uint32_t lo = lo_;
  const std::uint32_t text_base = text_base_;
  const std::uint32_t text_bytes = text_bytes_;
  bool dirtied = false;
  bool side_exit = false;

  // Direct-threaded dispatch on the handler compile() chose for each op
  // (docs/EXECUTION.md, "Handler selection"): every handler ends by
  // jumping straight to the next op's handler, so each handler gets its
  // own indirect branch (and branch-predictor history) instead of sharing
  // one switch. This file is compiled with -fno-crossjumping, or GCC
  // would merge those identical handler tails back into a few shared
  // jumps. The table is expanded from the same lists as TraceHandler, so
  // its order is structural. Results come from np/op_table.hpp; a handler
  // only decides where a result goes and where step() must take over.
#define SDMMON_LABEL(name, ...) &&L_##name,
  static void* const kHandler[kNumTraceHandlers] = {
      SDMMON_ISA_OPS(SDMMON_LABEL) SDMMON_TRACE_VARIANTS(SDMMON_LABEL)
          SDMMON_TRACE_PAIRS(SDMMON_LABEL) &&L_CopyRun};
#undef SDMMON_LABEL
#define SDMMON_DISPATCH goto* kHandler[static_cast<std::size_t>(op->handler)]
#define SDMMON_NEXT           \
  if (++op == end) goto done; \
  SDMMON_DISPATCH
  // A handler reads its own operands: `a` is `rs_value` -- SDMMON_RS, the
  // rs register, except in a pair's second half, which gets the first
  // half's result -- and `b` the rt register. Both are read before the op
  // writes anything.
#define SDMMON_OPERANDS(rs_value)                      \
  const isa::Instr& in = op->instr;                    \
  [[maybe_unused]] const std::uint32_t a = (rs_value); \
  [[maybe_unused]] const std::uint32_t b = regs[in.rt]
#define SDMMON_RS regs[in.rs]

  if (op == end) goto done;
  SDMMON_DISPATCH;

  // A non-trapping ALU op writing $zero has the Nop handler instead, so
  // these write without testing the destination.
#define SDMMON_RD(name, value)  \
  L_##name: {                   \
    SDMMON_OPERANDS(SDMMON_RS); \
    regs[in.rd] = value;        \
    SDMMON_NEXT;                \
  }
#define SDMMON_RT(name, value)  \
  L_##name: {                   \
    SDMMON_OPERANDS(SDMMON_RS); \
    regs[in.rt] = value;        \
    SDMMON_NEXT;                \
  }
#define SDMMON_OVF(name, dest, value, overflow) \
  L_##name: {                                   \
    SDMMON_OPERANDS(SDMMON_RS);                 \
    const std::uint32_t r = value;              \
    if (overflow) goto done;                    \
    if (in.dest) regs[in.dest] = r;             \
    SDMMON_NEXT;                                \
  }
#define SDMMON_MULDIV(name, guard, value)         \
  L_##name: {                                     \
    SDMMON_OPERANDS(SDMMON_RS);                   \
    if (guard) {                                  \
      const std::uint64_t p = value;              \
      hi = static_cast<std::uint32_t>(p >> 32);   \
      lo = static_cast<std::uint32_t>(p);         \
    }                                             \
    SDMMON_NEXT;                                  \
  }
  // Conditional branch, split by its predicted direction: it always
  // retires, and one whose condition differs from its prediction then
  // side-exits. A branch to the next word has the Nop handler: taken or
  // not it stays on the fall-through path, which exec() counts not-taken
  // and which is its predicted path, as the epilogue and retract_trace
  // assume of every branch but a side-exiting one.
#define SDMMON_BRANCH_BODY(rs_value, cond, predicted_taken) \
  {                                                         \
    SDMMON_OPERANDS(rs_value);                              \
    if ((cond) != (predicted_taken)) {                      \
      ++op;                                                 \
      side_exit = true;                                     \
      goto done;                                            \
    }                                                       \
    SDMMON_NEXT;                                            \
  }
#define SDMMON_BRANCH(name, cond)                      \
  L_##name: SDMMON_BRANCH_BODY(SDMMON_RS, cond, false) \
  L_##name##Taken: SDMMON_BRANCH_BODY(SDMMON_RS, cond, true)
  // Loads and stores at or above kMmioBase fail in Memory (its pages end
  // below the MMIO window), so they stop here and step() serves them.
#define SDMMON_LOAD_BODY(rs_value, width, sign)              \
  {                                                          \
    SDMMON_OPERANDS(rs_value);                               \
    std::uint32_t v = 0;                                     \
    if (!ops::load<width>(mem_, a + ops::simm(in), v)) {     \
      goto done;                                             \
    }                                                        \
    if (in.rt) regs[in.rt] = ops::extend<width, sign>(v);    \
    SDMMON_NEXT;                                             \
  }
#define SDMMON_LOAD(name, width, sign) \
  L_##name: SDMMON_LOAD_BODY(SDMMON_RS, width, sign)
#define SDMMON_STORE_BODY(rs_value, width)                     \
  {                                                            \
    SDMMON_OPERANDS(rs_value);                                 \
    const std::uint32_t addr = a + ops::simm(in);              \
    if (ops::store<width>(mem_, addr, b) != MemFault::None) {  \
      goto done;                                               \
    }                                                          \
    if (addr - text_base < text_bytes) {                       \
      ++op; /* the dirtying store itself retires */            \
      dirtied = true;                                          \
      goto done;                                               \
    }                                                          \
    SDMMON_NEXT;                                               \
  }
#define SDMMON_STORE(name, width) \
  L_##name: SDMMON_STORE_BODY(SDMMON_RS, width)
  SDMMON_OPS_ALU_RD(SDMMON_RD)
  SDMMON_OPS_ALU_RT(SDMMON_RT)
  SDMMON_OPS_ALU_OVF(SDMMON_OVF)
  SDMMON_OPS_MULDIV(SDMMON_MULDIV)
  SDMMON_OPS_BRANCH(SDMMON_BRANCH)
  SDMMON_OPS_LOAD(SDMMON_LOAD)
  SDMMON_OPS_STORE(SDMMON_STORE)
#undef SDMMON_RD
#undef SDMMON_RT
#undef SDMMON_OVF
#undef SDMMON_MULDIV
#undef SDMMON_BRANCH
#undef SDMMON_LOAD
#undef SDMMON_STORE

  // Fused pair: the first half writes its result and passes it to the
  // second half as that op's rs value. Between the halves the batch may
  // end (a max_steps or watchdog clamp), and the second half keeps every
  // stop rule of its op; a stop leaves op on the second op, so only the
  // first has retired. The halves are the single-op bodies above.
#define SDMMON_HALF_LOAD(second, rs_value)                        \
  SDMMON_LOAD_BODY(rs_value, ops::LoadOf<Op::second>::kWidth,     \
                   ops::LoadOf<Op::second>::kSigned)
#define SDMMON_HALF_STORE(second, rs_value) \
  SDMMON_STORE_BODY(rs_value, ops::StoreOf<Op::second>::kWidth)
#define SDMMON_HALF_TAKEN(second, rs_value) \
  SDMMON_BRANCH_BODY(rs_value, (ops::taken<Op::second>(a, b)), true)
#define SDMMON_PAIR(name, first, dest, shape, second)                     \
  L_##name: {                                                             \
    const isa::Instr& lead = op->instr;                                   \
    const std::uint32_t result =                                          \
        ops::alu<Op::first>(regs[lead.rs], regs[lead.rt], lead, hi, lo);  \
    regs[lead.dest] = result;                                             \
    if (++op == end) goto done;                                           \
    SDMMON_HALF_##shape(second, result)                                   \
  }
  SDMMON_TRACE_PAIRS(SDMMON_PAIR)
#undef SDMMON_PAIR
  // Copy run (docs/EXECUTION.md, "Copy runs"): op is the first of
  //   addu rA, rS, rI; lbu rB, o1(rA); addu rC, rD, rI; sb rB, o2(rC);
  //   addiu rI, rI, 1; bne rI, rN, <op>
  // and op->iterations whole iterations follow, ending in the superblock.
  // It retires the first k iterations of the loop with one byte copy, k
  // no more than the budget holds and fewer than reach the iteration
  // whose bne falls through or whose store enters the text. Iteration j
  // copies byte rS + rI + o1 + j to rD + rI + o2 + j; compile() checked
  // that rS, rD and rN are not written inside the loop, so all k
  // addresses follow from the registers now. Iterations past the
  // superblock's last whole one are wrapped: repeats of that one, where
  // op stops. Registers end as the last iteration leaves them. Every
  // limit on k -- or copy_bytes meeting an unmapped page -- stops the
  // loop in the next iteration, so the AdduLbu pair there runs it op by
  // op, stopping where it does without the run. That iteration ends the
  // batch, so no later run in it wraps again.
  L_CopyRun: {
    constexpr std::uint32_t kOps = CompiledProgram::kCopyLoopOps;
    const isa::Instr& src_sum = op[0].instr;  // addu rA, rS, rI
    const isa::Instr& dst_sum = op[2].instr;  // addu rC, rD, rI
    const std::uint32_t i = regs[src_sum.rt];
    const std::uint32_t src_base = regs[src_sum.rs] + i;
    const std::uint32_t dst_base = regs[dst_sum.rs] + i;
    const std::uint32_t dst = dst_base + ops::simm(op[3].instr);
    // The iteration with rI + 1 == rN falls through its bne.
    std::uint32_t k = regs[op[5].instr.rt] - 1 - i;
    k = static_cast<std::uint32_t>(std::min<std::uint64_t>(
        k, (budget - static_cast<std::uint64_t>(op - trace)) / kOps));
    // The store that enters the text retires and ends the batch.
    k = std::min(k, dst - text_base < text_bytes ? 0u : text_base - dst);
    const Memory::CopyResult copied =
        mem_.copy_bytes(dst, src_base + ops::simm(op[1].instr), k);
    if (copied.done > 0) {
      const std::uint32_t last = copied.done - 1;
      regs[src_sum.rd] = src_base + last;
      regs[op[1].instr.rt] = copied.last;
      regs[dst_sum.rd] = dst_base + last;
      regs[src_sum.rt] = i + copied.done;
      const std::uint32_t in_place =
          std::min<std::uint32_t>(copied.done, op->iterations - 1u);
      op += kOps * in_place;
      wraps = copied.done - in_place;
      if (wraps > 0) {
        wrap_at = static_cast<std::uint32_t>(op - trace);
        end = trace + std::min(n, budget - std::uint64_t{kOps} * wraps);
      }
    }
    if (op == end) goto done;
    goto L_AdduLbu;
  }
#undef SDMMON_HALF_LOAD
#undef SDMMON_HALF_STORE
#undef SDMMON_HALF_TAKEN
#undef SDMMON_LOAD_BODY
#undef SDMMON_STORE_BODY
#undef SDMMON_BRANCH_BODY
L_Nop:
  SDMMON_NEXT;
L_J:
  SDMMON_NEXT;
L_Jal:
  regs[31] = op->pc + 4;
  SDMMON_NEXT;
#undef SDMMON_RS
#undef SDMMON_OPERANDS
#undef SDMMON_NEXT
#undef SDMMON_DISPATCH
  // jr/jalr/syscall/break never enter a superblock.
L_Jr:
L_Jalr:
L_Syscall:
L_Break:
done:

  const TraceExec run{wraps, static_cast<std::uint8_t>(op - trace),
                      static_cast<std::uint8_t>(wrap_at), side_exit};
  const std::uint64_t retired = run.retired();
  hi_ = hi;
  lo_ = lo;
  cycles_ += retired;
  packet_cycles_ += retired;
  if (retired > 0) {
    // retired_mix is out of line: few dispatches wrap.
    mix_ += wraps == 0 ? compiled_->trace_mix(trace, run.end, side_exit)
                       : retired_mix(trace, run, 0);
    // pc follows the last retired op: a jump goes to its target, a
    // branch in its predicted direction (the other one if it
    // side-exited), and anything else to the next word -- which is also
    // where a stopped-before op sits.
    const CompiledProgram::TraceOp& last = trace[run.position(retired - 1)];
    if ((last.flags & CompiledProgram::kTraceJump) != 0) {
      pc_ = ops::jump_target(last.instr);
    } else if (((last.flags & CompiledProgram::kTracePredTaken) != 0) !=
               side_exit) {
      pc_ = ops::branch_target(last.pc, last.instr);
    } else {
      pc_ = last.pc + 4;
    }
  }
  if (dirtied) {
    // Deferred note_store(): drop the live view only after the batch
    // accounting is settled.
    text_dirty_ = true;
    update_live();
  }
  return run;
}

}  // namespace sdmmon::np
