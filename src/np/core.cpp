#include "np/core.hpp"

#include "isa/isa.hpp"
#include "np/op_table.hpp"

namespace sdmmon::np {

using isa::Instr;
using isa::Op;

const char* trap_name(Trap trap) {
  switch (trap) {
    case Trap::None: return "none";
    case Trap::FetchFault: return "fetch-fault";
    case Trap::DecodeFault: return "decode-fault";
    case Trap::MemFault: return "mem-fault";
    case Trap::Overflow: return "overflow";
    case Trap::Syscall: return "syscall";
    case Trap::Break: return "break";
    case Trap::Watchdog: return "watchdog";
  }
  return "?";
}

Core::Core() = default;

void Core::load_program(const isa::Program& program,
                        std::shared_ptr<const CompiledProgram> compiled) {
  check_load(program, compiled.get());
  program_ = program;
  program_loaded_ = true;
  compiled_ = std::move(compiled);
  reset();
}

void Core::check_load(const isa::Program& program,
                      const CompiledProgram* compiled) {
  if (compiled != nullptr &&
      (compiled->text_base() != program.text_base ||
       compiled->num_ops() != program.text.size())) {
    throw std::invalid_argument(
        "CompiledProgram does not match the program being loaded");
  }
  // reset() writes exactly these two blocks (an empty one is skipped).
  if (!program.text.empty()) {
    Memory::check_block(program.text_base, program.text.size() * 4,
                        "program text outside the memory map");
  }
  if (!program.data.empty()) {
    Memory::check_block(program.data_base, program.data.size(),
                        "program data outside the memory map");
  }
}

void Core::update_live() {
  text_base_ = compiled_ != nullptr ? compiled_->text_base() : 0;
  text_bytes_ = compiled_ != nullptr ? compiled_->text_bytes() : 0;
  live_ = (compiled_ != nullptr && tier_ == Tier::Compiled && !text_dirty_)
              ? compiled_.get()
              : nullptr;
}

void Core::reset() {
  mem_.clear();
  if (program_loaded_) {
    // Re-image text and data so attack side effects cannot persist.
    util::Bytes text_bytes(program_.text.size() * 4);
    for (std::size_t i = 0; i < program_.text.size(); ++i) {
      util::store_le32(program_.text[i], text_bytes.data() + 4 * i);
    }
    mem_.write_block(program_.text_base, text_bytes);
    if (!program_.data.empty()) {
      mem_.write_block(program_.data_base, program_.data);
    }
  }
  // Text just got re-imaged from the installed program: the predecoded
  // artifact matches memory again. (soft_reset() deliberately does NOT
  // clear the dirty flag -- it never restores text.)
  text_dirty_ = false;
  update_live();
  reset_architectural_state();
}

void Core::soft_reset() {
  // Fresh processing stack and packet buffers; application data persists.
  // zero_region walks Memory's list of nonzero pages, never the regions
  // or their page flags, so this costs O(pages the last packet touched).
  mem_.zero_region(kStackBase);
  mem_.zero_region(kPktInBase);
  mem_.zero_region(kPktOutBase);
  reset_architectural_state();
}

void Core::reset_architectural_state() {
  regs_.fill(0);
  regs_[29] = kStackTop;          // $sp
  regs_[31] = kReturnSentinel;    // $ra -> normal-return sentinel
  pc_ = program_.entry;
  hi_ = lo_ = 0;
  packet_cycles_ = 0;
  pkt_in_len_ = 0;
  output_.clear();
  has_output_ = false;
  out_port_ = 0;
  runnable_ = program_loaded_;
}

void Core::deliver_packet(std::span<const std::uint8_t> packet) {
  const std::size_t n = std::min<std::size_t>(packet.size(), kPktInSize);
  mem_.write_block(kPktInBase, packet.subspan(0, n));
  pkt_in_len_ = static_cast<std::uint32_t>(n);
}

StepInfo Core::finish(StepInfo info, StepEvent event, Trap trap) {
  info.event = event;
  info.trap = trap;
  if (event != StepEvent::Executed) runnable_ = false;
  return info;
}

bool Core::mmio_load(std::uint32_t addr, std::uint32_t& value) const {
  switch (addr) {
    case kRegPktInLen:
      value = pkt_in_len_;
      return true;
    case kRegCycles:
      value = static_cast<std::uint32_t>(cycles_);
      return true;
    default:
      return false;
  }
}

StepInfo Core::mmio_store(StepInfo info, std::uint32_t addr,
                          std::uint32_t value) {
  switch (addr) {
    case kRegPktOutCommit: {
      const std::uint32_t len = std::min(value, kPktOutSize);
      output_ = mem_.read_block(kPktOutBase, len);
      has_output_ = true;
      return finish(info, StepEvent::PacketOut);
    }
    case kRegPktDone:
      return finish(info, StepEvent::PacketDone);
    case kRegHalt:
      return finish(info, StepEvent::Halted);
    case kRegPktOutPort:
      out_port_ = value;  // latched; not a terminal event
      pc_ += 4;           // the store retires normally
      info.event = StepEvent::Executed;
      return info;
    default:
      return finish(info, StepEvent::Trapped, Trap::MemFault);
  }
}

StepInfo Core::step() {
  StepInfo info;
  if (!runnable_) {
    info.event = StepEvent::Trapped;
    info.trap = Trap::FetchFault;
    return info;
  }

  if (packet_cycles_ >= watchdog_budget_) {
    return finish(info, StepEvent::Trapped, Trap::Watchdog);
  }

  info.pc = pc_;
  if (pc_ == kReturnSentinel) {
    // Handler returned normally: packet processed (drop unless committed).
    return finish(info, StepEvent::PacketDone);
  }

  auto word = mem_.load32(pc_);
  if (!word) {
    return finish(info, StepEvent::Trapped, Trap::FetchFault);
  }
  info.word = *word;

  auto decoded = isa::try_decode(*word);
  if (!decoded) {
    return finish(info, StepEvent::Trapped, Trap::DecodeFault);
  }
  return exec(*decoded, info);
}

StepInfo Core::exec(const Instr& in, StepInfo info) {
  ++cycles_;
  ++packet_cycles_;
  // Retired-instruction mix for the cycle-cost model. Branches start as
  // not-taken and are reclassified after execution resolves them.
  ++ops::mix_counter(mix_, in.op, /*taken=*/false);

  std::uint32_t next_pc = pc_ + 4;
  const std::uint32_t a = regs_[in.rs];
  const std::uint32_t b = regs_[in.rt];
  std::uint32_t& hi = hi_;
  std::uint32_t& lo = lo_;
  auto write = [&](std::uint8_t reg, std::uint32_t v) {
    if (reg != 0) regs_[reg] = v;
  };

  // Results come from np/op_table.hpp; this switch only decides where
  // they go and turns would-trap conditions into terminal events.
  switch (in.op) {
#define SDMMON_RD(name, value) \
  case Op::name:               \
    write(in.rd, value);       \
    break;
#define SDMMON_RT(name, value) \
  case Op::name:               \
    write(in.rt, value);       \
    break;
#define SDMMON_OVF(name, dest, value, overflow)                 \
  case Op::name: {                                              \
    const std::uint32_t r = value;                              \
    if (overflow) {                                             \
      return finish(info, StepEvent::Trapped, Trap::Overflow);  \
    }                                                           \
    write(in.dest, r);                                          \
    break;                                                      \
  }
#define SDMMON_MULDIV(name, guard, value)         \
  case Op::name:                                  \
    if (guard) {                                  \
      const std::uint64_t p = value;              \
      hi = static_cast<std::uint32_t>(p >> 32);   \
      lo = static_cast<std::uint32_t>(p);         \
    }                                             \
    break;
#define SDMMON_BRANCH(name, taken)                      \
  case Op::name:                                        \
    if (taken) next_pc = ops::branch_target(pc_, in);   \
    break;
    // MMIO registers answer word and byte reads (a byte read sees the
    // register's low byte); halfword reads go to memory and fault.
#define SDMMON_LOAD(name, width, sign)                                  \
  case Op::name: {                                                      \
    const std::uint32_t addr = a + ops::simm(in);                       \
    std::uint32_t reg = 0;                                              \
    if (width != 16 && mmio_load(addr, reg)) {                          \
      write(in.rt, width == 8 ? reg & 0xFFu : reg);                     \
      break;                                                            \
    }                                                                   \
    if (!ops::load<width>(mem_, addr, reg)) {                           \
      return finish(info, StepEvent::Trapped, Trap::MemFault);          \
    }                                                                   \
    write(in.rt, ops::extend<width, sign>(reg));                        \
    break;                                                              \
  }
    // Sub-word MMIO stores address the containing register.
#define SDMMON_STORE(name, width)                                        \
  case Op::name: {                                                       \
    const std::uint32_t addr = a + ops::simm(in);                        \
    if (addr >= kMmioBase) {                                             \
      return mmio_store(info, width == 32 ? addr : addr & ~3u, b);       \
    }                                                                    \
    if (ops::store<width>(mem_, addr, b) != MemFault::None) {            \
      return finish(info, StepEvent::Trapped, Trap::MemFault);           \
    }                                                                    \
    note_store(addr);                                                    \
    break;                                                               \
  }
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

    case Op::Jr: next_pc = a; break;
    case Op::Jalr:
      write(in.rd, pc_ + 4);
      next_pc = a;
      break;
    case Op::J: next_pc = ops::jump_target(in); break;
    case Op::Jal:
      regs_[31] = pc_ + 4;
      next_pc = ops::jump_target(in);
      break;
    case Op::Syscall:
      return finish(info, StepEvent::Trapped, Trap::Syscall);
    case Op::Break:
      return finish(info, StepEvent::Trapped, Trap::Break);
  }

  if (isa::op_class(in.op) == isa::OpClass::Branch && next_pc != info.pc + 4) {
    --mix_.branch_not_taken;
    ++mix_.branch_taken;
  }

  pc_ = next_pc;
  info.event = StepEvent::Executed;
  return info;
}

// Pinned to a 64-byte boundary: with no change to its code, moving this
// function from a 64-byte to a 32-byte boundary (a code-size change
// elsewhere in the binary) cost perfbench 8-13% of its packet rate
// (docs/BENCHMARKS.md, "Code placement").
__attribute__((aligned(64)))
Core::TraceExec Core::exec_trace(const CompiledProgram::TraceOp* trace,
                                 std::uint64_t n) {
  // Execute-first batch over the predicted path. The handlers only
  // compute results and find where the batch stops; the epilogue settles
  // cycles, the retired mix and pc for exactly the retired prefix,
  // bit-identical to that many step() calls: step() counts an op on
  // entry, and a stopped-before op has not entered.
  const CompiledProgram::TraceOp* op = trace;
  const CompiledProgram::TraceOp* const end = trace + n;
  std::uint32_t* const regs = regs_.data();
  std::uint32_t hi = hi_;
  std::uint32_t lo = lo_;
  const std::uint32_t text_base = text_base_;
  const std::uint32_t text_bytes = text_bytes_;
  bool dirtied = false;
  bool side_exit = false;

  // Direct-threaded dispatch: every handler ends by jumping straight to
  // the next op's handler, so each op kind gets its own indirect branch
  // (and branch-predictor history) instead of sharing one switch. This
  // file is compiled with -fno-crossjumping, or GCC would merge those
  // identical handler tails back into a few shared jumps. The table is
  // expanded from the same op list as isa::Op, so its order is
  // structural. Results come from np/op_table.hpp; a handler only decides
  // where a result goes and where step() must take over.
#define SDMMON_LABEL(name, ...) &&L_##name,
  static void* const kHandler[isa::kNumOps] = {
      SDMMON_ISA_OPS(SDMMON_LABEL)};
#undef SDMMON_LABEL
#define SDMMON_DISPATCH goto* kHandler[static_cast<std::size_t>(op->instr.op)]
#define SDMMON_NEXT           \
  if (++op == end) goto done; \
  SDMMON_DISPATCH
  // Each handler block reads its own operands; a and b are read before
  // the op writes anything.
#define SDMMON_OPERANDS                                 \
  const isa::Instr& in = op->instr;                     \
  [[maybe_unused]] const std::uint32_t a = regs[in.rs]; \
  [[maybe_unused]] const std::uint32_t b = regs[in.rt]

  if (op == end) goto done;
  SDMMON_DISPATCH;

#define SDMMON_RD(name, value)        \
  L_##name: {                         \
    SDMMON_OPERANDS;                  \
    if (in.rd) regs[in.rd] = value;   \
    SDMMON_NEXT;                      \
  }
#define SDMMON_RT(name, value)        \
  L_##name: {                         \
    SDMMON_OPERANDS;                  \
    if (in.rt) regs[in.rt] = value;   \
    SDMMON_NEXT;                      \
  }
#define SDMMON_OVF(name, dest, value, overflow) \
  L_##name: {                                   \
    SDMMON_OPERANDS;                            \
    const std::uint32_t r = value;              \
    if (overflow) goto done;                    \
    if (in.dest) regs[in.dest] = r;             \
    SDMMON_NEXT;                                \
  }
#define SDMMON_MULDIV(name, guard, value)         \
  L_##name: {                                     \
    SDMMON_OPERANDS;                              \
    if (guard) {                                  \
      const std::uint64_t p = value;              \
      hi = static_cast<std::uint32_t>(p >> 32);   \
      lo = static_cast<std::uint32_t>(p);         \
    }                                             \
    SDMMON_NEXT;                                  \
  }
  // Conditional branch: it always retires. exec() counts it taken iff it
  // left the fall-through path (a taken branch-to-next counts not-taken),
  // and one that differs from its predicted direction retires and then
  // side-exits. Comparing pcs rather than conditions keeps a taken
  // branch-to-next on its predicted path, which is what the epilogue and
  // retract_trace assume of every branch but a side-exiting one.
#define SDMMON_BRANCH(name, cond)                                       \
  L_##name: {                                                           \
    SDMMON_OPERANDS;                                                    \
    const bool left_fall =                                              \
        (cond) && ops::branch_target(op->pc, in) != op->pc + 4;         \
    if (left_fall !=                                                    \
        ((op->flags & CompiledProgram::kTracePredTaken) != 0)) {        \
      ++op;                                                             \
      side_exit = true;                                                 \
      goto done;                                                        \
    }                                                                   \
    SDMMON_NEXT;                                                        \
  }
#define SDMMON_LOAD(name, width, sign)                             \
  L_##name: {                                                      \
    SDMMON_OPERANDS;                                               \
    const std::uint32_t addr = a + ops::simm(in);                  \
    std::uint32_t v = 0;                                           \
    if (addr >= kMmioBase || !ops::load<width>(mem_, addr, v)) {   \
      goto done;                                                   \
    }                                                              \
    if (in.rt) regs[in.rt] = ops::extend<width, sign>(v);          \
    SDMMON_NEXT;                                                   \
  }
#define SDMMON_STORE(name, width)                                  \
  L_##name: {                                                      \
    SDMMON_OPERANDS;                                               \
    const std::uint32_t addr = a + ops::simm(in);                  \
    if (addr >= kMmioBase) goto done;                              \
    if (ops::store<width>(mem_, addr, b) != MemFault::None) {      \
      goto done;                                                   \
    }                                                              \
    if (addr - text_base < text_bytes) {                           \
      ++op; /* the dirtying store itself retires */                \
      dirtied = true;                                              \
      goto done;                                                   \
    }                                                              \
    SDMMON_NEXT;                                                   \
  }
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
L_J:
  SDMMON_NEXT;
L_Jal:
  regs[31] = op->pc + 4;
  SDMMON_NEXT;
#undef SDMMON_OPERANDS
#undef SDMMON_NEXT
#undef SDMMON_DISPATCH
  // jr/jalr/syscall/break never enter a superblock.
L_Jr:
L_Jalr:
L_Syscall:
L_Break:
done:

  const std::uint64_t retired = static_cast<std::uint64_t>(op - trace);
  hi_ = hi;
  lo_ = lo;
  cycles_ += retired;
  packet_cycles_ += retired;
  if (retired > 0) {
    mix_ += compiled_->trace_mix(trace, retired, side_exit);
    // pc follows the last retired op: a jump goes to its target, a
    // branch in its predicted direction (the other one if it
    // side-exited), and anything else to the next word -- which is also
    // where a stopped-before op sits.
    const CompiledProgram::TraceOp& last = trace[retired - 1];
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
  return {retired, side_exit};
}

void Core::retract_trace(const CompiledProgram::TraceOp* trace,
                         std::uint64_t n, bool last_mispredicted) {
  // The overshoot was settled by exec_trace's epilogue from the same
  // prefix table; a side-exiting branch is the dispatch's last op, so it
  // is among the retracted ones only when any are.
  mix_ -= compiled_->trace_mix(trace, n, last_mispredicted && n > 0);
  cycles_ -= n;
  packet_cycles_ -= n;
}

}  // namespace sdmmon::np
