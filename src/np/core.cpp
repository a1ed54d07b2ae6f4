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

void Core::load_program(const isa::Program& program) {
  program_ = program;
  program_loaded_ = true;
  compiled_ = nullptr;
  reset();
}

void Core::load_program(const isa::Program& program,
                        std::shared_ptr<const CompiledProgram> compiled) {
  if (compiled != nullptr &&
      (compiled->text_base() != program.text_base ||
       compiled->num_ops() != program.text.size())) {
    throw std::invalid_argument(
        "CompiledProgram does not match the program being loaded");
  }
  program_ = program;
  program_loaded_ = true;
  compiled_ = std::move(compiled);
  reset();
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
    const auto v = ops::load<width>(mem_, addr);                        \
    if (!v) return finish(info, StepEvent::Trapped, Trap::MemFault);    \
    write(in.rt, ops::extend<width, sign>(*v));                         \
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
  // Execute-first batch over the predicted path. All accounting is
  // deferred to the epilogue and covers exactly the retired prefix,
  // bit-identical to that many step() calls: step() counts an op on
  // entry, and a stopped-before op has not entered.
  const CompiledProgram::TraceOp* op = trace;
  const CompiledProgram::TraceOp* const end = trace + n;
  std::uint32_t* const regs = regs_.data();
  std::uint32_t hi = hi_;
  std::uint32_t lo = lo_;
  std::uint64_t alu = 0;
  std::uint64_t muldiv = 0;
  std::uint64_t loads = 0;
  std::uint64_t stores = 0;
  std::uint64_t jumps = 0;
  std::uint64_t btaken = 0;
  std::uint64_t bnot = 0;
  // pc after the most recently retired control-flow op. Body ops retire
  // to op->pc + 4, so the epilogue consults this only when the *last*
  // retired op redirected control flow.
  std::uint32_t ctrl_next = 0;
  bool dirtied = false;
  bool side_exit = false;

  for (; op != end; ++op) {
    const isa::Instr& in = op->instr;
    const std::uint32_t a = regs[in.rs];
    const std::uint32_t b = regs[in.rt];
    bool taken = false;
    // Results come from np/op_table.hpp; this switch only stops the
    // batch where step() must take over.
    switch (in.op) {
#define SDMMON_RD(name, value)      \
  case Op::name:                    \
    if (in.rd) regs[in.rd] = value; \
    ++alu;                          \
    continue;
#define SDMMON_RT(name, value)      \
  case Op::name:                    \
    if (in.rt) regs[in.rt] = value; \
    ++alu;                          \
    continue;
#define SDMMON_OVF(name, dest, value, overflow) \
  case Op::name: {                              \
    const std::uint32_t r = value;              \
    if (overflow) goto done;                    \
    if (in.dest) regs[in.dest] = r;             \
    ++alu;                                      \
    continue;                                   \
  }
#define SDMMON_MULDIV(name, guard, value)         \
  case Op::name:                                  \
    if (guard) {                                  \
      const std::uint64_t p = value;              \
      hi = static_cast<std::uint32_t>(p >> 32);   \
      lo = static_cast<std::uint32_t>(p);         \
    }                                             \
    ++muldiv;                                     \
    continue;
#define SDMMON_BRANCH(name, cond) \
  case Op::name:                  \
    taken = cond;                 \
    break;
#define SDMMON_LOAD(name, width, sign)                             \
  case Op::name: {                                                 \
    const std::uint32_t addr = a + ops::simm(in);                  \
    if (addr >= kMmioBase) goto done;                              \
    const auto v = ops::load<width>(mem_, addr);                   \
    if (!v) goto done;                                             \
    if (in.rt) regs[in.rt] = ops::extend<width, sign>(*v);         \
    ++loads;                                                       \
    continue;                                                      \
  }
#define SDMMON_STORE(name, width)                                  \
  case Op::name: {                                                 \
    const std::uint32_t addr = a + ops::simm(in);                  \
    if (addr >= kMmioBase) goto done;                              \
    if (ops::store<width>(mem_, addr, b) != MemFault::None) {      \
      goto done;                                                   \
    }                                                              \
    ++stores;                                                      \
    if (addr - text_base_ < text_bytes_) {                         \
      ++op; /* the dirtying store itself retires */                \
      dirtied = true;                                              \
      goto done;                                                   \
    }                                                              \
    continue;                                                      \
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
      case Op::J:
        ctrl_next = ops::jump_target(in);
        ++jumps;
        continue;
      case Op::Jal:
        regs[31] = op->pc + 4;
        ctrl_next = ops::jump_target(in);
        ++jumps;
        continue;
      default:
        goto done;  // jr/jalr/syscall/break never enter a superblock
    }
    // Conditional branch: it always retires. exec() counts it taken iff
    // it left the fall-through path (a taken branch-to-next counts
    // not-taken), and one whose next pc differs from the predicted pc
    // retires and then side-exits. Comparing pcs rather than conditions
    // keeps a taken branch-to-next on its predicted path, which is what
    // retract_trace assumes of every branch but a side-exiting one.
    {
      const std::uint32_t fall = op->pc + 4;
      const std::uint32_t actual =
          taken ? ops::branch_target(op->pc, in) : fall;
      const bool left_fall = actual != fall;
      const bool predicted_taken =
          (op->flags & CompiledProgram::kTracePredTaken) != 0;
      if (left_fall) {
        ++btaken;
      } else {
        ++bnot;
      }
      ctrl_next = actual;
      if (left_fall != predicted_taken) {
        ++op;
        side_exit = true;
        goto done;
      }
    }
  }
done:

  const std::uint64_t retired = static_cast<std::uint64_t>(op - trace);
  hi_ = hi;
  lo_ = lo;
  mix_.alu += alu;
  mix_.muldiv += muldiv;
  mix_.load += loads;
  mix_.store += stores;
  mix_.jump += jumps;
  mix_.branch_taken += btaken;
  mix_.branch_not_taken += bnot;
  cycles_ += retired;
  packet_cycles_ += retired;
  if (retired > 0) {
    const CompiledProgram::TraceOp& last = trace[retired - 1];
    switch (isa::op_class(last.instr.op)) {
      case isa::OpClass::Branch:
      case isa::OpClass::Jump:
      case isa::OpClass::JumpLink:
        pc_ = ctrl_next;
        break;
      default:
        // Body ops fall through; a stopped-before op always sits at
        // last.pc + 4 (superblock pcs are contiguous between control ops).
        pc_ = last.pc + 4;
        break;
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
  // Every overshoot branch retired along its predicted path (taken iff
  // its static flag says taken -- a predicted-taken branch is backward,
  // so it always left the fall-through path, and a predicted-not-taken
  // branch that followed prediction never did), EXCEPT a side-exiting
  // branch, which is always the final retired op and resolved the other
  // way.
  for (std::uint64_t i = 0; i < n; ++i) {
    bool taken = (trace[i].flags & CompiledProgram::kTracePredTaken) != 0;
    if (i + 1 == n && last_mispredicted) taken = !taken;
    --ops::mix_counter(mix_, trace[i].instr.op, taken);
  }
  cycles_ -= n;
  packet_cycles_ -= n;
}

}  // namespace sdmmon::np
