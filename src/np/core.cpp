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
  // They are the only regions from kStackBase up, so one zero_from walk
  // of Memory's list of nonzero pages -- never the regions or their page
  // flags -- scrubs all three in O(pages the last packet touched).
  static_assert(kTextBase + kTextSize <= kStackBase &&
                    kDataBase + kDataSize <= kStackBase &&
                    kStackBase + kStackSize <= kPktInBase &&
                    kPktInBase + kPktInSize <= kPktOutBase,
                "text and data must lie below the regions soft reset zeroes");
  mem_.zero_from(kStackBase);
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

InstrMix Core::retired_mix(const CompiledProgram::TraceOp* trace,
                           const TraceExec& run, std::uint64_t from) const {
  constexpr std::uint64_t kOps = CompiledProgram::kCopyLoopOps;
  const std::uint64_t wrapped = kOps * run.wraps;
  const std::uint64_t q = run.wrap_at;
  InstrMix mix;
  if (from < q + wrapped) {
    if (from < q) {
      mix += compiled_->trace_mix(trace + from, q - from, false);
      from = q;
    }
    // The rest of the repeat `from` is in, then the whole ones after it.
    const std::uint64_t skip = (from - q) % kOps;
    mix += compiled_->trace_mix(trace + q + skip, kOps - skip, false);
    mix += compiled_->trace_mix(trace + q, kOps, false) *
           ((q + wrapped - from - (kOps - skip)) / kOps);
    from = q + wrapped;
  }
  const std::uint64_t at = from - wrapped;
  mix += compiled_->trace_mix(trace + at, run.end - at,
                              run.side_exit && run.end > at);
  return mix;
}

void Core::retract_trace(const CompiledProgram::TraceOp* trace,
                         const TraceExec& run, std::uint64_t keep) {
  // The overshoot was settled by exec_trace's epilogue through the same
  // retired_mix; a side-exiting branch is the dispatch's last op, so it
  // is among the retracted ones only when any are.
  const std::uint64_t n = run.retired() - keep;
  mix_ -= retired_mix(trace, run, keep);
  cycles_ -= n;
  packet_cycles_ -= n;
}

}  // namespace sdmmon::np
