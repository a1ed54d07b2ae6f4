#include "np/compiled_program.hpp"

#include <chrono>
#include <optional>

#include "monitor/analysis.hpp"
#include "np/op_table.hpp"

namespace sdmmon::np {

namespace {

// An op's handler on its own (docs/EXECUTION.md, "Handler selection").
TraceHandler own_handler(const isa::Instr& in, bool predicted_taken) {
  switch (in.op) {
#define SDMMON_RD(name, value) \
  case isa::Op::name:          \
    return in.rd == 0 ? TraceHandler::Nop : TraceHandler::name;
#define SDMMON_RT(name, value) \
  case isa::Op::name:          \
    return in.rt == 0 ? TraceHandler::Nop : TraceHandler::name;
#define SDMMON_BRANCH(name, cond)                        \
  case isa::Op::name:                                    \
    return in.imm == 0       ? TraceHandler::Nop         \
           : predicted_taken ? TraceHandler::name##Taken \
                             : TraceHandler::name;
    SDMMON_OPS_ALU_RD(SDMMON_RD)
    SDMMON_OPS_ALU_RT(SDMMON_RT)
    SDMMON_OPS_BRANCH(SDMMON_BRANCH)
#undef SDMMON_RD
#undef SDMMON_RT
#undef SDMMON_BRANCH
    default:
      return static_cast<TraceHandler>(in.op);
  }
}

// Fuse adjacent pairs of one superblock, left to right. The second op of
// a pair keeps its own handler: a suffix anchor may enter there.
void fuse_pairs(CompiledProgram::TraceOp* ops, std::size_t len) {
#define SDMMON_SECOND_LOAD(op) TraceHandler::op
#define SDMMON_SECOND_STORE(op) TraceHandler::op
#define SDMMON_SECOND_TAKEN(op) TraceHandler::op##Taken
#define SDMMON_PAIR(name, first, dest, shape, second)             \
  if (x.handler == TraceHandler::first &&                         \
      y.handler == SDMMON_SECOND_##shape(second) &&               \
      y.instr.rs == x.instr.dest) {                               \
    x.handler = TraceHandler::name;                               \
    ++i;                                                          \
    continue;                                                     \
  }
  for (std::size_t i = 0; i + 1 < len; ++i) {
    CompiledProgram::TraceOp& x = ops[i];
    const CompiledProgram::TraceOp& y = ops[i + 1];
    SDMMON_TRACE_PAIRS(SDMMON_PAIR)
  }
#undef SDMMON_PAIR
#undef SDMMON_SECOND_LOAD
#undef SDMMON_SECOND_STORE
#undef SDMMON_SECOND_TAKEN
}

// Whether ops[0..5] are one whole iteration of the byte-copy loop
//   addu rA, rS, rI; lbu rB, o1(rA); addu rC, rD, rI; sb rB, o2(rC);
//   addiu rI, rI, 1; bne rI, rN, <ops[0]>
// whose iterations a CopyRun handler may retire as one ascending byte
// copy from rS + rI + o1 to rD + rI + o2 (docs/EXECUTION.md, "Copy
// runs"). That holds only when the written registers rA, rB, rC, rI are
// not $zero, rB and rI are none of the others (rA == rC is allowed), and
// the read-only ones rS, rD, rN are none of the written ones. Fusion has
// made ops[0] an AdduLbu pair, which a run that stops short runs next.
bool copy_iteration(const CompiledProgram::TraceOp* ops) {
  const isa::Instr& src = ops[0].instr;
  const isa::Instr& load = ops[1].instr;
  const isa::Instr& dst = ops[2].instr;
  const isa::Instr& store = ops[3].instr;
  const isa::Instr& step = ops[4].instr;
  const isa::Instr& loop = ops[5].instr;
  if (ops[0].handler != TraceHandler::AdduLbu || dst.op != isa::Op::Addu ||
      store.op != isa::Op::Sb || step.op != isa::Op::Addiu ||
      loop.op != isa::Op::Bne) {
    return false;
  }
  const int a = src.rd, b = load.rt, c = dst.rd, i = src.rt;
  if (store.rs != c || store.rt != b || dst.rt != i || step.rs != i ||
      step.rt != i || step.imm != 1 || loop.rs != i ||
      ops::branch_target(ops[5].pc, loop) != ops[0].pc) {
    return false;
  }
  const auto written = [&](int r) {
    return r == a || r == b || r == c || r == i;
  };
  return a != 0 && b != 0 && c != 0 && i != 0 && b != a && b != c &&
         b != i && i != a && i != c && !written(src.rs) &&
         !written(dst.rs) && !written(loop.rt);
}

// Mark the copy runs of one superblock, right to left, so each
// iteration's first op learns how many whole iterations follow it.
void mark_copy_runs(CompiledProgram::TraceOp* ops, std::size_t len) {
  constexpr std::size_t kOps = CompiledProgram::kCopyLoopOps;
  if (len < kOps) return;
  for (std::size_t i = len - kOps + 1; i-- > 0;) {
    if (!copy_iteration(ops + i)) continue;
    const bool more = i + kOps < len && ops[i + kOps].handler ==
                                            TraceHandler::CopyRun;
    ops[i].handler = TraceHandler::CopyRun;
    ops[i].iterations =
        static_cast<std::uint8_t>(1 + (more ? ops[i + kOps].iterations : 0));
  }
}

}  // namespace

std::shared_ptr<const CompiledProgram> CompiledProgram::compile(
    const isa::Program& program, const monitor::InstructionHash& hash) {
  const auto start = std::chrono::steady_clock::now();
  auto compiled = std::shared_ptr<CompiledProgram>(new CompiledProgram());
  compiled->text_base_ = program.text_base;
  compiled->text_bytes_ =
      static_cast<std::uint32_t>(program.text.size() * 4);

  const std::size_t n = program.text.size();
  compiled->ops_.resize(n);
  // Decoded once for formation only; undecodable words (nullopt) end a
  // superblock and are left to step(), which traps on them.
  std::vector<std::optional<isa::Instr>> decoded(n);
  for (std::size_t i = 0; i < n; ++i) {
    compiled->ops_[i] = {program.text[i], hash.hash(program.text[i])};
    decoded[i] = isa::try_decode(program.text[i]);
  }

  // Block leaders from the same analysis that shapes the monitoring
  // graph (find_basic_blocks is total: undecodable words end a block).
  const monitor::BasicBlocks blocks = monitor::find_basic_blocks(program);
  compiled->num_blocks_ = blocks.leaders.size();
  std::vector<bool> leader(n, false);
  for (const std::uint32_t l : blocks.leaders) leader[l] = true;

  // Superblock formation. Leaders, and any pc no earlier superblock
  // covers, get their own superblock along the statically predicted path
  // (backward branch = taken, forward = not taken, j/jal followed). The
  // non-leader pcs that follow it contiguously point at its suffixes.
  const auto trace_start = std::chrono::steady_clock::now();
  compiled->trace_len_.assign(n, 0);
  compiled->trace_off_.assign(n, 0);
  const std::uint32_t base = compiled->text_base_;
  const std::uint32_t bytes = compiled->text_bytes_;
  for (std::size_t anchor = 0; anchor < n; ++anchor) {
    if (!leader[anchor] && compiled->trace_len_[anchor] != 0) continue;
    const std::size_t begin = compiled->trace_ops_.size();
    std::uint32_t pc = base + static_cast<std::uint32_t>(anchor) * 4;
    while (compiled->trace_ops_.size() - begin < kTraceCap) {
      const std::size_t i = (pc - base) >> 2;
      if (!decoded[i]) break;  // would trap: step()'s job
      const isa::Instr& in = *decoded[i];
      TraceOp top{in, pc, compiled->ops_[i].word, compiled->ops_[i].mhash, 0};
      std::uint32_t next = pc + 4;
      bool enters = true;
      switch (isa::op_class(in.op)) {
        case isa::OpClass::Alu:
        case isa::OpClass::Load:
        case isa::OpClass::Store:
          break;
        case isa::OpClass::Branch:
          if (in.imm < 0) {
            // Backward branch: predict taken (the loop heuristic).
            top.flags |= kTracePredTaken;
            next = ops::branch_target(pc, in);
          }
          break;
        case isa::OpClass::Jump:
        case isa::OpClass::JumpLink:
          top.flags |= kTraceJump;
          next = ops::jump_target(in);
          break;
        default:
          enters = false;  // jr/jalr/syscall/break never enter one
          break;
      }
      if (!enters) break;
      top.handler = own_handler(in, (top.flags & kTracePredTaken) != 0);
      compiled->trace_ops_.push_back(top);
      compiled->trace_hash_lane_.push_back(top.mhash);
      // The predicted path leaves the text: the superblock ends here.
      if (next - base >= bytes || ((next - base) & 3u) != 0) break;
      pc = next;
    }
    const std::size_t len = compiled->trace_ops_.size() - begin;
    if (len == 0) continue;
    ++compiled->num_traces_;
    fuse_pairs(compiled->trace_ops_.data() + begin, len);
    mark_copy_runs(compiled->trace_ops_.data() + begin, len);
    for (std::size_t j = 0; j < len; ++j) {
      const std::size_t at = anchor + j;
      if (j > 0 && (at >= n || leader[at] ||
                    compiled->trace_ops_[begin + j].pc !=
                        base + static_cast<std::uint32_t>(at) * 4)) {
        break;
      }
      compiled->trace_len_[at] = static_cast<std::uint8_t>(len - j);
      compiled->trace_off_[at] = static_cast<std::uint32_t>(begin + j);
    }
  }
  // The prefix table Core settles a dispatch's retired mix from
  // (trace_mix), classified by the same mix_counter as exec().
  InstrMix running;
  compiled->mix_prefix_.reserve(compiled->trace_ops_.size() + 1);
  compiled->mix_prefix_.emplace_back();
  for (const TraceOp& op : compiled->trace_ops_) {
    ++ops::mix_counter(running, op.instr.op,
                       (op.flags & kTracePredTaken) != 0);
    compiled->mix_prefix_.push_back(
        {static_cast<std::uint8_t>(running.alu),
         static_cast<std::uint8_t>(running.load),
         static_cast<std::uint8_t>(running.store),
         static_cast<std::uint8_t>(running.branch_not_taken),
         static_cast<std::uint8_t>(running.branch_taken),
         static_cast<std::uint8_t>(running.jump),
         static_cast<std::uint8_t>(running.muldiv)});
  }
  const auto end = std::chrono::steady_clock::now();
  compiled->trace_build_ns_ = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(end - trace_start)
          .count());
  compiled->compile_ns_ = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(end - start)
          .count());
  return compiled;
}

}  // namespace sdmmon::np
