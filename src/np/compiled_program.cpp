#include "np/compiled_program.hpp"

#include <chrono>

#include "monitor/analysis.hpp"
#include "np/op_table.hpp"

namespace sdmmon::np {

std::shared_ptr<const CompiledProgram> CompiledProgram::compile(
    const isa::Program& program, const monitor::InstructionHash& hash) {
  auto compiled = std::shared_ptr<CompiledProgram>(new CompiledProgram());
  compiled->source_ = program;
  compiled->text_base_ = program.text_base;
  compiled->text_bytes_ =
      static_cast<std::uint32_t>(program.text.size() * 4);
  compiled->hash_width_ = hash.width();
  compiled->hash_name_ = hash.name();

  const std::size_t n = program.text.size();
  compiled->ops_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    PreOp& op = compiled->ops_[i];
    op.word = program.text[i];
    op.mhash = hash.hash(op.word);
    if (auto decoded = isa::try_decode(op.word)) {
      op.instr = *decoded;
      op.flags = kDecoded;
    }  // else: trapping op, executing it raises DecodeFault
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
      const PreOp& op = compiled->ops_[(pc - base) >> 2];
      if (!(op.flags & kDecoded)) break;  // would trap: step()'s job
      TraceOp top{op.instr, pc, op.word, op.mhash, 0};
      std::uint32_t next = pc + 4;
      bool enters = true;
      switch (isa::op_class(op.instr.op)) {
        case isa::OpClass::Alu:
        case isa::OpClass::Load:
        case isa::OpClass::Store:
          break;
        case isa::OpClass::Branch:
          if (op.instr.imm < 0) {
            // Backward branch: predict taken (the loop heuristic).
            top.flags |= kTracePredTaken;
            next = ops::branch_target(pc, op.instr);
          }
          break;
        case isa::OpClass::Jump:
        case isa::OpClass::JumpLink:
          next = ops::jump_target(op.instr);
          break;
        default:
          enters = false;  // jr/jalr/syscall/break never enter one
          break;
      }
      if (!enters) break;
      compiled->trace_ops_.push_back(top);
      compiled->trace_hash_lane_.push_back(top.mhash);
      // The predicted path leaves the text: the superblock ends here.
      if (next - base >= bytes || ((next - base) & 3u) != 0) break;
      pc = next;
    }
    const std::size_t len = compiled->trace_ops_.size() - begin;
    if (len == 0) continue;
    ++compiled->num_traces_;
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
  compiled->trace_build_ns_ = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - trace_start)
          .count());
  return compiled;
}

}  // namespace sdmmon::np
