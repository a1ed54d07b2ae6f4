// Install-time compilation of a program's text segment into the flat,
// immutable artifact the core's compiled tier executes. The wire format
// ships raw 32-bit instruction words (what gets signed and what the
// monitor hashes); re-decoding the same word and re-evaluating the
// Merkle hash tree on every execution of every instruction is pure
// redundancy -- both are functions of (word, hash parameter) fixed at
// install time. CompiledProgram lowers the text once into
//   * one PreOp per text word (raw word plus its precomputed w-bit
//     monitor hash under the installed InstructionHash), which feeds the
//     monitor on the per-op path and the install spot-check, and
//   * superblocks ("traces") of decoded ops anchored at text pcs, which
//     the compiled tier retires whole, feeding the monitor one
//     precomputed hash slice per dispatch and settling its retired
//     instruction mix from one prefix-table difference (trace_mix).
//
// Like monitor::CompiledGraph, a CompiledProgram is immutable after
// compile() and is shared as std::shared_ptr<const CompiledProgram> by
// every core of an MPSoC, by the LastGoodConfig recovery snapshot, and by
// the device application store: installing, fast-switching, and
// quarantine re-imaging swap a pointer, never re-compile.
//
// Unified memory has no execute protection, so programs can overwrite
// their own text (and code-injection attacks do). The artifact is a pure
// cache of the *installed image*: the core watches stores into the text
// range, marks the artifact stale, and falls back to the word-at-a-time
// interpreter until the next full reset() re-images the text. Undecodable
// words never enter a superblock, so the per-op step() reaches them and
// raises Trap::DecodeFault exactly as the interpreter would.
//
// Superblock formation (docs/EXECUTION.md): from each basic-block leader
// the compile pass walks the statically predicted path -- fall-through
// body ops (ALU, loads, stores), unconditional jumps (j/jal), and
// conditional branches predicted backward = taken, forward = not taken
// -- across block boundaries until it reaches an indirect jump, a trap
// op, an undecodable word, a predicted target outside the text, or the
// 255-op cap. Each TraceOp carries its own pc (superblock pcs are not
// contiguous; loops unroll) and a predicted-taken flag that doubles as
// the side-exit record. Every other pc inside a block points at the
// suffix of its leader's superblock -- a suffix of a predicted path is
// itself a predicted path, so mid-block entry (after an MMIO access, a
// jr into a block interior) needs no extra storage. The core's executor
// (Core::exec_trace) stops before would-trap and MMIO ops, after
// text-dirtying stores, and after a branch whose next pc is not its
// predicted pc (a side exit); MonitoredCore retracts only the
// monitor-unchecked overshoot, so the tier stays bit-identical to the
// interpreter oracle (tests/core_compiled_diff_test).
#ifndef SDMMON_NP_COMPILED_PROGRAM_HPP
#define SDMMON_NP_COMPILED_PROGRAM_HPP

#include <cstdint>
#include <memory>

#include "isa/isa.hpp"
#include "isa/program.hpp"
#include "monitor/hash.hpp"
#include "np/cycle_model.hpp"

namespace sdmmon::np {

// Superblock handlers (docs/EXECUTION.md, "Handler selection"). compile()
// gives every TraceOp the id of the Core::exec_trace handler that retires
// it, chosen from facts fixed at install time. Ids below isa::kNumOps are
// the ops' own handlers, in isa::Op order; the two lists below add the
// rest but one, CopyRun, which comes last. Both TraceHandler and
// exec_trace's label table are expanded from these three lists, so their
// orders cannot drift apart.
//
// Variants of one op: X(handler)
//   Nop            a non-trapping ALU op whose destination is $zero, or a
//                  branch to the next word (it cannot leave the
//                  fall-through path);
//   <branch>Taken  a branch predicted taken. A branch's own handler is
//                  the predicted-not-taken one.
#define SDMMON_TRACE_VARIANTS(X) \
  X(Nop)                         \
  X(BeqTaken)                    \
  X(BneTaken)                    \
  X(BlezTaken)                   \
  X(BgtzTaken)

// Fused pairs, one handler retiring two adjacent ops of one superblock:
// X(handler, first op, its destination field, second half's shape,
// second op). The first op has its own handler (so it is a non-trapping
// ALU op that writes a register other than $zero) and its result is the
// second op's rs; the second op has its own handler (LOAD, STORE) or the
// predicted-taken one (TAKEN). The second half takes the result as it
// is, without reloading it from the register file.
#define SDMMON_TRACE_PAIRS(X)              \
  X(AdduLbu, Addu, rd, LOAD, Lbu)          \
  X(AdduSb, Addu, rd, STORE, Sb)           \
  X(AddiuBneTaken, Addiu, rt, TAKEN, Bne)

enum class TraceHandler : std::uint8_t {
#define SDMMON_HANDLER_ID(name, ...) name,
  SDMMON_ISA_OPS(SDMMON_HANDLER_ID)
  SDMMON_TRACE_VARIANTS(SDMMON_HANDLER_ID)
  SDMMON_TRACE_PAIRS(SDMMON_HANDLER_ID)
#undef SDMMON_HANDLER_ID
  // The first op of each whole iteration of a byte-copy loop in a
  // superblock (docs/EXECUTION.md, "Copy runs"):
  //   addu rA, rS, rI; lbu rB, o1(rA); addu rC, rD, rI; sb rB, o2(rC);
  //   addiu rI, rI, 1; bne rI, rN, <the addu>
  // One handler retires every iteration the loop runs, with one
  // Memory::copy_bytes; those past the superblock's last whole
  // iteration repeat it (wrapped iterations, Core::TraceExec).
  // TraceOp::iterations holds the whole iterations left in the
  // superblock.
  CopyRun,
};
static_assert(static_cast<int>(TraceHandler::Nop) == isa::kNumOps,
              "an op's own handler id is its isa::Op value");

constexpr int kNumTraceHandlers = 0
#define SDMMON_HANDLER_COUNT(...) +1
    SDMMON_ISA_OPS(SDMMON_HANDLER_COUNT)
    SDMMON_TRACE_VARIANTS(SDMMON_HANDLER_COUNT)
    SDMMON_TRACE_PAIRS(SDMMON_HANDLER_COUNT)
#undef SDMMON_HANDLER_COUNT
    + 1;  // CopyRun

class CompiledProgram {
 public:
  /// One text word, indexed by (pc - text_base) / 4.
  struct PreOp {
    std::uint32_t word = 0;  // raw encoding (what the monitor hashes)
    std::uint8_t mhash = 0;  // precomputed monitor hash of `word`
  };

  /// One op of a superblock. Unlike PreOp, superblock ops are not indexed
  /// by pc -- their pcs jump across blocks and may repeat (loop
  /// unrolling) -- so each op carries its own pc.
  struct TraceOp {
    isa::Instr instr;        // always decoded (formation skips others)
    std::uint32_t pc = 0;    // address this op was fetched from
    std::uint32_t word = 0;  // raw encoding
    std::uint8_t mhash = 0;  // precomputed monitor hash of `word`
    std::uint8_t flags = 0;
    TraceHandler handler = TraceHandler::Nop;  // what retires it
    // CopyRun only: the whole copy-loop iterations from this op to the
    // superblock's end, this one included (1..kTraceCap / 6).
    std::uint8_t iterations = 0;
  };
  static_assert(sizeof(TraceOp) == 28,
                "the handler id and iteration count ride in padding");

  /// Ops in one iteration of the copy loop a CopyRun op starts.
  static constexpr std::uint32_t kCopyLoopOps = 6;

  /// TraceOp::flags bits. A branch's pc after it retires follows from
  /// kTracePredTaken and whether it side-exited; every other op but a
  /// jump falls through (a non-branch never has kTracePredTaken set).
  static constexpr std::uint8_t kTraceJump = 0x02;       // j/jal
  static constexpr std::uint8_t kTracePredTaken = 0x04;  // branch predicted taken

  /// Superblock length cap; also guarantees formation terminates on
  /// unrolled loops.
  static constexpr std::uint32_t kTraceCap = 255;

  /// The superblock anchored at one pc: `len` ops with a parallel
  /// contiguous hash lane (hashes[i] == ops[i].mhash). len == 0 when none
  /// is anchored there.
  struct TraceRef {
    const TraceOp* ops = nullptr;
    const std::uint8_t* hashes = nullptr;
    std::uint32_t len = 0;
  };

  /// Precompute every text word's monitor hash under `hash` (the
  /// parameterized unit installed with the program), decode the text
  /// once, and form the superblocks. Block leaders come from
  /// monitor::analysis::find_basic_blocks, so superblock formation and
  /// the monitoring graph agree on block extents. Never throws on
  /// strange text -- the artifact is total over the installed image.
  static std::shared_ptr<const CompiledProgram> compile(
      const isa::Program& program, const monitor::InstructionHash& hash);

  std::uint32_t text_base() const { return text_base_; }
  /// Bytes of predecoded text ([text_base, text_base + text_bytes)).
  std::uint32_t text_bytes() const { return text_bytes_; }
  std::size_t num_ops() const { return ops_.size(); }
  /// Basic blocks in the predecoded text (np.engine gauge).
  std::size_t num_blocks() const { return num_blocks_; }

  /// Raw word/hash array, indexed like the text.
  const PreOp* ops_data() const { return ops_.data(); }

  /// The superblock anchored at `pc` (len == 0 when none: pc outside the
  /// text, misaligned, or at an op no superblock can start with -- an
  /// indirect jump, syscall/break, or undecodable word).
  TraceRef trace_at(std::uint32_t pc) const {
    const std::uint32_t off = pc - text_base_;
    if (off >= text_bytes_ || (off & 3u) != 0) return {};
    const std::uint32_t len = trace_len_[off >> 2];
    if (len == 0) return {};
    const std::uint32_t at = trace_off_[off >> 2];
    return {trace_ops_.data() + at, trace_hash_lane_.data() + at, len};
  }

  /// Retired-instruction mix of the `n` superblock ops starting at
  /// `first` (a pointer into trace_ops_data(), n <= kTraceCap), each
  /// branch counted in its predicted direction -- except, when
  /// `side_exit`, op n - 1: a branch that resolved the other way. O(1):
  /// the difference of two entries of the install-time prefix table.
  InstrMix trace_mix(const TraceOp* first, std::uint64_t n,
                     bool side_exit) const {
    const std::size_t at = static_cast<std::size_t>(first - trace_ops_.data());
    const MixPrefix& from = mix_prefix_[at];
    const MixPrefix& to = mix_prefix_[at + n];
    // Byte-wide differences are exact: n <= kTraceCap = 255.
    InstrMix mix;
    mix.alu = static_cast<std::uint8_t>(to.alu - from.alu);
    mix.load = static_cast<std::uint8_t>(to.load - from.load);
    mix.store = static_cast<std::uint8_t>(to.store - from.store);
    mix.branch_not_taken =
        static_cast<std::uint8_t>(to.branch_not_taken - from.branch_not_taken);
    mix.branch_taken =
        static_cast<std::uint8_t>(to.branch_taken - from.branch_taken);
    mix.jump = static_cast<std::uint8_t>(to.jump - from.jump);
    mix.muldiv = static_cast<std::uint8_t>(to.muldiv - from.muldiv);
    if (side_exit) {
      const bool predicted_taken =
          (first[n - 1].flags & kTracePredTaken) != 0;
      --(predicted_taken ? mix.branch_taken : mix.branch_not_taken);
      ++(predicted_taken ? mix.branch_not_taken : mix.branch_taken);
    }
    return mix;
  }

  /// Flat array holding every formed superblock concatenated (suffix
  /// anchors point into it, they add no ops).
  const TraceOp* trace_ops_data() const { return trace_ops_.data(); }
  /// The hash lane parallel to trace_ops_data() (TraceRef::hashes points
  /// into it).
  const std::uint8_t* trace_hash_lane_data() const {
    return trace_hash_lane_.data();
  }

  /// Formed superblocks / their total ops (the np.engine.trace_count /
  /// np.engine.trace_ops install gauges). Suffix anchors are not counted.
  std::size_t num_traces() const { return num_traces_; }
  std::size_t num_trace_ops() const { return trace_ops_.size(); }

  /// Wall-clock cost of compile() (the np.core.predecode_ns install
  /// histogram) and of the superblock formation inside it (the
  /// np.core.trace_build_ns install histogram).
  std::uint64_t compile_ns() const { return compile_ns_; }
  std::uint64_t trace_build_ns() const { return trace_build_ns_; }

  /// Precomputed monitor hash of the instruction at `pc`. Returns false
  /// when `pc` is outside (or misaligned within) the predecoded text --
  /// the caller falls back to hashing the fetched word.
  bool monitor_hash(std::uint32_t pc, std::uint8_t& out) const {
    const std::uint32_t off = pc - text_base_;
    if (off >= text_bytes_ || (off & 3u) != 0) return false;
    out = ops_[off >> 2].mhash;
    return true;
  }

  /// Bytes of flat compiled state (the np.engine.compiled_program_bytes
  /// gauge).
  std::size_t footprint_bytes() const {
    return ops_.size() * sizeof(PreOp) + trace_ops_.size() * sizeof(TraceOp) +
           trace_hash_lane_.size() + trace_len_.size() +
           trace_off_.size() * sizeof(std::uint32_t) +
           mix_prefix_.size() * sizeof(MixPrefix);
  }

 private:
  /// Running retired-mix counts over trace_ops_, mod 2^8, every branch
  /// in its predicted direction: entry i counts ops [0, i). Superblocks
  /// hold no trap ops.
  struct MixPrefix {
    std::uint8_t alu = 0;
    std::uint8_t load = 0;
    std::uint8_t store = 0;
    std::uint8_t branch_not_taken = 0;
    std::uint8_t branch_taken = 0;
    std::uint8_t jump = 0;
    std::uint8_t muldiv = 0;
  };

  CompiledProgram() = default;

  std::uint32_t text_base_ = 0;
  std::uint32_t text_bytes_ = 0;
  std::size_t num_blocks_ = 0;
  std::size_t num_traces_ = 0;
  std::uint64_t compile_ns_ = 0;
  std::uint64_t trace_build_ns_ = 0;
  std::vector<PreOp> ops_;
  std::vector<std::uint8_t> trace_len_;   // superblock length per op (0: none)
  std::vector<std::uint32_t> trace_off_;  // offset into trace_ops_
  std::vector<TraceOp> trace_ops_;        // all superblocks, concatenated
  std::vector<std::uint8_t> trace_hash_lane_;  // mhash per superblock op
  std::vector<MixPrefix> mix_prefix_;  // trace_ops_.size() + 1 entries
};

}  // namespace sdmmon::np

#endif  // SDMMON_NP_COMPILED_PROGRAM_HPP
