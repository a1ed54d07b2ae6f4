// Install-time compilation of a program's text segment into the flat,
// immutable artifact the core's compiled tier executes. The wire format
// ships raw 32-bit instruction words (what gets signed and what the
// monitor hashes); re-decoding the same word and re-evaluating the
// Merkle hash tree on every execution of every instruction is pure
// redundancy -- both are functions of (word, hash parameter) fixed at
// install time. CompiledProgram lowers the text once into
//   * one predecoded PreOp per text word (decoded isa::Instr, raw word,
//     precomputed w-bit monitor hash under the installed InstructionHash)
//     for the per-op path, and
//   * superblocks ("traces") anchored at text pcs, which the compiled
//     tier retires whole, feeding the monitor one precomputed hash slice
//     per dispatch.
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
// words predecode to a trapping op (kDecoded clear), never undefined
// behavior -- executing one raises Trap::DecodeFault exactly as the
// interpreter would.
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
#include <string>

#include "isa/isa.hpp"
#include "isa/program.hpp"
#include "monitor/hash.hpp"

namespace sdmmon::np {

class CompiledProgram {
 public:
  /// One predecoded text word, indexed by (pc - text_base) / 4.
  struct PreOp {
    isa::Instr instr;        // valid iff flags & kDecoded
    std::uint32_t word = 0;  // raw encoding (what the monitor hashes)
    std::uint8_t mhash = 0;  // precomputed monitor hash of `word`
    std::uint8_t flags = 0;
  };

  /// PreOp::flags bits.
  static constexpr std::uint8_t kDecoded = 0x01;  // instr is valid

  /// One op of a superblock. Unlike PreOp, superblock ops are not indexed
  /// by pc -- their pcs jump across blocks and may repeat (loop
  /// unrolling) -- so each op carries its own pc.
  struct TraceOp {
    isa::Instr instr;        // always decoded (formation skips others)
    std::uint32_t pc = 0;    // address this op was fetched from
    std::uint32_t word = 0;  // raw encoding
    std::uint8_t mhash = 0;  // precomputed monitor hash of `word`
    std::uint8_t flags = 0;
  };

  /// TraceOp::flags bits.
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

  /// Decode every text word once, precompute its monitor hash under
  /// `hash` (the parameterized unit installed with the program), and form
  /// the superblocks. Block leaders come from
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

  /// Width/name of the hash the mhash table was computed under. The
  /// parameter itself is secret (it never leaves the InstructionHash),
  /// so install paths verify consistency by spot-checking mhash values
  /// against the installed unit instead of comparing names.
  int hash_width() const { return hash_width_; }
  const std::string& hash_name() const { return hash_name_; }

  /// Raw op array for the core's per-op path.
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

  /// Flat array holding every formed superblock concatenated (suffix
  /// anchors point into it, they add no ops).
  const TraceOp* trace_ops_data() const { return trace_ops_.data(); }

  /// Formed superblocks / their total ops (the np.engine.trace_count /
  /// np.engine.trace_ops install gauges). Suffix anchors are not counted.
  std::size_t num_traces() const { return num_traces_; }
  std::size_t num_trace_ops() const { return trace_ops_.size(); }

  /// Wall-clock cost of superblock formation inside compile() (the
  /// np.core.trace_build_ns install histogram).
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
  /// gauge). Excludes the retained source program, which is cold.
  std::size_t footprint_bytes() const {
    return ops_.size() * sizeof(PreOp) + trace_ops_.size() * sizeof(TraceOp) +
           trace_hash_lane_.size() + trace_len_.size() +
           trace_off_.size() * sizeof(std::uint32_t);
  }

  /// The program this artifact was compiled from (what gets signed,
  /// re-imaged at reset, and re-verified by install staging).
  const isa::Program& source() const { return source_; }

 private:
  CompiledProgram() = default;

  isa::Program source_;
  std::uint32_t text_base_ = 0;
  std::uint32_t text_bytes_ = 0;
  std::size_t num_blocks_ = 0;
  std::size_t num_traces_ = 0;
  std::uint64_t trace_build_ns_ = 0;
  int hash_width_ = 0;
  std::string hash_name_;
  std::vector<PreOp> ops_;
  std::vector<std::uint8_t> trace_len_;   // superblock length per op (0: none)
  std::vector<std::uint32_t> trace_off_;  // offset into trace_ops_
  std::vector<TraceOp> trace_ops_;        // all superblocks, concatenated
  std::vector<std::uint8_t> trace_hash_lane_;  // mhash per superblock op
};

}  // namespace sdmmon::np

#endif  // SDMMON_NP_COMPILED_PROGRAM_HPP
