// Single network-processor core: a PLASMA-like MIPS-subset interpreter
// with packet-I/O MMIO. The core exposes exactly the contract the hardware
// monitor taps in the paper's Figure 1: for every retired instruction it
// reports the (pc, raw 32-bit word) pair.
//
// Convention for packet handlers: the core enters at Program::entry with
// $ra set to kReturnSentinel; returning there counts as "packet done"
// (drop). Handlers can instead commit an output packet by storing the
// output length to kRegPktOutCommit.
#ifndef SDMMON_NP_CORE_HPP
#define SDMMON_NP_CORE_HPP

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>

#include "isa/program.hpp"
#include "np/compiled_program.hpp"
#include "np/cycle_model.hpp"
#include "np/memory.hpp"

namespace sdmmon::np {

/// pc value that signals a normal return from the packet handler.
constexpr std::uint32_t kReturnSentinel = 0xDEAD'BEE0;

enum class Trap : std::uint8_t {
  None,
  FetchFault,    // pc outside memory or unaligned
  DecodeFault,   // unknown instruction encoding
  MemFault,      // data access outside memory / unaligned
  Overflow,      // signed overflow on add/addi/sub
  Syscall,       // syscall executed (unused by our apps; acts as a guard)
  Break,         // break executed
  Watchdog,      // per-packet cycle budget exhausted
};

const char* trap_name(Trap trap);

/// What a single step did.
enum class StepEvent : std::uint8_t {
  Executed,    // normal instruction retired
  PacketOut,   // instruction retired and committed an output packet
  PacketDone,  // handler finished without output (drop) or returned
  Halted,      // core halted via kRegHalt
  Trapped,     // instruction trapped; core needs reset
};

/// Execution tier of a Core (see Core::set_tier).
enum class Tier : std::uint8_t {
  Interpret,  // word-at-a-time oracle: fetch, decode, execute
  Compiled,   // predecoded superblocks from the attached artifact
};

struct StepInfo {
  std::uint32_t pc = 0;     // address of the executed instruction
  std::uint32_t word = 0;   // raw instruction word (what the monitor hashes)
  StepEvent event = StepEvent::Executed;
  Trap trap = Trap::None;
};

class Core {
 public:
  Core();

  /// Load program text+data into memory and prime entry state, together
  /// with its install-time compiled artifact (nullptr: none; the
  /// word-at-a-time interpreter runs). Under the Compiled tier run()
  /// dispatches superblocks out of the shared immutable artifact while
  /// the in-memory text still matches the installed image. Runs
  /// check_load() first, so a program that cannot be loaded throws with
  /// the core untouched.
  void load_program(const isa::Program& program,
                    std::shared_ptr<const CompiledProgram> compiled = nullptr);

  /// Throws std::invalid_argument if `compiled` (may be null) was not
  /// compiled from `program` (base/size mismatch), and std::out_of_range
  /// unless its text and data each lie inside one memory region. Needs
  /// no core: the install check runs it before any core is touched.
  static void check_load(const isa::Program& program,
                         const CompiledProgram* compiled);

  /// The loaded program (text, data, entry).
  const isa::Program& program() const { return program_; }

  /// Full reset: architectural state AND memory re-imaged from the loaded
  /// program (text, data, zeroed stack/buffers). Used at install time and
  /// as the paper's attack recovery -- nothing an attacker wrote survives.
  void reset();

  /// Per-packet reset: registers/pc/stack/packet buffers are reset but the
  /// application's data RAM persists (flow tables, counters). This is the
  /// normal between-packets path of a real NP core.
  void soft_reset();

  /// Place a packet in the receive buffer (truncated to the buffer size).
  void deliver_packet(std::span<const std::uint8_t> packet);

  /// Execute one instruction, fetched from memory and decoded on either
  /// tier. After a terminal event (PacketDone/PacketOut/Halted/Trapped)
  /// the core refuses to step until reset().
  StepInfo step();

  /// Run until a terminal event or `max_steps`; returns the last StepInfo.
  StepInfo run(std::uint64_t max_steps = 1'000'000) {
    NullObserver none;
    return run_observed(max_steps, none);
  }

  bool runnable() const { return runnable_; }
  std::uint32_t pc() const { return pc_; }
  std::uint32_t reg(int index) const {
    return regs_[static_cast<std::size_t>(index)];
  }
  void set_reg(int index, std::uint32_t value) {
    if (index != 0) regs_[static_cast<std::size_t>(index)] = value;
  }
  std::uint64_t cycles() const { return cycles_; }
  /// Cumulative retired-instruction mix (survives reset(); feeds the
  /// cycle-cost model for modeled throughput).
  const InstrMix& instr_mix() const { return mix_; }
  std::uint64_t watchdog_budget() const { return watchdog_budget_; }
  void set_watchdog_budget(std::uint64_t cycles) { watchdog_budget_ = cycles; }

  bool has_output() const { return has_output_; }
  const util::Bytes& output() const { return output_; }
  /// Egress port selected via kRegPktOutPort (0 if never written).
  std::uint32_t output_port() const { return out_port_; }

  Memory& memory() { return mem_; }
  const Memory& memory() const { return mem_; }

  /// The shared compiled artifact (nullptr when none is attached).
  /// Pointer identity across cores is the install-sharing invariant
  /// tests assert.
  const std::shared_ptr<const CompiledProgram>& compiled_program() const {
    return compiled_;
  }

  /// Execution tier (docs/EXECUTION.md). Interpret is the word-at-a-time
  /// oracle: fetch from memory, decode, execute, one op per step. Compiled
  /// runs predecoded superblocks out of the attached artifact and falls
  /// back to per-op stepping wherever no superblock applies. Sticky across
  /// load_program/reset -- it is a property of the core, not the program.
  void set_tier(Tier tier) {
    tier_ = tier;
    update_live();
  }
  Tier tier() const { return tier_; }

  /// True while run() actually dispatches superblocks out of the
  /// artifact: one is attached, the tier is Compiled, and no store has
  /// dirtied the text image since the last full reset()/load_program().
  bool compiled_live() const { return live_ != nullptr; }

  /// Precomputed monitor hash of the op at `pc` while the compiled tier is
  /// live (false otherwise, or when `pc` lies outside the artifact).
  bool precomputed_hash(std::uint32_t pc, std::uint8_t& out) const {
    return live_ != nullptr && live_->monitor_hash(pc, out);
  }

  /// What one superblock dispatch retired. A copy run may retire more
  /// iterations of its loop than the superblock unrolls (docs/EXECUTION.md,
  /// "Copy runs"): the extra ones are *wrapped*, repeats of the loop's last
  /// whole iteration in the superblock, the kCopyLoopOps ops at `wrap_at`.
  /// The retired sequence is then
  ///   ops[0, wrap_at) . ops[wrap_at, wrap_at + 6)^wraps . ops[wrap_at, end)
  /// and, with no wraps, just ops[0, end). `side_exit` is set when the
  /// last retired op was a conditional branch whose next pc differs from
  /// its predicted pc -- the branch itself retires (pc follows the
  /// *actual* target), only the not-yet-executed tail is abandoned.
  struct TraceExec {
    std::uint32_t wraps = 0;
    std::uint8_t end = 0;  // superblock ops reached
    std::uint8_t wrap_at = 0;
    bool side_exit = false;

    /// Ops retired: the length of the sequence above.
    std::uint64_t retired() const {
      return end + std::uint64_t{CompiledProgram::kCopyLoopOps} * wraps;
    }
    /// The superblock position of retired op `e` of the sequence.
    std::uint32_t position(std::uint64_t e) const {
      constexpr std::uint64_t kOps = CompiledProgram::kCopyLoopOps;
      if (e < wrap_at) return static_cast<std::uint32_t>(e);
      const std::uint64_t wrapped = kOps * wraps;
      if (e < wrap_at + wrapped) {
        return static_cast<std::uint32_t>(wrap_at + (e - wrap_at) % kOps);
      }
      return static_cast<std::uint32_t>(e - wrapped);
    }
  };
  static_assert(CompiledProgram::kTraceCap <= 0xFF,
                "superblock positions fit TraceExec's bytes");

  /// The dispatch loop shared by run() and MonitoredCore: run until a
  /// terminal event, `max_steps` retired ops, or the observer stops it.
  /// Retired ops reach `observer` through exactly one call per dispatch:
  ///   * on_batch(hashes, run) after a superblock dispatch retired
  ///     run.retired() ops (hashes[p] is the precomputed monitor hash of
  ///     the superblock op at position p; run.position maps the retired
  ///     sequence onto positions). It returns how many leading ops of the
  ///     sequence it accepted; when that is fewer than run.retired(), the
  ///     op at that index is the last one the reference interleaving
  ///     executes, the loop retracts the ops after it (retract_trace) and
  ///     stops.
  ///   * on_step(info) after each step(); false stops the loop.
  /// Returns the last StepInfo (for a batch: its last retired op).
  template <typename Observer>
  StepInfo run_observed(std::uint64_t max_steps, Observer& observer);

  /// True once a store landed in the predecoded text range (self-modifying
  /// code or injection). Cleared only by the re-imaging reset paths --
  /// soft_reset() keeps it, because soft reset does not restore text.
  bool text_dirty() const { return text_dirty_; }

 private:
  /// Observer that ignores retired ops (plain run()).
  struct NullObserver {
    std::uint64_t on_batch(const std::uint8_t*, const TraceExec& run) {
      return run.retired();
    }
    bool on_step(const StepInfo&) { return true; }
  };

  /// Retire ops of the `n`-op superblock `trace` (anchored at the
  /// current pc) in one dispatch, at most `budget` of them: the watchdog
  /// slack or max_steps left, whichever is smaller. Wrapped copy-loop
  /// iterations count against the budget like any op, so a watchdog or
  /// max_steps stop lands on the op the interpreter's would. Requires
  /// the compiled tier live and budget > 0. Stops *before* an op that
  /// would trap (overflow, MemFault) or whose load/store reaches MMIO --
  /// step() re-derives that op's event -- and *after* a store that
  /// dirties the predecoded text or a branch that side-exits. Cycles,
  /// mix, and pc advance exactly as retired() step() calls would; all
  /// three are settled once, after the last op, from the retired
  /// sequence, the prefix table and the last op.
  TraceExec exec_trace(const CompiledProgram::TraceOp* trace,
                       std::uint64_t n, std::uint64_t budget);

  /// Un-retire the ops after the first `keep` of the just-executed
  /// dispatch `run` over `trace`: the monitor-unchecked overshoot past a
  /// flagged hash, undone right before the recovery reset() so the
  /// cumulative cycle and mix counters match a reference core that
  /// stopped at the flagged op. O(1) at any wrap count: the same
  /// retired_mix the dispatch settled its mix from. Registers and memory
  /// need no compensation -- reset() re-images them.
  void retract_trace(const CompiledProgram::TraceOp* trace,
                     const TraceExec& run, std::uint64_t keep);

  /// Retired mix of ops [from, run.retired()) of the dispatch `run` over
  /// `trace`, every branch in its predicted direction but a side-exiting
  /// last op: differences of CompiledProgram::trace_mix, so O(1) however
  /// many iterations wrapped.
  InstrMix retired_mix(const CompiledProgram::TraceOp* trace,
                       const TraceExec& run, std::uint64_t from) const;

  void reset_architectural_state();
  /// Recompute live_ from (artifact, tier, dirty); called whenever any of
  /// the three inputs changes.
  void update_live();
  StepInfo exec(const isa::Instr& in, StepInfo info);
  StepInfo finish(StepInfo info, StepEvent event, Trap trap = Trap::None);
  StepInfo mmio_store(StepInfo info, std::uint32_t addr, std::uint32_t value);
  bool mmio_load(std::uint32_t addr, std::uint32_t& value) const;
  /// Store landed at `addr`: dirty the artifact if it hit predecoded text.
  void note_store(std::uint32_t addr) {
    if (addr - text_base_ < text_bytes_) {
      text_dirty_ = true;
      update_live();
    }
  }

  Memory mem_;
  isa::Program program_;
  bool program_loaded_ = false;
  // Shared immutable artifact. live_ is its raw view while the compiled
  // tier is live (nullptr otherwise); text_base_/text_bytes_ describe the
  // predecoded range whenever an artifact is attached, so store-dirty
  // tracking stays armed under the Interpret tier too.
  std::shared_ptr<const CompiledProgram> compiled_;
  const CompiledProgram* live_ = nullptr;
  std::uint32_t text_base_ = 0;
  std::uint32_t text_bytes_ = 0;
  Tier tier_ = Tier::Compiled;
  bool text_dirty_ = false;
  std::array<std::uint32_t, 32> regs_{};
  std::uint32_t pc_ = 0;
  std::uint32_t hi_ = 0;
  std::uint32_t lo_ = 0;
  std::uint64_t cycles_ = 0;
  InstrMix mix_;
  std::uint64_t packet_cycles_ = 0;
  std::uint64_t watchdog_budget_ = 1'000'000;
  bool runnable_ = false;
  std::uint32_t pkt_in_len_ = 0;
  util::Bytes output_;
  bool has_output_ = false;
  std::uint32_t out_port_ = 0;
};

template <typename Observer>
StepInfo Core::run_observed(std::uint64_t max_steps, Observer& observer) {
  StepInfo last;
  std::uint64_t steps = 0;
  while (steps < max_steps) {
    // Superblock dispatch: when one is anchored at pc, retire it whole.
    // A side exit is normal form (the branch retired, pc follows the
    // actual target), so dispatch simply restarts there.
    if (live_ != nullptr && runnable_ && packet_cycles_ < watchdog_budget_) {
      const CompiledProgram::TraceRef ref = live_->trace_at(pc_);
      if (ref.len > 0) {
        const std::uint64_t budget =
            std::min(watchdog_budget_ - packet_cycles_, max_steps - steps);
        const TraceExec tr = exec_trace(ref.ops, ref.len, budget);
        const std::uint64_t retired = tr.retired();
        steps += retired;
        const std::uint64_t ok = observer.on_batch(ref.hashes, tr);
        if (ok < retired) {
          retract_trace(ref.ops, tr, ok + 1);
          const CompiledProgram::TraceOp& op = ref.ops[tr.position(ok)];
          return {op.pc, op.word, StepEvent::Executed, Trap::None};
        }
        if (retired > 0) {
          const CompiledProgram::TraceOp& op =
              ref.ops[tr.position(retired - 1)];
          last = {op.pc, op.word, StepEvent::Executed, Trap::None};
        }
        if (tr.end == ref.len || retired == budget || tr.side_exit) continue;
        // Stopped short: the op at pc traps, touches MMIO, or follows a
        // text-dirtying store. step() below resolves it -- re-dispatching
        // would spin on a zero-progress batch.
      }
    }
    // Per-op dispatch resolves every edge case: not runnable, watchdog,
    // sentinel return, pcs without a superblock, dirty text.
    last = step();
    ++steps;
    if (!observer.on_step(last)) return last;
    if (last.event != StepEvent::Executed) return last;
  }
  return last;
}

}  // namespace sdmmon::np

#endif  // SDMMON_NP_CORE_HPP
