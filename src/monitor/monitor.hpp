// Runtime hardware monitor (paper Figure 1, right). Co-located with a
// core, it receives the w-bit hash of every retired instruction and walks
// the monitoring graph. Because branches admit two successors and indirect
// jumps several, the monitor tracks a *set* of possible positions (an NFA
// over graph nodes). An instruction whose hash matches no tracked node is
// an attack: the monitor raises a flag and the system resets the core and
// drops the packet.
//
// This is the compiled hot path: the monitor walks an immutable
// CompiledGraph artifact (monitor/compiled_graph.hpp) shared across all
// cores of an MPSoC. The artifact determinises the NFA at install time:
// every tracked set the monitor can reach is a *state* of one flat
// transition table -- a node state when the last step matched one node,
// the entry state at packet start, a subset state when it matched
// several -- so each report costs one shift-or index and one load, with
// nothing filtered, copied or allocated. Mismatch and exit detection are
// in the same load (kFastEmpty, the per-state exit bit). A graph the
// compiler cannot close within its bound is rejected at install, so the
// state is the monitor's only representation of its tracked set. The
// original vector-filter walker survives as ReferenceMonitor
// (monitor/reference_monitor.hpp), the unbounded differential-testing
// oracle.
#ifndef SDMMON_MONITOR_MONITOR_HPP
#define SDMMON_MONITOR_MONITOR_HPP

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "monitor/compiled_graph.hpp"
#include "monitor/graph.hpp"
#include "monitor/hash.hpp"

namespace sdmmon::monitor {

/// One lane position's view of an install-time summary of the monitor's
/// canonical walk along a superblock's hash lane (np::MonitorSummary).
/// Entry [i] describes the lane position i steps past the dispatch's
/// first op:
///   state[i]     the canonical state after the step at i (kFastEmpty
///                where the walk has none),
///   width_sum[i] a running sum, mod 2^32, of the canonical pre-step
///                tracked-set sizes; its difference between two positions
///                of one run is that run's state_size_accum delta,
///   run[i]       positions from i to the end of the mismatch-free run
///                holding i (>= 1),
///   peak[i]      the largest canonical tracked-set size entered at any
///                step after i within the run, saturated at kPeakSaturated.
struct CanonicalLane {
  static constexpr std::uint8_t kPeakSaturated = 0xFF;
  const std::uint32_t* state = nullptr;
  const std::uint32_t* width_sum = nullptr;
  const std::uint8_t* run = nullptr;
  const std::uint8_t* peak = nullptr;
};

enum class Verdict : std::uint8_t {
  Ok,        // hash matched a tracked graph node
  Mismatch,  // attack detected: no tracked node expects this hash
};

/// Cumulative statistics for evaluation.
struct MonitorStats {
  std::uint64_t instructions_checked = 0;
  std::uint64_t mismatches = 0;
  /// Packets the monitor was armed for via reset(). Install-time
  /// re-arming is deliberately NOT counted: an install is not a packet.
  std::uint64_t packets_monitored = 0;
  /// Sum of tracked-state-set sizes, for average ambiguity reporting.
  std::uint64_t state_size_accum = 0;

  double average_ambiguity() const {
    return instructions_checked == 0
               ? 0.0
               : static_cast<double>(state_size_accum) /
                     static_cast<double>(instructions_checked);
  }
};

class HardwareMonitor {
 public:
  /// Preferred: walk an already-compiled shared artifact (install paths
  /// compile once per MPSoC and hand every core the same pointer).
  HardwareMonitor(std::shared_ptr<const CompiledGraph> graph,
                  std::unique_ptr<InstructionHash> hash);

  /// Convenience: compile a wire-format graph privately (tests, tools,
  /// single-monitor setups).
  HardwareMonitor(MonitoringGraph graph, std::unique_ptr<InstructionHash> hash);

  /// Arm for a new packet: state set = {entry node}. Counts one
  /// monitored packet; install-time re-arming does not (see reset()
  /// vs install() in MonitorStats).
  void reset();

  /// Install a new (graph, hash) pair -- the dynamic reprogramming step
  /// SDMMon secures. Re-arms monitoring state without counting a packet;
  /// cumulative stats persist across installs.
  void install(std::shared_ptr<const CompiledGraph> graph,
               std::unique_ptr<InstructionHash> hash);
  void install(MonitoringGraph graph, std::unique_ptr<InstructionHash> hash);

  /// Feed the raw word of a retired instruction. The monitor applies its
  /// own hash function (the core reports through the parameterizable hash
  /// unit in hardware; here the unit is owned by the monitor object).
  Verdict on_instruction(std::uint32_t word);

  /// Feed an already-hashed value (used by attack simulations that probe
  /// the monitor without knowing the parameter). Inline: this runs once
  /// per retired instruction and is the hottest loop in the system.
  Verdict on_hashed(std::uint8_t hashed) {
    ++stats_.instructions_checked;
    stats_.state_size_accum += live_count_;
    if (live_count_ > peak_state_size_) peak_state_size_ = live_count_;

    if (attack_flagged_) [[unlikely]] return Verdict::Mismatch;

    if (hashed >= bucket_count_) [[unlikely]] return flag_mismatch();
    // Tracked set == members(state_): the transition table resolves
    // match and advance with a single load.
    const std::uint32_t v = fast_next_[(state_ << hash_shift_) | hashed];
    if (v == CompiledGraph::kFastEmpty) [[unlikely]] return flag_mismatch();
    state_ = v;
    live_count_ = succ_count_[v];
    exit_allowed_ = node_exit_[v] != 0;
    return Verdict::Ok;
  }

  /// What advance() over a summarised lane did: how many leading hashes
  /// matched, and whether the walk joined the canonical one.
  struct LaneAdvance {
    std::size_t ok = 0;
    bool joined = false;
  };

  /// Feed `n` precomputed hashes -- one superblock's slice of a compiled
  /// hash lane, whose install-time canonical walk is summarised in `lane`
  /// (positioned at the dispatch's first op) -- and stop at the first
  /// Mismatch. Verdicts, stats, peak width and exit bit are those of
  /// on_hashed() over the same hashes up to and including that one.
  /// Steps one table load per hash until the state equals the canonical
  /// state at that position; from there the canonical walk is the real
  /// one, so the rest of the mismatch-free run is settled in O(1) -- the
  /// width-sum difference, the run's final state, and a peak rescan only
  /// when the run's stored peak exceeds the current one. The first hash
  /// the table cannot step (a mismatch, a report out of range, or any
  /// hash once an attack is latched) goes through on_hashed(), which
  /// flags it; its index is the returned count.
  LaneAdvance advance(const CanonicalLane& lane, const std::uint8_t* hashes,
                      std::size_t n) {
    LaneAdvance out;
    std::uint32_t state = state_;
    std::size_t live = live_count_;
    std::size_t peak = peak_state_size_;
    std::uint64_t width_accum = 0;
    std::size_t i = 0;
    const std::size_t walk = attack_flagged_ ? 0 : n;
    while (i < walk) {
      const std::uint8_t hashed = hashes[i];
      if (hashed >= bucket_count_) break;
      const std::uint32_t v = fast_next_[(state << hash_shift_) | hashed];
      if (v == CompiledGraph::kFastEmpty) break;
      width_accum += live;
      if (live > peak) peak = live;
      state = v;
      live = succ_count_[v];
      const std::size_t at = i++;
      if (v != lane.state[at]) continue;
      // Joined at `at`: steps at + 1 .. end - 1 are the canonical ones.
      out.joined = true;
      const std::size_t end = std::min<std::size_t>(at + lane.run[at], n);
      if (end - 1 == at) continue;
      width_accum += static_cast<std::uint32_t>(lane.width_sum[end - 1] -
                                                lane.width_sum[at]);
      const std::size_t run_peak =
          lane.peak[at] == CanonicalLane::kPeakSaturated ? SIZE_MAX
                                                         : lane.peak[at];
      // Nothing in the run exceeds an unsaturated run peak, so the rescan
      // runs only below it and stops once it is reached.
      for (std::size_t j = at; j + 1 < end && peak < run_peak; ++j) {
        peak = std::max<std::size_t>(peak, succ_count_[lane.state[j]]);
      }
      state = lane.state[end - 1];
      live = succ_count_[state];
      i = end;
    }
    stats_.instructions_checked += i;
    stats_.state_size_accum += width_accum;
    peak_state_size_ = peak;
    if (i != 0) {
      state_ = state;
      live_count_ = live;
      exit_allowed_ = node_exit_[state] != 0;
    }
    // The table cannot step hashes[i]: on_hashed() flags it.
    if (i < n) (void)on_hashed(hashes[i]);
    out.ok = i;
    return out;
  }

  /// Feed the `len` hashes at `period` `times` over -- the wrapped
  /// iterations of a copy run (docs/EXECUTION.md, "Copy runs") -- and
  /// stop at the first Mismatch. Returns how many hashes matched; as in
  /// advance(), verdicts, stats, peak width and exit bit are those of
  /// on_hashed() over the same hashes up to and including a flagged one.
  /// Steps one period at a time until a period ends in the state it
  /// began in. From there every period repeats it step for step, so the
  /// rest is settled in O(1): `len` checks and that period's width sum
  /// per repeat, and no new peak. A walk that never returns to its start
  /// is stepped hash by hash.
  std::uint64_t repeat(const std::uint8_t* period, std::size_t len,
                       std::uint64_t times) {
    for (std::uint64_t t = 0; t < times; ++t) {
      const std::uint32_t start = state_;
      const std::uint64_t start_accum = stats_.state_size_accum;
      for (std::size_t j = 0; j < len; ++j) {
        if (on_hashed(period[j]) == Verdict::Mismatch) return t * len + j;
      }
      if (state_ == start) {
        const std::uint64_t rest = times - t - 1;
        stats_.instructions_checked += rest * len;
        stats_.state_size_accum +=
            rest * (stats_.state_size_accum - start_accum);
        break;
      }
    }
    return times * len;
  }

  /// Re-arm in an arbitrary `state` of the compiled table (tracked set
  /// members(state)) without touching cumulative stats, so differential
  /// tests can start a walk anywhere a packet could be.
  void seek(std::uint32_t state);

  /// True if the handler may legitimately finish now (the last matched
  /// instruction was exit-capable, or nothing executed yet).
  bool exit_allowed() const { return exit_allowed_; }

  /// True once a mismatch has been flagged; cleared by reset().
  bool attack_flagged() const { return attack_flagged_; }

  std::size_t state_size() const { return live_count_; }
  /// Largest tracked-state-set size observed since the last reset() --
  /// the per-packet peak NFA width (comparator pressure); feeds the
  /// observability layer's np.core.ndfa_width histogram.
  std::size_t peak_state_size() const { return peak_state_size_; }
  /// Tracked node indices, ascending (materialized sorted copy; for
  /// differential state compares, not the hot path).
  std::vector<std::uint32_t> state_nodes() const;
  const MonitorStats& stats() const { return stats_; }

  /// Wire-format view of the installed graph (retained by the artifact).
  const MonitoringGraph& graph() const { return graph_->source(); }
  /// The shared compiled artifact (pointer identity across cores is the
  /// install-sharing invariant tests assert).
  const std::shared_ptr<const CompiledGraph>& compiled() const {
    return graph_;
  }
  const InstructionHash& hash() const { return *hash_; }

 private:
  /// Cache the artifact's table views after a swap, then re-arm.
  void rebind();
  /// Re-arm to the entry state without touching cumulative stats.
  void rearm();
  /// Latch the attack flag (cold path).
  Verdict flag_mismatch();

  std::shared_ptr<const CompiledGraph> graph_;
  std::unique_ptr<InstructionHash> hash_;

  // The tracked set is graph_->members(state_), a row of the immutable
  // artifact -- nothing is copied. Armed at rearm() (the entry state)
  // and kept by every table transition.
  std::uint32_t state_ = 0;
  std::size_t live_count_ = 0;  // tracked-set size, succ_count(state_)
  // Raw views of the shared artifact's flat tables, cached at rebind()
  // so the per-instruction step dereferences no smart pointer.
  const std::uint32_t* fast_next_ = nullptr;
  const std::uint32_t* succ_count_ = nullptr;
  const std::uint8_t* node_exit_ = nullptr;
  std::uint32_t bucket_count_ = 0;  // 2^w
  std::uint32_t hash_shift_ = 0;    // w

  bool exit_allowed_ = true;
  bool attack_flagged_ = false;
  std::size_t peak_state_size_ = 0;
  MonitorStats stats_;
};

}  // namespace sdmmon::monitor

#endif  // SDMMON_MONITOR_MONITOR_HPP
