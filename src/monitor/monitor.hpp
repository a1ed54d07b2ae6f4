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
// in the same load (kFastEmpty, the per-state exit bit). Only a graph
// whose reachable subsets exceed the compiler's bound leaves kFastMulti
// entries; there the monitor materializes the successor union into a
// flat buffer, deduplicated with an epoch-stamped membership array, and
// walks it on a cold list path. The original vector-filter walker
// survives as ReferenceMonitor (monitor/reference_monitor.hpp), the
// differential-testing oracle.
#ifndef SDMMON_MONITOR_MONITOR_HPP
#define SDMMON_MONITOR_MONITOR_HPP

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
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

    if (state_ != kListForm && hashed < bucket_count_) [[likely]] {
      // Tracked set == members(state_): the transition table resolves
      // match and advance with a single load.
      const std::uint32_t v = fast_next_[(state_ << hash_shift_) | hashed];
      if (v < CompiledGraph::kFastMulti) [[likely]] {
        state_ = v;
        live_count_ = succ_count_[v];
        exit_allowed_ = node_exit_[v] != 0;
        return Verdict::Ok;
      }
      if (v == CompiledGraph::kFastEmpty) return flag_mismatch();
      // A multi-match the compiler's bound left uncompiled.
      advance_matched(graph_->bucket(state_, hashed));
      return Verdict::Ok;
    }
    if (state_ != kListForm) return flag_mismatch();  // report >= 2^w
    return step_list(hashed);
  }

  /// Batch-granular feed: consume `n` precomputed hashes (one
  /// superblock's slice of a compiled hash lane) in order, with
  /// cumulative stats, peak-width tracking, and verdicts bit-identical
  /// to n successive on_hashed() calls. When `stop_on_mismatch` is set
  /// the walk stops at the first Mismatch and returns its index (the
  /// count of Ok hashes before it); otherwise every hash is consumed --
  /// mismatches latch the attack flag exactly like on_hashed -- and n
  /// is returned. The steady state (every step a table transition) runs
  /// as CompiledGraph::batch_step, a graph-resident tight loop over the
  /// flat fast_next table with deferred stat accumulation. Each hash the
  /// fast loop cannot take (mismatch, uncompiled multi-match, list form,
  /// out-of-range report, latched attack) replays through the exact
  /// per-hash reference path -- ONE hash at a time, after which the loop
  /// re-enters batch_step, because a single-match list step returns the
  /// tracked set to a node state.
  std::size_t advance(const std::uint8_t* hashes, std::size_t n,
                      bool stop_on_mismatch) {
    std::size_t i = 0;
    while (i < n) {
      if (!attack_flagged_ && state_ != kListForm) {
        const CompiledGraph::BatchStep step = CompiledGraph::batch_step(
            fast_next_, succ_count_, hash_shift_, bucket_count_, state_,
            live_count_, peak_state_size_, hashes + i, n - i);
        stats_.instructions_checked += step.consumed;
        stats_.state_size_accum += step.width_accum;
        peak_state_size_ = step.peak;
        if (step.consumed != 0) {
          state_ = step.state;
          live_count_ = step.live;
          exit_allowed_ = node_exit_[step.state] != 0;
        }
        i += step.consumed;
        if (i == n) return n;
      }
      if (on_hashed(hashes[i]) == Verdict::Mismatch && stop_on_mismatch) {
        return i;
      }
      ++i;
    }
    return n;
  }

  /// What advance() over a summarised lane did: the count advance()
  /// would return, and whether the walk joined the canonical one.
  struct LaneAdvance {
    std::size_t ok = 0;
    bool joined = false;
  };

  /// advance() for a superblock whose install-time canonical walk is
  /// summarised in `lane` (positioned at the dispatch's first op):
  /// identical verdicts, stats, peak width and exit bit. Steps one table
  /// load per hash until the state equals the canonical state at that
  /// position; from there the canonical walk is the real one, so the
  /// rest of the mismatch-free run is settled in O(1) -- the width-sum
  /// difference, the run's final state, and a peak rescan only when the
  /// run's stored peak exceeds the current one. From the first hash the
  /// table cannot step (a mismatch, kFastMulti, a report out of range)
  /// the rest of the slice goes through advance(), as does every slice
  /// after a latched attack or in the list form.
  LaneAdvance advance(const CanonicalLane& lane, const std::uint8_t* hashes,
                      std::size_t n, bool stop_on_mismatch) {
    LaneAdvance out;
    if (attack_flagged_ || state_ == kListForm) {
      out.ok = advance(hashes, n, stop_on_mismatch);
      return out;
    }
    std::uint32_t state = state_;
    std::size_t live = live_count_;
    std::size_t peak = peak_state_size_;
    std::uint64_t width_accum = 0;
    std::size_t i = 0;
    while (i < n) {
      const std::uint8_t hashed = hashes[i];
      if (hashed >= bucket_count_) break;
      const std::uint32_t v = fast_next_[(state << hash_shift_) | hashed];
      if (v >= CompiledGraph::kFastMulti) break;
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
    out.ok = i == n ? n : i + advance(hashes + i, n - i, stop_on_mismatch);
    return out;
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

  /// The counters a packet run leaves behind: cumulative stats and the
  /// current packet's peak width. Speculative executors snapshot them
  /// before a packet and restore them when the packet is rolled back, so
  /// a replayed packet is counted once.
  struct Tally {
    MonitorStats stats;
    std::size_t peak_state_size = 0;
  };
  Tally tally() const { return {stats_, peak_state_size_}; }
  void restore_tally(const Tally& tally) {
    stats_ = tally.stats;
    peak_state_size_ = tally.peak_state_size;
  }
  /// Wire-format view of the installed graph (retained by the artifact).
  const MonitoringGraph& graph() const { return graph_->source(); }
  /// The shared compiled artifact (pointer identity across cores is the
  /// install-sharing invariant tests assert).
  const std::shared_ptr<const CompiledGraph>& compiled() const {
    return graph_;
  }
  const InstructionHash& hash() const { return *hash_; }

 private:
  /// Sentinel for "the tracked set is materialized in cur_, not a state
  /// of the compiled transition table".
  static constexpr std::uint32_t kListForm = 0xFFFFFFFFu;

  /// Size per-graph state (state buffers, epoch stamps) after an
  /// artifact swap, then re-arm.
  void rebind();
  /// Re-arm to the entry state without touching cumulative stats.
  void rearm();
  /// Latch the attack flag (cold path, shared by both representations).
  Verdict flag_mismatch();
  /// Several tracked nodes matched at once and the compiler left the
  /// transition uncompiled: materialize their deduped successor union
  /// into cur_ (list form).
  void advance_matched(std::span<const std::uint32_t> matched);
  /// Match+advance over the materialized list representation.
  Verdict step_list(std::uint8_t hashed);

  std::shared_ptr<const CompiledGraph> graph_;
  std::unique_ptr<InstructionHash> hash_;

  // Tracked-state set, in one of two forms:
  //  * state form (state_ != kListForm): the set is
  //    graph_->members(state_), a row of the immutable artifact --
  //    nothing is copied. Armed at rearm() (the entry state) and kept by
  //    every table transition, so on a fully determinised graph the
  //    monitor never leaves it.
  //  * list form (state_ == kListForm): cur_[0..live_count_) holds the
  //    node indices, duplicate-free. The cold fallback for a multi-match
  //    the compiler's bound left as kFastMulti; a later single-match
  //    step returns to state form.
  // Buffers are pre-sized to the graph's node count at install (the set
  // can never exceed it), so steady-state operation never allocates.
  // The epoch-stamp array dedups successor unions on list-form steps in
  // O(1) per node -- bumping epoch_ invalidates every stamp at once.
  std::uint32_t state_ = kListForm;
  std::size_t live_count_ = 0;  // tracked-set size in either form
  // Raw views of the shared artifact's flat tables, cached at rebind()
  // so the per-instruction step dereferences no smart pointer.
  const std::uint32_t* fast_next_ = nullptr;
  const std::uint32_t* succ_count_ = nullptr;
  const std::uint8_t* node_exit_ = nullptr;
  std::uint32_t bucket_count_ = 0;  // 2^w
  std::uint32_t hash_shift_ = 0;    // w
  std::vector<std::uint32_t> cur_, nxt_;
  std::vector<std::uint64_t> stamps_;  // per-node dedup epoch stamps
  std::uint64_t epoch_ = 0;

  bool exit_allowed_ = true;
  bool attack_flagged_ = false;
  std::size_t peak_state_size_ = 0;
  MonitorStats stats_;
};

}  // namespace sdmmon::monitor

#endif  // SDMMON_MONITOR_MONITOR_HPP
