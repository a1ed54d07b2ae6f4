// Install-time compilation of a MonitoringGraph into the flat, immutable
// artifact the hot loop actually walks. The wire-format MonitoringGraph
// (one heap vector of successors per node) is what offline analysis
// emits and what install packages sign; it is the wrong shape for the
// per-retired-instruction match loop. CompiledGraph lowers it once into
// CSR arrays -- packed per-node {hash, can_exit} records and one
// contiguous edge array in which every node's successor slice is
// pre-bucketed by the 2^w hash values -- and then determinises the
// monitor's NFA into one flat transition table.
//
// The monitor tracks a *set* of graph positions, because two successors
// of one node may carry the same w-bit hash. The transition table is
// indexed by *state*, and each state stands for one tracked set:
//
//  * node state u (u < num_nodes()): the tracked set after a step that
//    matched exactly node u, i.e. successors(u);
//  * the entry state (entry_state()): {entry}, the set a packet starts
//    from;
//  * subset states: the tracked set after a step that matched a set M of
//    two or more nodes at once, i.e. the deduplicated union of their
//    successors. They are found by a bounded subset construction over
//    the reachable multi-match steps.
//
// So one monitor step -- match the report against the tracked set and
// advance -- is one load from fast_next_data(). Only a graph whose
// reachable subsets exceed the construction's bound keeps kFastMulti
// entries, which the monitor resolves on its cold list path.
//
// A CompiledGraph is immutable after compile() and is shared as
// std::shared_ptr<const CompiledGraph> by every core of an MPSoC, by the
// LastGoodConfig recovery snapshot, and by the device application store:
// installing, fast-switching, and quarantine re-imaging are pointer
// swaps, never graph copies. (This mirrors how co-processor behavior
// monitors precompute their detection tables out of the enforcement
// path.)
#ifndef SDMMON_MONITOR_COMPILED_GRAPH_HPP
#define SDMMON_MONITOR_COMPILED_GRAPH_HPP

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "monitor/graph.hpp"

namespace sdmmon::monitor {

class CompiledGraph {
 public:
  /// Hash values are at most 8 bits wide, so the per-hash population
  /// table is sized for 256 values regardless of the graph's width;
  /// entries above 2^w simply stay zero.
  static constexpr std::size_t kNumBuckets = 256;

  /// Sentinels in the fast transition table (fast_next_data()). Real
  /// state indices are always below both: compile() rejects graphs whose
  /// state-indexed table would not fit a 32-bit index.
  static constexpr std::uint32_t kFastEmpty = 0xFFFFFFFFu;  // mismatch
  static constexpr std::uint32_t kFastMulti = 0xFFFFFFFEu;  // uncompiled

  /// Lower `graph` into the flat form. Validates structure -- entry index
  /// and every successor in range, node hashes within 2^hash_width, and
  /// a state-indexed table that fits a 32-bit index -- and throws
  /// std::invalid_argument on a malformed graph (this is the rejection
  /// point validate_install_config relies on). The source graph is
  /// retained for wire-format accessors and re-verification.
  static std::shared_ptr<const CompiledGraph> compile(MonitoringGraph graph);

  std::size_t num_nodes() const { return node_hash_.size(); }
  std::size_t num_edges() const { return edges_.size(); }
  int hash_width() const { return source_.hash_width(); }
  std::uint32_t entry_index() const { return source_.entry_index(); }
  /// 2^w: the width of every per-node bucket group and per-state row.
  std::uint32_t num_hash_buckets() const { return hash_buckets_; }

  std::uint8_t node_hash(std::uint32_t node) const {
    return node_hash_[node];
  }
  bool node_can_exit(std::uint32_t node) const {
    return node_exit_[node] != 0;
  }

  /// Duplicate-free successor slice of `node` (deduplication happens at
  /// compile time), grouped by successor hash value, ascending within
  /// each group. num_edges() counts the deduped edges.
  std::span<const std::uint32_t> successors(std::uint32_t node) const {
    const std::size_t base = static_cast<std::size_t>(node) * hash_buckets_;
    return {edges_.data() + bucket_off_[base],
            edges_.data() + bucket_off_[base + hash_buckets_]};
  }
  std::uint32_t successor_count(std::uint32_t node) const {
    return succ_count_[node];
  }

  /// Rows of the transition tables: num_nodes() node states, then the
  /// entry state, then num_subset_states() subset states.
  std::size_t num_states() const { return succ_count_.size(); }
  /// The state a packet starts in: tracked set {entry}, exit allowed.
  std::uint32_t entry_state() const {
    return static_cast<std::uint32_t>(num_nodes());
  }
  std::size_t num_subset_states() const {
    return num_states() - num_nodes() - 1;
  }

  /// The tracked set of `state`: successors(state) for a node state,
  /// the stored member list otherwise. Duplicate-free, grouped by hash
  /// value, ascending within each group.
  std::span<const std::uint32_t> members(std::uint32_t state) const {
    if (state < num_nodes()) return successors(state);
    const std::size_t at = state - num_nodes();
    return {members_.data() + member_off_[at],
            members_.data() + member_off_[at + 1]};
  }

  /// Flat transition table, indexed [(state << hash_width) | hash]: the
  /// state the monitor is in after report `hash` matched in `state`, or
  /// kFastEmpty when nothing in members(state) matches (an attack).
  /// The target is the matched node itself when exactly one member
  /// matched, else the subset state of the matched set; kFastMulti marks
  /// a multi-match the bounded subset construction left uncompiled
  /// (take the bucket() slice). This is the whole per-instruction hot
  /// path of the monitor: one shift-or index, one load.
  const std::uint32_t* fast_next_data() const { return fast_next_.data(); }
  /// Per-state tracked-set size, indexed by state.
  const std::uint32_t* succ_count_data() const { return succ_count_.data(); }
  /// Per-state exit bit, indexed by state: may the handler finish in it?
  const std::uint8_t* node_exit_data() const { return node_exit_.data(); }

  /// Result of one batch_step() walk: where the walk stopped and the
  /// stat deltas the caller folds into its cumulative counters.
  struct BatchStep {
    std::uint32_t state = 0;      // state after `consumed` steps
    std::size_t consumed = 0;     // hashes that took a table transition
    std::size_t live = 0;         // tracked-set size after the walk
    std::size_t peak = 0;         // running peak, seeded by the caller
    std::uint64_t width_accum = 0;  // sum of pre-step tracked-set sizes
  };

  /// Graph-resident multi-hash stepping: starting in `state` (tracked
  /// set == members(state), size `live`), consume as many of the `n`
  /// hashes as resolve through the flat fast_next table -- one dependent
  /// load per hash -- and report where the walk stopped. The walk ends at
  /// the first hash whose transition is a sentinel (kFastEmpty /
  /// kFastMulti) or whose report is out of range; the caller replays
  /// that hash through its per-hash reference path, so batched and
  /// per-hash feeds can never diverge. Width accounting mirrors
  /// HardwareMonitor::on_hashed: each consumed hash is counted *before*
  /// its transition, at the pre-step set size. Static and inline: callers
  /// pass the raw table views they already cache, keeping the loop free
  /// of any smart-pointer or member loads.
  static BatchStep batch_step(const std::uint32_t* fast_next,
                              const std::uint32_t* succ_count,
                              std::uint32_t hash_shift,
                              std::uint32_t bucket_count, std::uint32_t state,
                              std::size_t live, std::size_t peak,
                              const std::uint8_t* hashes, std::size_t n) {
    BatchStep out;
    std::size_t i = 0;
    if (bucket_count >= kNumBuckets) {
      // Full-width graphs (w == 8): a uint8 report can never be out of
      // range, so the range test vanishes from the inner loop and each
      // iteration is exactly one shift-or index + one dependent load.
      while (i < n) {
        const std::uint32_t v = fast_next[(state << hash_shift) | hashes[i]];
        if (v >= kFastMulti) break;
        out.width_accum += live;
        if (live > peak) peak = live;
        state = v;
        live = succ_count[v];
        ++i;
      }
    } else {
      while (i < n) {
        const std::uint8_t hashed = hashes[i];
        if (hashed >= bucket_count) break;
        const std::uint32_t v = fast_next[(state << hash_shift) | hashed];
        if (v >= kFastMulti) break;
        out.width_accum += live;
        if (live > peak) peak = live;
        state = v;
        live = succ_count[v];
        ++i;
      }
    }
    out.state = state;
    out.consumed = i;
    out.live = live;
    out.peak = peak;
    return out;
  }

  /// The members of `state` whose stored hash equals `hash` -- i.e.
  /// exactly the tracked positions that match report `hash` in `state`.
  /// Contiguous, duplicate-free, precomputed. Reports outside [0, 2^w)
  /// can never match and yield an empty slice.
  std::span<const std::uint32_t> bucket(std::uint32_t state,
                                        std::uint8_t hash) const {
    if (hash >= hash_buckets_) return {};
    if (state >= num_nodes()) {
      // Cold path: members are grouped by hash, so the bucket is one run.
      const std::span<const std::uint32_t> all = members(state);
      const auto has_hash = [&](std::uint32_t node) {
        return node_hash_[node] == hash;
      };
      const auto lo = std::find_if(all.begin(), all.end(), has_hash);
      return {lo, std::find_if_not(lo, all.end(), has_hash)};
    }
    const std::size_t at =
        static_cast<std::size_t>(state) * hash_buckets_ + hash;
    return {edges_.data() + bucket_off_[at],
            edges_.data() + bucket_off_[at + 1]};
  }

  /// Number of graph nodes whose hash equals `hash` -- the hard upper
  /// bound on how many tracked positions can simultaneously match one
  /// report (comparator pressure for a hardware sizing estimate).
  std::uint32_t bucket_population(std::size_t hash) const {
    return bucket_population_[hash];
  }

  /// Bytes of flat compiled state (CSR arrays, per-state tables and the
  /// subset members); the np.engine.compiled_graph_bytes gauge. Excludes
  /// the retained source graph, which is cold.
  std::size_t footprint_bytes() const;

  /// The wire-format graph this artifact was compiled from (what gets
  /// signed, serialized, and re-verified against the binary).
  const MonitoringGraph& source() const { return source_; }

 private:
  explicit CompiledGraph(MonitoringGraph graph);

  /// Pass 4 of the constructor: the bounded subset construction.
  void determinise();

  MonitoringGraph source_;
  std::uint32_t hash_buckets_ = 0;        // 2^hash_width
  std::vector<std::uint8_t> node_hash_;   // [num_nodes]
  // CSR offsets into edges_: entry [node * 2^w + h] opens the slice of
  // node's successors whose hash is h; [num_nodes * 2^w] closes the
  // last slice. Adjacent buckets (and adjacent nodes) share offsets, so
  // one flat array serves both bucket() and successors().
  std::vector<std::uint32_t> bucket_off_;  // [num_nodes * 2^w + 1]
  std::vector<std::uint32_t> edges_;       // successor node indices
  // Per-state tables: node states first, then the entry state, then the
  // subset states, so a row index is a state.
  std::vector<std::uint8_t> node_exit_;    // [num_states] 0/1
  std::vector<std::uint32_t> succ_count_;  // [num_states] tracked-set size
  std::vector<std::uint32_t> fast_next_;   // [num_states * 2^w]
  // CSR of the non-node states' tracked sets: entry [s - num_nodes]
  // opens state s's slice of members_.
  std::vector<std::uint32_t> member_off_;  // [num_states - num_nodes + 1]
  std::vector<std::uint32_t> members_;
  std::vector<std::uint32_t> bucket_population_;  // [kNumBuckets]
};

}  // namespace sdmmon::monitor

#endif  // SDMMON_MONITOR_COMPILED_GRAPH_HPP
