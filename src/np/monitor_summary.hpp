// Install-time summary of the monitor's walk through every superblock's
// hash lane -- the third immutable install artifact, next to the
// CompiledGraph and the CompiledProgram it is built from.
//
// While the text is clean, a superblock's hash slice is fixed at install,
// so the monitor's effect on it is a pure function of the state it enters
// in. The summary walks the transition table once along each formed
// superblock's lane from a seed state, and stores per lane position the
// canonical state, a running sum of pre-step widths, where the
// mismatch-free run ends, and the largest width entered before that end
// (monitor::CanonicalLane). The seed of a run is the node state whose
// index is the op's text index, when that node carries the op's hash --
// extract_graph's numbering, under which the step over an op that matched
// one node leaves the monitor in exactly that node's state. A run ends at
// a mismatch (kFastEmpty) or a report out of range, at the superblock's
// end, or where its width sum would leave 32 bits; the next position
// re-seeds. Every graph that compiles is a closed transition table, so
// no other step can end a run.
//
// A dispatch steps hashes from the real state until it equals the
// canonical state at that position (HardwareMonitor::advance over a
// CanonicalLane). The walk is deterministic, so from there the two stay
// equal and the rest of the run is settled in O(1), for any retired
// length: the full superblock, a side exit, or a stop before an MMIO or
// trapping op anywhere in the lane. A different seed can only cost a
// missed join, never a wrong verdict; a walk that never joins goes
// through HardwareMonitor::advance(), the per-hash path and the oracle.
//
// Size is kBytesPerLaneOp per superblock op -- a constant of the program,
// independent of the graph, the hash parameter and any packet -- and the
// build is one pass over the lane. Like the other two artifacts, a
// MonitorSummary is shared as std::shared_ptr<const MonitorSummary> by
// every core, LastGoodConfig and the device application store, so
// install, fast switch and last-good re-image stay pointer swaps. It
// keeps both source artifacts alive, and MonitoredCore::install rejects
// a summary not built from exactly the pair being installed.
#ifndef SDMMON_NP_MONITOR_SUMMARY_HPP
#define SDMMON_NP_MONITOR_SUMMARY_HPP

#include <cstdint>
#include <memory>
#include <vector>

#include "monitor/compiled_graph.hpp"
#include "monitor/monitor.hpp"
#include "np/compiled_program.hpp"

namespace sdmmon::np {

class MonitorSummary {
 public:
  /// Footprint per superblock op: the canonical state and width sum
  /// (4 bytes each), the run length and saturated peak (1 byte each).
  static constexpr std::size_t kBytesPerLaneOp = 10;

  /// Walk every formed superblock of `code` through `graph`. Throws
  /// std::invalid_argument when either artifact is null; total otherwise
  /// (a lane hash the graph cannot step simply ends a run).
  static std::shared_ptr<const MonitorSummary> build(
      std::shared_ptr<const monitor::CompiledGraph> graph,
      std::shared_ptr<const CompiledProgram> code);

  /// True when built from exactly these two artifacts (pointer identity:
  /// canonical states index `graph`, lane positions index `code`).
  bool built_from(const monitor::CompiledGraph* graph,
                  const CompiledProgram* code) const {
    return graph == graph_.get() && code == code_.get();
  }

  /// The canonical walk seen from the dispatch whose hash slice starts at
  /// `hashes`, a pointer into code's superblock hash lane.
  monitor::CanonicalLane lane(const std::uint8_t* hashes) const {
    const std::size_t at = static_cast<std::size_t>(hashes - lane_base_);
    return {state_.data() + at, width_sum_.data() + at, run_.data() + at,
            peak_.data() + at};
  }

  /// Lane positions summarised (== code's num_trace_ops()).
  std::size_t size() const { return state_.size(); }

  /// Bytes of summary tables (the np.engine.monitor_summary_bytes gauge):
  /// kBytesPerLaneOp per superblock op.
  std::size_t footprint_bytes() const { return size() * kBytesPerLaneOp; }

 private:
  MonitorSummary() = default;

  std::shared_ptr<const monitor::CompiledGraph> graph_;
  std::shared_ptr<const CompiledProgram> code_;
  const std::uint8_t* lane_base_ = nullptr;  // code's superblock hash lane
  std::vector<std::uint32_t> state_;
  std::vector<std::uint32_t> width_sum_;
  std::vector<std::uint8_t> run_;
  std::vector<std::uint8_t> peak_;
};

}  // namespace sdmmon::np

#endif  // SDMMON_NP_MONITOR_SUMMARY_HPP
