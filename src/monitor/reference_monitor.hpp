// The original straight-from-the-paper monitoring-graph walker, retained
// verbatim as the differential-testing oracle for the compiled hot path
// (monitor/monitor.hpp). It filters a plain state vector against the
// wire-format graph's per-node successor vectors and dedups with
// sort+unique -- simple enough to audit by eye, slow enough that the
// production HardwareMonitor no longer uses it. Any divergence between
// the two walkers on any stream is a bug (tests/monitor_property_test
// fuzzes exactly this).
#ifndef SDMMON_MONITOR_REFERENCE_MONITOR_HPP
#define SDMMON_MONITOR_REFERENCE_MONITOR_HPP

#include <cstdint>
#include <memory>
#include <vector>

#include "monitor/graph.hpp"
#include "monitor/hash.hpp"
#include "monitor/monitor.hpp"  // Verdict, MonitorStats

namespace sdmmon::monitor {

class ReferenceMonitor {
 public:
  ReferenceMonitor(MonitoringGraph graph,
                   std::unique_ptr<InstructionHash> hash);

  /// Arm for a new packet: state set = {entry node}. Counts one
  /// monitored packet (install-time re-arming does not).
  void reset();

  /// Install a new (graph, hash) pair. Re-arms monitoring state without
  /// counting a packet; cumulative stats persist across installs.
  void install(MonitoringGraph graph, std::unique_ptr<InstructionHash> hash);

  Verdict on_hashed(std::uint8_t hashed);

  bool exit_allowed() const { return exit_allowed_; }
  bool attack_flagged() const { return attack_flagged_; }

  std::size_t state_size() const { return state_.size(); }
  std::size_t peak_state_size() const { return peak_state_size_; }
  /// Tracked node indices, ascending (for differential state compares).
  const std::vector<std::uint32_t>& state_nodes() const { return state_; }
  const MonitorStats& stats() const { return stats_; }
  const MonitoringGraph& graph() const { return graph_; }
  const InstructionHash& hash() const { return *hash_; }

 private:
  void rearm();

  MonitoringGraph graph_;
  std::unique_ptr<InstructionHash> hash_;
  std::vector<std::uint32_t> state_;       // tracked node indices (sorted)
  std::vector<std::uint32_t> scratch_;     // reused successor buffer
  bool exit_allowed_ = true;
  bool attack_flagged_ = false;
  std::size_t peak_state_size_ = 0;
  MonitorStats stats_;
};

}  // namespace sdmmon::monitor

#endif  // SDMMON_MONITOR_REFERENCE_MONITOR_HPP
