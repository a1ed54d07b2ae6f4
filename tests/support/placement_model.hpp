// Reference model of the quarantine placement contract (np/mpsoc.hpp):
// a quarantine decided by packet `i` takes its core out of placement from
// packet `i + kPlacementLag` on, and every packet placement still sends
// to the quarantined core in between is dropped unrun. The model replays
// placement for a fleet whose cores either violate on every packet they
// run (a vulnerable app fed attack packets) or never do, so it knows when
// each core quarantines without running anything. Tests compare the
// engines' exact undispatched and per-core counts against it.
#ifndef SDMMON_TESTS_SUPPORT_PLACEMENT_MODEL_HPP
#define SDMMON_TESTS_SUPPORT_PLACEMENT_MODEL_HPP

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "np/dispatch.hpp"
#include "np/mpsoc.hpp"

namespace sdmmon::testsupport {

struct PlacementModel {
  /// Packets placed on a core already quarantined, dropped unrun.
  std::uint64_t lag_drops = 0;
  /// Packets dropped because no core was placeable.
  std::uint64_t unplaced = 0;
  /// Packets each core ran.
  std::vector<std::uint64_t> runs;
  /// Per core: the sequence number of the packet that quarantined it.
  std::vector<std::optional<std::uint64_t>> quarantined_by;
};

/// Replay placement of packets with `flow_keys` over `violating.size()`
/// installed cores. A core with violating[c] quarantines on the
/// `runs_to_quarantine`-th packet it runs.
inline PlacementModel model_placement(
    np::DispatchPolicy policy, const std::vector<bool>& violating,
    std::size_t runs_to_quarantine,
    const std::vector<std::uint32_t>& flow_keys) {
  const std::size_t cores = violating.size();
  PlacementModel model;
  model.runs.assign(cores, 0);
  model.quarantined_by.assign(cores, std::nullopt);
  std::vector<std::size_t> placement(cores);
  for (std::size_t c = 0; c < cores; ++c) placement[c] = c;
  std::vector<std::pair<std::uint64_t, std::size_t>> due;  // (seq, core)
  std::size_t rr = 0;
  for (std::uint64_t seq = 0; seq < flow_keys.size(); ++seq) {
    for (auto it = due.begin(); it != due.end();) {
      if (it->first > seq) {
        ++it;
        continue;
      }
      std::erase(placement, it->second);
      it = due.erase(it);
    }
    if (placement.empty()) {
      ++model.unplaced;
      continue;
    }
    const std::size_t core =
        np::pick_dispatch_core(policy, placement, flow_keys[seq], rr);
    if (model.quarantined_by[core]) {
      ++model.lag_drops;
      continue;
    }
    ++model.runs[core];
    if (violating[core] && model.runs[core] == runs_to_quarantine) {
      model.quarantined_by[core] = seq;
      due.emplace_back(seq + np::kPlacementLag, core);
    }
  }
  return model;
}

}  // namespace sdmmon::testsupport

#endif  // SDMMON_TESTS_SUPPORT_PLACEMENT_MODEL_HPP
