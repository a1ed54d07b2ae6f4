// Dispatch-policy core selection, shared verbatim between the serial
// Mpsoc and the parallel engine so the two cannot drift: the differential
// test suite asserts bit-identical dispatch decisions, and both engines
// funnel through this one function to make that hold by construction.
#ifndef SDMMON_NP_DISPATCH_HPP
#define SDMMON_NP_DISPATCH_HPP

#include <cstdint>
#include <vector>

namespace sdmmon::np {

enum class DispatchPolicy : std::uint8_t {
  RoundRobin,
  FlowHash,     // same flow key -> same core (stable per-flow ordering)
};

/// Pick one entry of `active` (must be non-empty, ascending core indices).
/// `rr_next` is the RoundRobin cursor: it is consumed and advanced only by
/// RoundRobin dispatch, exactly once per dispatched packet. FlowHash
/// neither reads nor advances it. Placement depends only on the policy,
/// the active set, the flow key and the cursor -- never on what a packet
/// did on its core -- so the parallel engine can place packets ahead of
/// their execution exactly as the serial engine would.
inline std::size_t pick_dispatch_core(DispatchPolicy policy,
                                      const std::vector<std::size_t>& active,
                                      std::uint32_t flow_key,
                                      std::size_t& rr_next) {
  if (policy == DispatchPolicy::FlowHash) {
    // Fibonacci hashing spreads sequential flow keys. Hashing over the
    // *active* list remaps flows off quarantined cores while flows on
    // surviving cores stay put as long as the active set is stable.
    return active[(flow_key * 2654435761u) % active.size()];
  }
  return active[rr_next++ % active.size()];
}

/// Accepts and ignores a trailing load callback. Kept only for the
/// perfbench layer pass (perfbench/perfbench.cpp), which still passes
/// one; delete together with that argument.
template <typename Ignored>
std::size_t pick_dispatch_core(DispatchPolicy policy,
                               const std::vector<std::size_t>& active,
                               std::uint32_t flow_key, std::size_t& rr_next,
                               Ignored&&) {
  return pick_dispatch_core(policy, active, flow_key, rr_next);
}

}  // namespace sdmmon::np

#endif  // SDMMON_NP_DISPATCH_HPP
