// An independent oracle for CompiledGraph's subset-construction bound,
// plus the seeded random-graph generator and the never-joining lane the
// monitor differential suites draw from.
//
// subset_closure() recomputes, naively and without the compiler's
// tables, every matched set the monitor can reach: the multi-match
// buckets of every node (two or more successors sharing a hash), then,
// for every set found, the hash-grouped groups of two or more in the
// union of its members' successors, until nothing new appears. The
// compiler must accept a graph exactly when that closure fits both of
// its bounds -- at most num_nodes() sets, and at most num_edges() +
// num_nodes() member entries, charged per set as the sum of its
// members' deduplicated successor counts.
#ifndef SDMMON_TESTS_SUPPORT_SUBSET_CLOSURE_HPP
#define SDMMON_TESTS_SUPPORT_SUBSET_CLOSURE_HPP

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <stdexcept>
#include <utility>
#include <vector>

#include "monitor/compiled_graph.hpp"
#include "monitor/graph.hpp"
#include "monitor/monitor.hpp"
#include "util/rng.hpp"

namespace sdmmon::testsupport {

/// A random graph exercising every structural feature the compiler packs:
/// shared hash values (bucket collisions), indirect-jump fan-out, nodes
/// with can_exit, and trap terminals (no successors).
inline monitor::MonitoringGraph random_graph(util::Rng& rng) {
  const int width = 1 + static_cast<int>(rng.below(8));  // 1..8 bits
  const std::uint32_t n = 1 + rng.below(40);
  std::vector<monitor::GraphNode> nodes(n);
  for (auto& node : nodes) {
    node.hash = static_cast<std::uint8_t>(rng.below(1u << width));
    node.can_exit = rng.chance(0.3);
    if (rng.chance(0.12)) continue;  // trap terminal: no successors
    // 1..2 successors normally; occasional indirect-jump fan-out.
    std::size_t degree = 1 + rng.below(2);
    if (rng.chance(0.15)) degree = 2 + rng.below(6);
    for (std::size_t s = 0; s < degree; ++s) {
      node.successors.push_back(rng.below(n));
    }
  }
  return monitor::MonitoringGraph(width, 0x1000, rng.below(n),
                                  std::move(nodes));
}

struct SubsetClosure {
  /// Distinct reachable matched sets found (the search stops one past
  /// num_nodes(), where the state bound is already exceeded).
  std::size_t sets = 0;
  /// Member entries charged for them.
  std::size_t charge = 0;
  /// Whether the whole closure fits both bounds.
  bool fits = false;
};

inline SubsetClosure subset_closure(const monitor::MonitoringGraph& graph) {
  const std::size_t n = graph.size();
  std::vector<std::set<std::uint32_t>> succ(n);
  std::size_t edges = 0;
  for (std::size_t u = 0; u < n; ++u) {
    const auto& list = graph.node(static_cast<std::uint32_t>(u)).successors;
    succ[u].insert(list.begin(), list.end());
    edges += succ[u].size();
  }

  std::set<std::vector<std::uint32_t>> found;
  std::vector<std::vector<std::uint32_t>> work;
  const auto discover = [&](const std::set<std::uint32_t>& tracked) {
    std::map<std::uint8_t, std::vector<std::uint32_t>> by_hash;
    for (std::uint32_t u : tracked) by_hash[graph.node(u).hash].push_back(u);
    for (auto& [hash, matched] : by_hash) {
      if (matched.size() >= 2 && found.insert(matched).second) {
        work.push_back(std::move(matched));
      }
    }
  };
  for (std::size_t u = 0; u < n; ++u) discover(succ[u]);
  while (!work.empty() && found.size() <= n) {
    const std::vector<std::uint32_t> matched = std::move(work.back());
    work.pop_back();
    std::set<std::uint32_t> tracked;
    for (std::uint32_t u : matched) {
      tracked.insert(succ[u].begin(), succ[u].end());
    }
    discover(tracked);
  }

  SubsetClosure out;
  out.sets = found.size();
  for (const auto& matched : found) {
    for (std::uint32_t u : matched) out.charge += succ[u].size();
  }
  out.fits = out.sets <= n && out.charge <= edges + n;
  return out;
}

/// The closure invariant of an accepted graph: every transition is a
/// real state or the mismatch sentinel.
inline void expect_closed(const monitor::CompiledGraph& graph) {
  const std::uint32_t* next = graph.fast_next_data();
  const std::size_t entries = graph.num_states() * graph.num_hash_buckets();
  std::size_t open = 0;
  for (std::size_t i = 0; i < entries; ++i) {
    if (next[i] != monitor::CompiledGraph::kFastEmpty &&
        next[i] >= graph.num_states()) {
      ++open;
    }
  }
  EXPECT_EQ(open, 0u) << "transitions outside the table";
}

/// Compiles `graph`, requiring that compile() rejects it exactly when the
/// closure oracle says it exceeds the bound. Returns the artifact, or
/// null for a rejected graph. An accepted graph must be closed, with one
/// subset state per reachable matched set.
inline std::shared_ptr<const monitor::CompiledGraph> compile_checked(
    const monitor::MonitoringGraph& graph) {
  const SubsetClosure closure = subset_closure(graph);
  std::shared_ptr<const monitor::CompiledGraph> compiled;
  try {
    compiled = monitor::CompiledGraph::compile(graph);
  } catch (const std::invalid_argument&) {
    EXPECT_FALSE(closure.fits) << "compile rejected a graph that fits: "
                               << closure.sets << " sets, " << closure.charge
                               << " member entries";
    return nullptr;
  }
  EXPECT_TRUE(closure.fits) << "compile accepted a graph past the bound: "
                            << closure.sets << " sets, " << closure.charge
                            << " member entries";
  EXPECT_EQ(compiled->num_subset_states(), closure.sets);
  expect_closed(*compiled);
  return compiled;
}

/// A summarised lane of `n` positions whose canonical states are all
/// kFastEmpty, which no table step yields: HardwareMonitor::advance()
/// over it never joins, so it steps every hash of any graph itself, up to
/// the first Mismatch. Only state[] is read before a join.
struct NeverJoiningLane {
  explicit NeverJoiningLane(std::size_t n)
      : states(n, monitor::CompiledGraph::kFastEmpty) {}
  monitor::CanonicalLane lane() const {
    monitor::CanonicalLane lane;
    lane.state = states.data();
    return lane;
  }
  std::vector<std::uint32_t> states;
};

}  // namespace sdmmon::testsupport

#endif  // SDMMON_TESTS_SUPPORT_SUBSET_CLOSURE_HPP
