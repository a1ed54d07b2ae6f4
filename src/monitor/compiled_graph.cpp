#include "monitor/compiled_graph.hpp"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <map>
#include <stdexcept>
#include <string>

namespace sdmmon::monitor {

namespace {

[[noreturn]] void bad_graph(const std::string& what) {
  throw std::invalid_argument("CompiledGraph: " + what);
}

}  // namespace

CompiledGraph::CompiledGraph(MonitoringGraph graph)
    : source_(std::move(graph)) {
  const auto& nodes = source_.nodes();
  const std::size_t n = nodes.size();

  if (source_.hash_width() < 1 || source_.hash_width() > 8) {
    bad_graph("hash width " + std::to_string(source_.hash_width()) +
              " outside [1,8]");
  }
  if (n > 0 && source_.entry_index() >= n) {
    bad_graph("entry index " + std::to_string(source_.entry_index()) +
              " out of range for " + std::to_string(n) + " nodes");
  }
  hash_buckets_ = 1u << source_.hash_width();
  // Node states, the entry state and up to num_nodes() subset states
  // must all index the transition table with a 32-bit (state << w) | h.
  if ((2 * static_cast<std::uint64_t>(n) + 1) * hash_buckets_ >
      std::numeric_limits<std::uint32_t>::max()) {
    bad_graph(std::to_string(n) + " nodes overflow the transition table");
  }

  // Pass 1: validate and pack the per-node records (successor bucketing
  // in pass 2 needs every node's hash up front).
  node_hash_.resize(n);
  node_exit_.resize(n);
  std::size_t total_edges = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const GraphNode& node = nodes[i];
    if (node.hash >= hash_buckets_) {
      bad_graph("node " + std::to_string(i) + " hash " +
                std::to_string(node.hash) + " exceeds width " +
                std::to_string(source_.hash_width()));
    }
    for (std::uint32_t succ : node.successors) {
      if (succ >= n) {
        bad_graph("node " + std::to_string(i) + " successor " +
                  std::to_string(succ) + " out of range");
      }
    }
    node_hash_[i] = node.hash;
    node_exit_[i] = node.can_exit ? 1 : 0;
    total_edges += node.successors.size();
  }

  // Pass 2: dedup each successor list, then scatter it into per-hash
  // groups via a counting sort, recording CSR bucket offsets as we go.
  // The grouping is what lets the monitor answer "which successors of u
  // match report h?" with a single precomputed slice.
  bucket_off_.resize(n * hash_buckets_ + 1);
  edges_.reserve(total_edges);
  std::vector<std::uint32_t> dedup;
  std::vector<std::uint32_t> cursor(hash_buckets_);
  for (std::size_t i = 0; i < n; ++i) {
    dedup.assign(nodes[i].successors.begin(), nodes[i].successors.end());
    std::sort(dedup.begin(), dedup.end());
    dedup.erase(std::unique(dedup.begin(), dedup.end()), dedup.end());

    std::fill(cursor.begin(), cursor.end(), 0);
    for (std::uint32_t succ : dedup) ++cursor[node_hash_[succ]];
    std::uint32_t running = static_cast<std::uint32_t>(edges_.size());
    for (std::uint32_t h = 0; h < hash_buckets_; ++h) {
      bucket_off_[i * hash_buckets_ + h] = running;
      running += cursor[h];
      cursor[h] = bucket_off_[i * hash_buckets_ + h];
    }
    edges_.resize(running);
    // dedup is ascending, so the stable scatter keeps every bucket
    // ascending too.
    for (std::uint32_t succ : dedup) edges_[cursor[node_hash_[succ]]++] = succ;
  }
  bucket_off_[n * hash_buckets_] = static_cast<std::uint32_t>(edges_.size());

  // Pass 3: the node states' rows of the transition table. For every
  // (node, hash) pair the step "exactly one tracked successor matches
  // the report" is answered by a single load; empty buckets carry the
  // mismatch sentinel, and pass 4 points every multi-match bucket at its
  // subset state.
  succ_count_.resize(n);
  fast_next_.resize(n * hash_buckets_);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t base = i * hash_buckets_;
    succ_count_[i] = bucket_off_[base + hash_buckets_] - bucket_off_[base];
    for (std::uint32_t h = 0; h < hash_buckets_; ++h) {
      const std::uint32_t lo = bucket_off_[base + h];
      const std::uint32_t hi = bucket_off_[base + h + 1];
      fast_next_[base + h] = hi - lo == 1 ? edges_[lo] : kFastEmpty;
    }
  }

  determinise();
}

void CompiledGraph::determinise() {
  // Pass 4: bounded subset construction. A multi-match step leaves the
  // monitor tracking the union of several successor slices; each such
  // union becomes a state of its own, appended after the node states, so
  // the monitor's tracked set is always one row of fast_next_. A subset
  // state is keyed by its matched set M (ascending, |M| >= 2). Its
  // tracked set -- the deduped union of successors(M), grouped by hash
  // -- is stored in the members_ CSR, and its exit bit is the OR of
  // can_exit over M.
  //
  // The bound is a property of the graph, not a knob: at most
  // num_nodes() subset states, and at most num_edges() + num_nodes()
  // member entries. Members are charged before deduplication, so the
  // bound caps the union work too, and a rejected candidate is priced
  // from succ_count_ alone. Compile time and table size thus stay
  // O(nodes * 2^w + edges) even for a hostile signed graph. The first
  // subset state past either bound rejects the graph. Both bounds are
  // sums over the set of reachable matched sets, so whether a graph is
  // accepted does not depend on the order they are discovered in.
  const std::size_t n = num_nodes();
  std::size_t member_budget = num_edges() + n;
  std::map<std::vector<std::uint32_t>, std::uint32_t> interned;
  std::vector<std::uint32_t> seen(n, kFastEmpty);  // dedup stamp: state

  const auto add_state = [&](bool can_exit) {
    node_exit_.push_back(can_exit ? 1 : 0);
    fast_next_.resize(fast_next_.size() + hash_buckets_, kFastEmpty);
    member_off_.push_back(static_cast<std::uint32_t>(members_.size()));
    succ_count_.push_back(static_cast<std::uint32_t>(
        members_.size() - member_off_[member_off_.size() - 2]));
  };
  const auto subset_state = [&](std::vector<std::uint32_t> matched) {
    auto [it, fresh] = interned.try_emplace(std::move(matched), kFastEmpty);
    if (!fresh) return it->second;
    std::size_t cost = 0;
    for (std::uint32_t u : it->first) cost += succ_count_[u];
    if (num_subset_states() == n || cost > member_budget) {
      bad_graph("reachable subsets exceed the bound of " + std::to_string(n) +
                " states and " + std::to_string(num_edges() + n) +
                " member entries");
    }
    member_budget -= cost;

    const auto state = static_cast<std::uint32_t>(num_states());
    const std::size_t first = members_.size();
    bool can_exit = false;
    for (std::uint32_t u : it->first) {
      can_exit |= node_exit_[u] != 0;
      for (std::uint32_t s : successors(u)) {
        if (seen[s] == state) continue;
        seen[s] = state;
        members_.push_back(s);
      }
    }
    std::sort(members_.begin() + static_cast<std::ptrdiff_t>(first),
              members_.end(), [&](std::uint32_t a, std::uint32_t b) {
                return node_hash_[a] != node_hash_[b]
                           ? node_hash_[a] < node_hash_[b]
                           : a < b;
              });
    add_state(can_exit);
    return it->second = state;
  };

  // The entry state: tracked set {entry}, exit allowed before any step.
  member_off_.push_back(0);
  if (n > 0) members_.push_back(entry_index());
  add_state(true);

  // Seed from every multi-match bucket of the node states...
  for (std::size_t i = 0; i < n * hash_buckets_; ++i) {
    const std::span<const std::uint32_t> matched =
        bucket(static_cast<std::uint32_t>(i / hash_buckets_),
               static_cast<std::uint8_t>(i % hash_buckets_));
    if (matched.size() < 2) continue;
    fast_next_[i] = subset_state({matched.begin(), matched.end()});
  }
  // ...then fill the non-node rows in creation order, which appends the
  // subset states they reach until no new one appears. Members are
  // grouped by hash, so each report's matched set is one run of them.
  // Indices, not iterators: subset_state() may grow members_.
  for (std::size_t state = n; state < num_states(); ++state) {
    const std::size_t end = member_off_[state - n + 1];
    for (std::size_t lo = member_off_[state - n], hi = lo; lo < end; lo = hi) {
      const std::uint8_t h = node_hash_[members_[lo]];
      while (hi < end && node_hash_[members_[hi]] == h) ++hi;
      const std::size_t row = state * hash_buckets_ + h;
      if (hi - lo == 1) {
        fast_next_[row] = members_[lo];
      } else {
        fast_next_[row] = subset_state(
            {members_.begin() + static_cast<std::ptrdiff_t>(lo),
             members_.begin() + static_cast<std::ptrdiff_t>(hi)});
      }
    }
  }
}

std::shared_ptr<const CompiledGraph> CompiledGraph::compile(
    MonitoringGraph graph) {
  return std::shared_ptr<const CompiledGraph>(
      new CompiledGraph(std::move(graph)));
}

std::size_t CompiledGraph::footprint_bytes() const {
  return node_hash_.size() * sizeof(std::uint8_t) +
         node_exit_.size() * sizeof(std::uint8_t) +
         bucket_off_.size() * sizeof(std::uint32_t) +
         edges_.size() * sizeof(std::uint32_t) +
         succ_count_.size() * sizeof(std::uint32_t) +
         fast_next_.size() * sizeof(std::uint32_t) +
         member_off_.size() * sizeof(std::uint32_t) +
         members_.size() * sizeof(std::uint32_t);
}

}  // namespace sdmmon::monitor
