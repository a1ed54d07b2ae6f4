#include "monitor/monitor.hpp"

#include <algorithm>
#include <stdexcept>

namespace sdmmon::monitor {

HardwareMonitor::HardwareMonitor(std::shared_ptr<const CompiledGraph> graph,
                                 std::unique_ptr<InstructionHash> hash)
    : graph_(std::move(graph)), hash_(std::move(hash)) {
  if (!graph_) throw std::invalid_argument("HardwareMonitor: null graph");
  rebind();
}

HardwareMonitor::HardwareMonitor(MonitoringGraph graph,
                                 std::unique_ptr<InstructionHash> hash)
    : HardwareMonitor(CompiledGraph::compile(std::move(graph)),
                      std::move(hash)) {}

void HardwareMonitor::rebind() {
  const std::size_t n = graph_->num_nodes();
  // The tracked set is duplicate-free, so n slots always suffice: every
  // later step writes into pre-sized buffers and never allocates.
  cur_.resize(n);
  nxt_.resize(n);
  stamps_.assign(n, 0);
  epoch_ = 0;
  fast_next_ = graph_->fast_next_data();
  succ_count_ = graph_->succ_count_data();
  node_exit_ = graph_->node_exit_data();
  bucket_count_ = graph_->num_hash_buckets();
  hash_shift_ = static_cast<std::uint32_t>(graph_->hash_width());
  rearm();
}

void HardwareMonitor::rearm() {
  state_ = graph_->entry_state();
  live_count_ = succ_count_[state_];
  exit_allowed_ = true;
  attack_flagged_ = false;
  peak_state_size_ = live_count_;
}

void HardwareMonitor::seek(std::uint32_t state) {
  if (state >= graph_->num_states()) {
    throw std::out_of_range("HardwareMonitor: state out of range");
  }
  rearm();
  state_ = state;
  live_count_ = succ_count_[state];
  exit_allowed_ = node_exit_[state] != 0;
  peak_state_size_ = live_count_;
}

void HardwareMonitor::reset() {
  rearm();
  ++stats_.packets_monitored;
}

void HardwareMonitor::install(std::shared_ptr<const CompiledGraph> graph,
                              std::unique_ptr<InstructionHash> hash) {
  if (!graph) throw std::invalid_argument("HardwareMonitor: null graph");
  graph_ = std::move(graph);
  hash_ = std::move(hash);
  rebind();
}

void HardwareMonitor::install(MonitoringGraph graph,
                              std::unique_ptr<InstructionHash> hash) {
  install(CompiledGraph::compile(std::move(graph)), std::move(hash));
}

Verdict HardwareMonitor::on_instruction(std::uint32_t word) {
  return on_hashed(hash_->hash(word));
}

Verdict HardwareMonitor::flag_mismatch() {
  // No tracked node expected this hash: attack. Latched state (and the
  // stale live_count_ it keeps feeding state_size_accum) is preserved,
  // exactly like the reference walker.
  attack_flagged_ = true;
  ++stats_.mismatches;
  return Verdict::Mismatch;
}

void HardwareMonitor::advance_matched(
    std::span<const std::uint32_t> matched) {
  // Several tracked nodes matched the report at once (all drawn from one
  // compiled bucket, so each IS a match -- no hash test needed here).
  // Materialize the deduped union of their successor slices into cur_;
  // cur_ is free for writing because the current set is a row of the
  // artifact, not cur_.
  ++epoch_;
  std::size_t count = 0;
  bool exit_next = false;
  for (std::uint32_t u : matched) {
    exit_next |= graph_->node_can_exit(u);
    for (std::uint32_t s : graph_->successors(u)) {
      if (stamps_[s] == epoch_) continue;
      stamps_[s] = epoch_;
      cur_[count++] = s;
    }
  }
  state_ = kListForm;
  live_count_ = count;
  exit_allowed_ = exit_next;
}

Verdict HardwareMonitor::step_list(std::uint8_t hashed) {
  // Single pass over the materialized list: match against the packed
  // hash array, OR exit capability, and concatenate compiled successor
  // slices into the next buffer. A matched trap terminal contributes an
  // empty slice -- it still counts as a match here, and the now-empty
  // state makes the NEXT report mismatch, so no separate rescan is
  // needed. Out-of-range reports (>= 2^w) simply never compare equal to
  // any stored hash.
  const std::uint32_t* cur = cur_.data();
  std::uint32_t* nxt = nxt_.data();
  std::size_t count = 0;
  std::size_t matched = 0;
  std::uint32_t first_match = 0;
  bool exit_next = false;
  for (std::size_t i = 0; i < live_count_; ++i) {
    const std::uint32_t node = cur[i];
    if (graph_->node_hash(node) != hashed) continue;
    exit_next |= graph_->node_can_exit(node);
    const std::span<const std::uint32_t> succ = graph_->successors(node);
    if (++matched == 1) {
      // Tentative single match: if nothing else matches we will adopt
      // the compiled slice by reference below, so don't copy yet.
      first_match = node;
      continue;
    }
    if (matched == 2) {
      // A second matched node: fetch the first match's slice into the
      // epoch-stamp dedup regime, then merge. Compiled slices are
      // duplicate-free, so the first one needs no stamp test.
      ++epoch_;
      for (std::uint32_t s : graph_->successors(first_match)) {
        stamps_[s] = epoch_;
        nxt[count++] = s;
      }
    }
    for (std::uint32_t s : succ) {
      if (stamps_[s] == epoch_) continue;
      stamps_[s] = epoch_;
      nxt[count++] = s;
    }
  }

  if (matched == 0) return flag_mismatch();
  exit_allowed_ = exit_next;
  if (matched == 1) {
    // Back to state form: the tracked set is the matched node's
    // compiled successor slice, adopted by reference.
    state_ = first_match;
    live_count_ = graph_->successor_count(first_match);
    return Verdict::Ok;
  }
  cur_.swap(nxt_);
  live_count_ = count;
  return Verdict::Ok;
}

std::vector<std::uint32_t> HardwareMonitor::state_nodes() const {
  std::vector<std::uint32_t> nodes;
  if (state_ != kListForm) {
    const std::span<const std::uint32_t> members = graph_->members(state_);
    nodes.assign(members.begin(), members.end());
  } else {
    nodes.assign(cur_.begin(), cur_.begin() + live_count_);
  }
  std::sort(nodes.begin(), nodes.end());
  return nodes;
}

}  // namespace sdmmon::monitor
