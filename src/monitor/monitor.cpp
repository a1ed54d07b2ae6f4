#include "monitor/monitor.hpp"

#include <algorithm>
#include <span>
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
  // No tracked node expected this hash (or the report is out of range):
  // attack. Latched state (and the stale live_count_ it keeps feeding
  // state_size_accum) is preserved, exactly like the reference walker.
  attack_flagged_ = true;
  ++stats_.mismatches;
  return Verdict::Mismatch;
}

std::vector<std::uint32_t> HardwareMonitor::state_nodes() const {
  const std::span<const std::uint32_t> members = graph_->members(state_);
  std::vector<std::uint32_t> nodes(members.begin(), members.end());
  std::sort(nodes.begin(), nodes.end());
  return nodes;
}

}  // namespace sdmmon::monitor
