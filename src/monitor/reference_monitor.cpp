#include "monitor/reference_monitor.hpp"

#include <algorithm>

namespace sdmmon::monitor {

ReferenceMonitor::ReferenceMonitor(MonitoringGraph graph,
                                   std::unique_ptr<InstructionHash> hash)
    : graph_(std::move(graph)), hash_(std::move(hash)) {
  rearm();
}

void ReferenceMonitor::rearm() {
  state_.clear();
  if (!graph_.nodes().empty()) state_.push_back(graph_.entry_index());
  exit_allowed_ = true;
  attack_flagged_ = false;
  peak_state_size_ = state_.size();
}

void ReferenceMonitor::reset() {
  rearm();
  ++stats_.packets_monitored;
}

void ReferenceMonitor::install(MonitoringGraph graph,
                               std::unique_ptr<InstructionHash> hash) {
  graph_ = std::move(graph);
  hash_ = std::move(hash);
  rearm();
}

Verdict ReferenceMonitor::on_hashed(std::uint8_t hashed) {
  ++stats_.instructions_checked;
  stats_.state_size_accum += state_.size();
  peak_state_size_ = std::max(peak_state_size_, state_.size());

  if (attack_flagged_) return Verdict::Mismatch;

  // Match phase: keep tracked nodes whose stored hash equals the report.
  scratch_.clear();
  bool exit_next = false;
  for (std::uint32_t idx : state_) {
    const GraphNode& node = graph_.node(idx);
    if (node.hash != hashed) continue;
    exit_next = exit_next || node.can_exit;
    for (std::uint32_t succ : node.successors) scratch_.push_back(succ);
  }

  if (scratch_.empty() && !exit_next) {
    // No tracked node expected this hash (or only trap-terminal nodes
    // matched and then nothing may follow -- handled on the *next* report).
    bool any_match = false;
    for (std::uint32_t idx : state_) {
      if (graph_.node(idx).hash == hashed) {
        any_match = true;
        break;
      }
    }
    if (!any_match) {
      attack_flagged_ = true;
      ++stats_.mismatches;
      return Verdict::Mismatch;
    }
  }

  // Advance phase: successor union becomes the new state set.
  std::sort(scratch_.begin(), scratch_.end());
  scratch_.erase(std::unique(scratch_.begin(), scratch_.end()),
                 scratch_.end());
  state_ = scratch_;
  exit_allowed_ = exit_next;
  return Verdict::Ok;
}

}  // namespace sdmmon::monitor
