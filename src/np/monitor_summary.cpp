#include "np/monitor_summary.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

namespace sdmmon::np {

std::shared_ptr<const MonitorSummary> MonitorSummary::build(
    std::shared_ptr<const monitor::CompiledGraph> graph,
    std::shared_ptr<const CompiledProgram> code) {
  if (graph == nullptr || code == nullptr) {
    throw std::invalid_argument("MonitorSummary: null artifact");
  }
  static_assert(CompiledProgram::kTraceCap <=
                    std::numeric_limits<std::uint8_t>::max(),
                "a run length must fit its byte");
  constexpr std::uint32_t kNone = monitor::CompiledGraph::kFastEmpty;

  auto summary = std::shared_ptr<MonitorSummary>(new MonitorSummary());
  const std::size_t n = code->num_trace_ops();
  const CompiledProgram::TraceOp* ops = code->trace_ops_data();
  const std::uint8_t* lane = code->trace_hash_lane_data();
  summary->lane_base_ = lane;

  // Formed superblocks are concatenated in the lane; every anchor's
  // slice ends where its superblock does, so the anchors' slice ends are
  // exactly the superblock boundaries.
  std::vector<std::uint8_t> head(n, 0);
  if (n > 0) head[0] = 1;
  for (std::size_t i = 0; i < code->num_ops(); ++i) {
    const CompiledProgram::TraceRef ref =
        code->trace_at(code->text_base() + static_cast<std::uint32_t>(i) * 4);
    if (ref.len == 0) continue;
    const std::size_t end = static_cast<std::size_t>(ref.ops - ops) + ref.len;
    if (end < n) head[end] = 1;
  }

  // Forward: the canonical walk. `chain` is the width sum since the run
  // began, kept below 2^32 so a u32 difference inside a run is exact.
  const std::uint32_t* fast_next = graph->fast_next_data();
  const std::uint32_t* succ_count = graph->succ_count_data();
  const auto shift = static_cast<std::uint32_t>(graph->hash_width());
  std::vector<std::uint8_t> starts(n, 0);
  summary->state_.resize(n);
  summary->width_sum_.resize(n);
  std::uint32_t sum = 0;
  std::uint64_t chain = 0;
  for (std::size_t p = 0; p < n; ++p) {
    std::uint32_t next = kNone;
    if (!head[p] && summary->state_[p - 1] != kNone &&
        lane[p] < graph->num_hash_buckets()) {
      const std::uint32_t prev = summary->state_[p - 1];
      const std::uint32_t width = succ_count[prev];
      const std::uint32_t v = fast_next[(prev << shift) | lane[p]];
      if (v != kNone &&
          chain + width <= std::numeric_limits<std::uint32_t>::max()) {
        next = v;
        chain += width;
        sum += width;
      }
    }
    if (next == kNone) {
      // A new run: seed from the op's own node.
      starts[p] = 1;
      chain = 0;
      const std::uint32_t node = (ops[p].pc - code->text_base()) >> 2;
      if (node < graph->num_nodes() && graph->node_hash(node) == lane[p]) {
        next = node;
      }
    }
    summary->state_[p] = next;
    summary->width_sum_[p] = sum;
  }

  // Backward: each position's distance to its run's end, and the largest
  // width entered after it within the run.
  summary->run_.resize(n);
  summary->peak_.resize(n);
  std::size_t end = n;
  std::uint32_t peak = 0;
  for (std::size_t p = n; p-- > 0;) {
    if (p + 1 < end) peak = std::max(peak, succ_count[summary->state_[p]]);
    summary->run_[p] = static_cast<std::uint8_t>(end - p);
    summary->peak_[p] = static_cast<std::uint8_t>(std::min<std::uint32_t>(
        peak, monitor::CanonicalLane::kPeakSaturated));
    if (starts[p]) {
      end = p;
      peak = 0;
    }
  }

  summary->graph_ = std::move(graph);
  summary->code_ = std::move(code);
  return summary;
}

}  // namespace sdmmon::np
