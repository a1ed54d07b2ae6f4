#include "np/parallel_mpsoc.hpp"

#include <algorithm>
#include <cassert>

#include "util/backoff.hpp"

namespace sdmmon::np {

using util::Backoff;

ParallelMpsoc::ParallelMpsoc(std::size_t num_cores, DispatchPolicy policy,
                             RecoveryConfig recovery, ParallelConfig parallel)
    : CoreArray(num_cores, policy, recovery, /*parallel=*/true),
      rob_size_(std::clamp<std::size_t>(parallel.batch_size, 1,
                                        kPlacementLag)) {
  rob_ = std::make_unique<Slot[]>(rob_size_);

  std::size_t workers = parallel.workers == 0 ? num_cores : parallel.workers;
  workers = std::min(std::max<std::size_t>(workers, num_cores > 0 ? 1 : 0),
                     num_cores);
  // A queued item is placed but not folded, and the reorder buffer caps
  // those at rob_size_, so a ring of that capacity can never fill.
  rings_.reserve(workers);
  workers_.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w) {
    rings_.push_back(
        std::make_unique<util::SpscRing<std::uint64_t>>(rob_size_));
  }
  for (std::size_t w = 0; w < workers; ++w) {
    workers_.emplace_back([this, w] { worker_main(w); });
  }
}

ParallelMpsoc::~ParallelMpsoc() {
  flush();
  stop_.store(true, std::memory_order_release);
  for (std::thread& w : workers_) w.join();
}

// ---------------------------------------------------------------------
// Workers: run own shard's ring in FIFO order, fold greedily
// ---------------------------------------------------------------------

void ParallelMpsoc::worker_main(std::size_t worker) {
  util::SpscRing<std::uint64_t>& ring = *rings_[worker];
  Backoff idle;
  while (!stop_.load(std::memory_order_acquire)) {
    std::uint64_t seq;
    if (ring.try_pop(seq)) {
      Slot& slot = rob_[seq % rob_size_];
      execute(slot.core, slot.item->data, slot.ex);
      // Last write to the slot: from here on a folder may free it and
      // the planner may reuse it for another packet.
      slot.state.store(SlotState::Executed, std::memory_order_release);
      try_fold();
      idle.reset();
    } else {
      // Idle workers still fold: when no core is placeable, slots are
      // born Executed and nobody else may be around to retire them.
      try_fold();
      idle.pause();
    }
  }
}

// ---------------------------------------------------------------------
// Folding: commit completed slots in sequence order
// ---------------------------------------------------------------------

void ParallelMpsoc::try_fold() {
  if (!fold_mutex_.try_lock()) return;
  for (;;) {
    const std::uint64_t f = fold_next_.load(std::memory_order_relaxed);
    if (f == plan_next_.load(std::memory_order_acquire)) break;
    Slot& slot = rob_[f % rob_size_];
    if (slot.state.load(std::memory_order_acquire) != SlotState::Executed) {
      break;
    }
    commit(f, slot.ex);
    if (slot.result_out != nullptr) {
      *slot.result_out = std::move(slot.ex.result);
    }
    slot.owned = Packet{};
    slot.item = nullptr;
    slot.result_out = nullptr;
    slot.ex = Execution{};
    slot.state.store(SlotState::Free, std::memory_order_relaxed);
    fold_next_.store(f + 1, std::memory_order_release);
  }
  fold_mutex_.unlock();
}

// ---------------------------------------------------------------------
// Planning: inline in the submitting thread, one packet at a time
// ---------------------------------------------------------------------

void ParallelMpsoc::plan_one(const Packet* borrowed, Packet&& owned,
                             bool owns, PacketResult* result_out) {
  // Backpressure: wait for reorder-buffer space, helping fold so a
  // worker-less (or fully quarantined) engine still drains. fold_next_
  // only advances, so the check is stable once true. Once it holds, every
  // packet older than seq - kPlacementLag has folded, and with it every
  // quarantine whose exclusion place() must apply.
  const std::uint64_t seq = plan_next_.load(std::memory_order_relaxed);
  Backoff backoff;
  while (seq - fold_next_.load(std::memory_order_acquire) >= rob_size_) {
    try_fold();
    backoff.pause();
  }
  Slot& slot = rob_[seq % rob_size_];
  assert(slot.state.load(std::memory_order_relaxed) == SlotState::Free);
  if (owns) {
    slot.owned = std::move(owned);
    slot.item = &slot.owned;
  } else {
    slot.item = borrowed;
  }
  slot.result_out = result_out;
  slot.core = place(seq, slot.item->flow_key);
  if (slot.core == kUndispatched) {
    // No core is placeable: the slot is born Executed and folds as an
    // undispatched drop, like the serial path.
    slot.state.store(SlotState::Executed, std::memory_order_release);
    plan_next_.store(seq + 1, std::memory_order_release);
    return;
  }
  slot.state.store(SlotState::Planned, std::memory_order_relaxed);
  plan_next_.store(seq + 1, std::memory_order_release);
  util::SpscRing<std::uint64_t>& ring = *rings_[shard_of(slot.core)];
  ring.push(seq);
  if (EngineObs* obs = engine_obs()) {
    obs->shard_queue_depth->record(ring.size_approx());
  }
}

void ParallelMpsoc::submit(util::Bytes packet, std::uint32_t flow_key) {
  plan_one(nullptr, Packet{std::move(packet), flow_key}, /*owns=*/true,
           nullptr);
}

std::vector<PacketResult> ParallelMpsoc::process_packets(
    const std::vector<Packet>& packets) {
  std::vector<PacketResult> results(packets.size());
  for (std::size_t i = 0; i < packets.size(); ++i) {
    plan_one(&packets[i], Packet{}, /*owns=*/false, &results[i]);
  }
  flush();
  return results;
}

void ParallelMpsoc::flush() {
  Backoff backoff;
  for (;;) {
    try_fold();
    if (fold_next_.load(std::memory_order_acquire) ==
        plan_next_.load(std::memory_order_relaxed)) {
      return;
    }
    backoff.pause();
  }
}

}  // namespace sdmmon::np
