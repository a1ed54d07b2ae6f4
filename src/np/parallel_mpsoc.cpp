#include "np/parallel_mpsoc.hpp"

#include <algorithm>
#include <cassert>

#include "util/backoff.hpp"

namespace sdmmon::np {

using util::Backoff;

ParallelMpsoc::ParallelMpsoc(std::size_t num_cores, DispatchPolicy policy,
                             RecoveryConfig recovery, ParallelConfig parallel)
    : CoreArray(num_cores, policy, recovery, /*parallel=*/true),
      config_(parallel) {
  config_.batch_size = std::max<std::size_t>(config_.batch_size, 1);
  capture_spec_ =
      recovery_.config().policy != RecoveryPolicy::ResetAndContinue;
  rob_size_ = config_.batch_size;
  rob_ = std::make_unique<Slot[]>(rob_size_);

  next_ticket_.assign(num_cores, 0);
  planned_pkts_.assign(num_cores, 0);
  committed_instr_ = std::make_unique<std::atomic<std::uint64_t>[]>(num_cores);
  committed_pkts_ = std::make_unique<std::atomic<std::uint64_t>[]>(num_cores);
  core_turn_ = std::make_unique<std::atomic<std::uint64_t>[]>(num_cores);
  for (std::size_t c = 0; c < num_cores; ++c) {
    committed_instr_[c].store(0, std::memory_order_relaxed);
    committed_pkts_[c].store(0, std::memory_order_relaxed);
    core_turn_[c].store(0, std::memory_order_relaxed);
  }

  std::size_t workers = config_.workers == 0 ? num_cores : config_.workers;
  workers = std::min(std::max<std::size_t>(workers, num_cores > 0 ? 1 : 0),
                     num_cores);
  deques_.reserve(workers);
  workers_.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w) {
    deques_.push_back(std::make_unique<util::StealingDeque<std::uint64_t>>(
        rob_size_ * kRingHeadroom + 1));
  }
  for (std::size_t w = 0; w < workers; ++w) {
    workers_.emplace_back([this, w] { worker_main(w); });
  }
}

ParallelMpsoc::~ParallelMpsoc() {
  flush();
  stop_.store(true, std::memory_order_release);
  epoch_cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

// ---------------------------------------------------------------------
// Workers: pop own shard first, steal oldest from others, fold greedily
// ---------------------------------------------------------------------

void ParallelMpsoc::worker_main(std::size_t worker) {
  Backoff idle;
  for (;;) {
    if (stop_.load(std::memory_order_acquire)) return;
    if (epoch_requested_.load(std::memory_order_acquire)) {
      park_for_epoch();
      idle.reset();
      continue;
    }
    std::uint64_t seq;
    if (pop_work(worker, seq)) {
      execute_slot(seq);
      try_fold();
      idle.reset();
    } else {
      // Idle workers still fold: when every core is quarantined, slots
      // are born Executed (undispatched) and nobody else may be around
      // to retire them.
      try_fold();
      idle.pause();
    }
  }
}

bool ParallelMpsoc::pop_work(std::size_t worker, std::uint64_t& seq) {
  if (deques_[worker]->try_pop(seq)) return true;
  const std::size_t shards = deques_.size();
  for (std::size_t i = 1; i < shards; ++i) {
    if (deques_[(worker + i) % shards]->try_pop(seq)) {
#if SDMMON_OBS_ENABLED
      if (EngineObs* obs = engine_obs()) obs->shard_steals->add(1);
#endif
      return true;
    }
  }
  return false;
}

RecoveryAction ParallelMpsoc::run_slot(Slot& slot) {
  MonitoredCore& core = cores_[slot.core];
  if (capture_spec_) core.begin_speculation();
  if (core.installed()) {
    slot.result = core.execute_packet(slot.item->data);
  } else {
    // Unreachable through dispatch (uninstalled cores are not in the
    // active set) but kept defensive: drop, like the serial engine.
    slot.result = PacketResult{};
  }
  if (capture_spec_) {
    slot.spec_undo = core.end_speculation();
    slot.spec_captured = true;
  }
  slot.action = recovery_.on_outcome_speculative(slot.core,
                                                 slot.result.outcome,
                                                 slot.outcome_undo);
  slot.window_violations = recovery_.window_violations(slot.core);
  const RecoveryAction action = slot.action;
  // Last write to the slot: from here on a folder may free it and the
  // planner may reuse it for another packet.
  slot.state.store(SlotState::Executed, std::memory_order_release);
  return action;
}

void ParallelMpsoc::execute_slot(std::uint64_t seq) {
  Slot& slot = rob_[seq % rob_size_];
  std::atomic<std::uint64_t>& turn = core_turn_[slot.core];
  // Copied before run_slot() publishes the slot as Executed: after that
  // the slot may already belong to another packet.
  const std::uint64_t ticket = slot.ticket;
  // Wait for this core's turn. The predecessor ticket was pushed to the
  // same shard deque earlier (FIFO), so it has been popped by a worker
  // that runs it to completion -- this wait always terminates, which is
  // also why workers may only park at the loop top, never mid-item.
  Backoff backoff;
  while (turn.load(std::memory_order_acquire) != ticket) {
    backoff.pause();
  }
  const RecoveryAction action = run_slot(slot);
  turn.store(ticket + 1, std::memory_order_release);
  if (action != RecoveryAction::None) {
    epoch_requested_.store(true, std::memory_order_release);
  }
}

// ---------------------------------------------------------------------
// Folding: commit completed slots in global sequence order
// ---------------------------------------------------------------------

void ParallelMpsoc::try_fold() {
  if (!fold_mutex_.try_lock()) return;
  fold_locked();
  fold_mutex_.unlock();
}

void ParallelMpsoc::fold_locked() {
  for (;;) {
    const std::uint64_t f = fold_next_.load(std::memory_order_relaxed);
    if (f == plan_next_.load(std::memory_order_acquire)) return;
    Slot& slot = rob_[f % rob_size_];
    if (slot.state.load(std::memory_order_acquire) != SlotState::Executed) {
      return;
    }
    // An acting slot folds only inside its recovery epoch, after the
    // speculated tail has been rolled back (so the healthy-core gauge
    // and journal it feeds observe exactly the serial engine's state).
    if (slot.action != RecoveryAction::None) return;
    fold_slot(slot);
    slot.state.store(SlotState::Free, std::memory_order_relaxed);
    fold_next_.store(f + 1, std::memory_order_release);
  }
}

void ParallelMpsoc::fold_slot(Slot& slot) {
  if (slot.core == kUndispatched) {
    note_undispatched();
  } else {
    cores_[slot.core].commit_result(slot.result);
    committed_instr_[slot.core].fetch_add(slot.result.instructions,
                                          std::memory_order_relaxed);
    committed_pkts_[slot.core].fetch_add(1, std::memory_order_relaxed);
    committed_instr_total_.fetch_add(slot.result.instructions,
                                     std::memory_order_relaxed);
    committed_pkts_total_.fetch_add(1, std::memory_order_relaxed);
#if SDMMON_OBS_ENABLED
    // Same call order as the serial engine's process_packet, so the
    // deterministic journal prefix and counters match bit-for-bit.
    if (EngineObs* obs = engine_obs()) {
      obs->dispatched->add(1);
      obs->record_outcome(obs->dispatched->value(), slot.core, slot.result,
                          slot.action, slot.window_violations, recovery_);
      if (slot.spec_captured) {
        obs->snapshot_dirty_pages->record(slot.spec_undo.pages.size());
      }
    }
#endif
  }
  if (slot.result_out != nullptr) *slot.result_out = slot.result;
  slot.owned = Packet{};
  slot.item = nullptr;
  slot.result_out = nullptr;
  slot.result = PacketResult{};
  slot.spec_undo = MonitoredCore::SpecUndo{};
  slot.spec_captured = false;
  slot.outcome_undo = RecoveryController::OutcomeUndo{};
}

// ---------------------------------------------------------------------
// Planning: inline in the submitting thread, one packet at a time
// ---------------------------------------------------------------------

bool ParallelMpsoc::plan_dispatch(Slot& slot) {
  slot.action = RecoveryAction::None;
  slot.spec_captured = false;
  slot.result = PacketResult{};
  const std::vector<std::size_t> active = active_cores();
  if (active.empty()) {
    // Fully degraded (or nothing installed yet): the slot is born
    // Executed and folds as an undispatched drop, like the serial path.
    slot.core = kUndispatched;
    slot.rr_after = rr_cursor_;
    slot.state.store(SlotState::Executed, std::memory_order_release);
    return false;
  }
  const std::uint64_t committed_pkts =
      committed_pkts_total_.load(std::memory_order_relaxed);
  const std::uint64_t est_instr =
      committed_pkts == 0
          ? 1
          : std::max<std::uint64_t>(
                1, committed_instr_total_.load(std::memory_order_relaxed) /
                       committed_pkts);
  slot.core = pick_dispatch_core(
      policy_, active, slot.item->flow_key, rr_cursor_,
      [&](std::size_t c) {
        // LeastLoaded sees committed (folded) load plus an estimate for
        // packets planned onto c but still in flight -- the relaxed
        // contract. With batch_size=1 nothing is ever in flight at plan
        // time and this reduces to the serial engine's exact feedback.
        const std::uint64_t committed =
            committed_pkts_[c].load(std::memory_order_relaxed);
        const std::uint64_t outstanding =
            planned_pkts_[c] > committed ? planned_pkts_[c] - committed : 0;
        return committed_instr_[c].load(std::memory_order_relaxed) +
               est_instr * outstanding;
      });
  slot.rr_after = rr_cursor_;
  slot.ticket = next_ticket_[slot.core]++;
  ++planned_pkts_[slot.core];
  slot.state.store(SlotState::Planned, std::memory_order_relaxed);
  return true;
}

void ParallelMpsoc::plan_one(const Packet* borrowed, Packet&& owned,
                             bool owns, PacketResult* result_out) {
  // Backpressure outside the plan lock: wait for reorder-buffer space,
  // helping fold so a worker-less (or fully quarantined) engine still
  // drains. fold_next_ only advances, so the check is stable once true.
  Backoff backoff;
  while (plan_next_.load(std::memory_order_relaxed) -
             fold_next_.load(std::memory_order_acquire) >=
         rob_size_) {
    try_fold();
    backoff.pause();
  }
  std::lock_guard<std::mutex> lock(plan_mutex_);
  const std::uint64_t seq = plan_next_.load(std::memory_order_relaxed);
  Slot& slot = rob_[seq % rob_size_];
  assert(slot.state.load(std::memory_order_relaxed) == SlotState::Free);
  if (owns) {
    slot.owned = std::move(owned);
    slot.item = &slot.owned;
  } else {
    slot.item = borrowed;
  }
  slot.result_out = result_out;
  const bool dispatched = plan_dispatch(slot);
  plan_next_.store(seq + 1, std::memory_order_release);
  if (dispatched) {
    util::StealingDeque<std::uint64_t>& deque = *deques_[shard_of(slot.core)];
    deque.push(seq);
#if SDMMON_OBS_ENABLED
    if (EngineObs* obs = engine_obs()) {
      obs->shard_queue_depth->record(deque.size_approx());
    }
#endif
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
    if (!epoch_requested_.load(std::memory_order_acquire) &&
        fold_next_.load(std::memory_order_acquire) ==
            plan_next_.load(std::memory_order_acquire)) {
      return;
    }
    backoff.pause();
  }
}

// ---------------------------------------------------------------------
// Recovery epochs: the only global synchronization point
// ---------------------------------------------------------------------

void ParallelMpsoc::park_for_epoch() {
  std::unique_lock<std::mutex> lock(epoch_mutex_);
  if (!epoch_requested_.load(std::memory_order_acquire)) return;
  ++parked_;
  if (parked_ == workers_.size()) {
    // parked_ == workers means no worker is executing (each parks only
    // at its loop top, holding no item), so the last one to arrive can
    // safely coordinate the epoch.
    lock.unlock();
    run_epoch();
    lock.lock();
    --parked_;
    epoch_cv_.notify_all();
  } else {
    epoch_cv_.wait(lock, [this] {
      return !epoch_requested_.load(std::memory_order_acquire) ||
             stop_.load(std::memory_order_acquire);
    });
    --parked_;
  }
}

void ParallelMpsoc::run_epoch() {
  // plan_mutex_ stops the planner (and makes this thread the shard
  // deques' producer); fold_mutex_ stops concurrent folding for the
  // whole epoch. Lock order plan -> fold is unique to this path, so no
  // cycle with the planner (plan only) or folders (fold only).
  std::lock_guard<std::mutex> plan_lock(plan_mutex_);
  std::lock_guard<std::mutex> fold_lock(fold_mutex_);
  epochs_.fetch_add(1, std::memory_order_relaxed);
#if SDMMON_OBS_ENABLED
  if (EngineObs* obs = engine_obs()) obs->shard_epochs->add(1);
#endif

  const std::uint64_t fold_at = fold_next_.load(std::memory_order_relaxed);
  const std::uint64_t plan_at = plan_next_.load(std::memory_order_relaxed);

  // 1. Drain every shard deque: with all workers parked, whatever is
  // still queued is exactly the planned-but-unexecuted set.
  std::vector<std::uint64_t> pending;
  for (auto& deque : deques_) {
    std::uint64_t s;
    while (deque->try_pop(s)) pending.push_back(s);
  }
  std::sort(pending.begin(), pending.end());

  // 2. The epoch pivots on the OLDEST executed slot demanding an action.
  std::uint64_t act = plan_at;
  for (std::uint64_t s = fold_at; s < plan_at; ++s) {
    Slot& slot = rob_[s % rob_size_];
    if (slot.state.load(std::memory_order_acquire) == SlotState::Executed &&
        slot.action != RecoveryAction::None) {
      act = s;
      break;
    }
  }

  // 3. Stragglers older than the pivot run inline, in sequence order.
  // Per-core turn tickets make each core's executed set a prefix, so an
  // unexecuted straggler's core holds no younger packet's side effects
  // and its turn is already current. A straggler may itself act at an
  // older sequence -- then IT becomes the pivot (serial order decides).
  for (std::size_t i = 0; i < pending.size() && pending[i] < act; ++i) {
    Slot& slot = rob_[pending[i] % rob_size_];
    assert(core_turn_[slot.core].load(std::memory_order_relaxed) ==
           slot.ticket);
    run_slot(slot);
    core_turn_[slot.core].store(slot.ticket + 1, std::memory_order_relaxed);
    if (slot.action != RecoveryAction::None) {
      act = pending[i];
      break;
    }
  }

  // 4. Roll back every executed slot younger than the pivot, newest
  // first (per-core tickets descend with sequence): restore the dirty
  // pages and cross-packet core state, withdraw the recovery outcome,
  // rewind the core's turn. Slots the rollback visits are exactly the
  // packets whose serial-order side effects never happened.
  std::uint64_t rolled = 0;
  std::uint64_t rolled_bytes = 0;
  for (std::uint64_t s = plan_at; s-- > act + 1;) {
    Slot& slot = rob_[s % rob_size_];
    if (slot.state.load(std::memory_order_relaxed) != SlotState::Executed ||
        slot.core == kUndispatched) {
      continue;
    }
    if (slot.spec_captured) {
      for (const Memory::PageCopy& page : slot.spec_undo.pages) {
        rolled_bytes += page.bytes.size();
      }
      cores_[slot.core].rollback_speculation(slot.spec_undo);
    }
    recovery_.undo_outcome(slot.core, slot.outcome_undo);
    core_turn_[slot.core].store(slot.ticket, std::memory_order_relaxed);
    ++rolled;
  }

  // 5. Fold the prefix through the pivot. Everything up to `act` is now
  // Executed (stragglers included); the pivot's own fold journals its
  // outcome and -- for a quarantine -- the healthy-core gauge, with all
  // younger speculation already undone, exactly like the serial engine.
  std::size_t act_core = kUndispatched;
  RecoveryAction act_action = RecoveryAction::None;
  std::size_t act_rr = rr_cursor_;
  if (act < plan_at) {
    Slot& pivot = rob_[act % rob_size_];
    act_core = pivot.core;
    act_action = pivot.action;
    act_rr = pivot.rr_after;
  }
  while (fold_next_.load(std::memory_order_relaxed) <
             std::min<std::uint64_t>(act + 1, plan_at)) {
    const std::uint64_t f = fold_next_.load(std::memory_order_relaxed);
    Slot& slot = rob_[f % rob_size_];
    assert(slot.state.load(std::memory_order_relaxed) ==
           SlotState::Executed);
    fold_slot(slot);
    slot.state.store(SlotState::Free, std::memory_order_relaxed);
    fold_next_.store(f + 1, std::memory_order_release);
  }

#if SDMMON_OBS_ENABLED
  if (rolled > 0) {
    if (EngineObs* obs = engine_obs()) {
      obs->rollbacks->add(1);
      obs->replayed_packets->add(rolled);
      obs->rollback_bytes->add(rolled_bytes);
      obs->journal->record({obs::EventKind::Rollback,
                            obs->dispatched->value(), obs::kAllCores,
                            obs->device_id, rolled});
    }
  }
#endif

  // 6. Apply the pivot's action. A quarantine already flipped health at
  // execute time (and survived the rollback, which only undoes younger
  // slots); a reinstall re-images here, after the fold, so the journal
  // order matches the serial engine.
  if (act_action == RecoveryAction::Reinstall) reinstall_core(act_core);

  // 7. Re-plan the tail against the post-action dispatch state: cursor
  // rewound to the pivot's, tickets restarted at the surviving turns,
  // planner load reset to committed counts.
  if (act < plan_at) rr_cursor_ = act_rr;
  for (std::size_t c = 0; c < cores_.size(); ++c) {
    next_ticket_[c] = core_turn_[c].load(std::memory_order_relaxed);
    planned_pkts_[c] = committed_pkts_[c].load(std::memory_order_relaxed);
  }
  for (std::uint64_t s = act + 1; s < plan_at; ++s) {
    Slot& slot = rob_[s % rob_size_];
    slot.spec_undo = MonitoredCore::SpecUndo{};
    slot.outcome_undo = RecoveryController::OutcomeUndo{};
    if (plan_dispatch(slot)) {
      deques_[shard_of(slot.core)]->push(s);
    }
  }

  epoch_requested_.store(false, std::memory_order_release);
}

}  // namespace sdmmon::np
