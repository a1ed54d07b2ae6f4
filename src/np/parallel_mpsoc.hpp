// Parallel MPSoC execution engine. Installs, last-good re-image, admin
// transitions, observability attach and the aggregate view come from
// np::CoreArray, shared with the serial `Mpsoc` (each drains in-flight
// packets first through the quiesce() hook). This file adds only the
// packet path, built around flow-affinity shards instead of a batch
// barrier:
//
//  * The planner runs inline in submit()/process_packets(): each packet
//    gets a global sequence number, a dispatch core (shared
//    pick_dispatch_core, so decisions cannot drift from the serial
//    engine), a per-core turn ticket, and a slot in a global reorder
//    buffer (ROB). The slot index is pushed to the deque of the shard
//    that owns the core -- packets of one flow hash to one core and
//    therefore one shard.
//  * Workers drain their own shard's deque first and steal the OLDEST
//    pending item from other shards when idle (util::StealingDeque).
//    An executor spins until its item's ticket matches the core's turn,
//    which serializes each core's packet stream without any global
//    barrier; independent cores never wait on each other.
//  * Execution is speculative: MonitoredCore::execute_packet defers
//    CoreStats, and under a policy that can act the executor brackets the
//    run with dirty-page capture (np::Memory copy-on-first-touch per
//    packet), so rollback cost is proportional to the state the packet
//    actually touched -- not the core's full 80 KiB image.
//  * Results FOLD in global sequence order: any thread (worker, planner,
//    flusher) that can take the fold lock commits completed slots in
//    order -- CoreStats, recovery outcomes, and the observability journal
//    all advance in exactly the serial engine's order.
//
// Recovery epochs replace the per-batch barrier. When a speculatively
// evaluated outcome demands an action (quarantine / reinstall-last-good),
// workers park, and the last one to park coordinates: unexecuted packets
// older than the acting one run inline (per-core tickets guarantee their
// cores are clean), every executed packet younger than the acting one is
// rolled back newest-first (dirty pages restored byte-for-byte, recovery
// outcomes withdrawn, turn counters rewound), the prefix through the
// acting packet folds, the action is applied exactly as the serial engine
// would have, and the tail is re-planned against the post-action dispatch
// set. ResetAndContinue never acts, so that policy runs capture-free at
// full speed and never takes an epoch.
//
// Equivalence contract (enforced by tests/mpsoc_parallel_diff_test.cpp):
//
//  * RoundRobin and FlowHash: per-packet outcomes, per-core CoreStats,
//    Core cycle/mix counters, monitor MonitorStats and peak width,
//    aggregate_stats(), and every RecoveryController decision are
//    BIT-IDENTICAL to the serial engine on the same packet sequence
//    (rollback restores the core and monitor counters a rolled-back
//    packet advanced, so a replayed packet is counted once).
//  * LeastLoaded: load feedback is committed instructions plus an
//    estimate for packets still in flight, so placement may differ from
//    the serial engine while packets are speculated. batch_size=1 bounds
//    the flight window to one packet and collapses to the strict
//    contract. Conservation of every packet and all recovery-safety
//    invariants hold always.
//
// Threading contract: submit()/flush()/process_packets()/install*() and
// every accessor must be called from ONE external thread. Accessors
// observe engine state only when the engine is quiescent (after flush()
// or a synchronous process_packets() call).
#ifndef SDMMON_NP_PARALLEL_MPSOC_HPP
#define SDMMON_NP_PARALLEL_MPSOC_HPP

#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "np/mpsoc.hpp"
#include "util/stealing_deque.hpp"

namespace sdmmon::np {

struct ParallelConfig {
  /// Worker threads; 0 = one per core. Clamped to [1, num_cores]. Each
  /// worker owns one shard; core c belongs to shard c % workers, so a
  /// flow's packets land in one shard's deque and per-core order is
  /// preserved for any worker count (stealing pops oldest-first).
  std::size_t workers = 0;
  /// Speculation window: packets in flight (planned but not yet folded).
  /// Larger windows keep more cores busy; smaller ones bound rollback
  /// replay cost and tighten LeastLoaded feedback (1 = per-packet exact).
  /// Each shard's ring is sized from it (ParallelMpsoc::kRingHeadroom).
  std::size_t batch_size = 256;
};

class ParallelMpsoc : public CoreArray {
 public:
  /// A packet handed to the engine. `data` is owned so asynchronously
  /// submitted packets survive until their slot folds.
  struct Packet {
    util::Bytes data;
    std::uint32_t flow_key = 0;
  };

  /// Per-shard ring capacity, in speculation windows. The reorder buffer
  /// bounds every shard to at most batch_size queued items (an epoch
  /// re-plan can land the whole window on one shard); the headroom keeps
  /// the planner's push wait-free in practice.
  static constexpr std::size_t kRingHeadroom = 4;

  explicit ParallelMpsoc(std::size_t num_cores,
                         DispatchPolicy policy = DispatchPolicy::RoundRobin,
                         RecoveryConfig recovery = {},
                         ParallelConfig parallel = {});
  ~ParallelMpsoc() override;

  std::size_t num_workers() const { return workers_.size(); }

  /// Asynchronous ingest: plan and enqueue one packet. Blocks only when
  /// the speculation window (batch_size) is full of unfolded packets.
  /// Results are folded into stats only.
  void submit(util::Bytes packet, std::uint32_t flow_key = 0);

  /// Block until every submitted packet has been executed and folded.
  void flush();

  /// Synchronous convenience path: process `packets` and return
  /// per-packet results in input order.
  std::vector<PacketResult> process_packets(
      const std::vector<Packet>& packets);

  /// Recovery epochs taken so far (each is one rollback point: workers
  /// parked, speculated tail rewound and re-planned). Deterministic for a
  /// given workload -- one epoch per recovery action -- and always 0
  /// under RecoveryPolicy::ResetAndContinue, which never acts.
  std::uint64_t speculation_rollbacks() const {
    return epochs_.load(std::memory_order_relaxed);
  }

 private:
  /// Installs, admin transitions and enable_obs() drain in-flight packets
  /// first, so they land on a packet boundary.
  void quiesce() override { flush(); }

  static constexpr std::size_t kUndispatched =
      static_cast<std::size_t>(-1);

  enum class SlotState : std::uint8_t {
    Free,      // unplanned (or folded and recycled)
    Planned,   // dispatch decided, waiting in a shard deque
    Executed,  // speculatively executed, waiting to fold in order
  };

  /// One reorder-buffer entry. The planner writes the plan fields under
  /// plan_mutex_ and publishes the slot through the shard deque; the
  /// executor writes the outcome fields and release-stores `state`; the
  /// folder (any thread holding fold_mutex_) consumes it in global
  /// sequence order.
  struct Slot {
    Packet owned;                    // async submit keeps bytes alive here
    const Packet* item = nullptr;    // &owned, or the caller's storage
    PacketResult* result_out = nullptr;  // non-null for process_packets
    PacketResult result;
    std::size_t core = kUndispatched;
    std::size_t rr_after = 0;  // RoundRobin cursor after planning this slot
    std::uint64_t ticket = 0;  // per-core turn number
    RecoveryAction action = RecoveryAction::None;
    std::size_t window_violations = 0;  // captured right after on_outcome
    RecoveryController::OutcomeUndo outcome_undo;
    MonitoredCore::SpecUndo spec_undo;
    bool spec_captured = false;
    std::atomic<SlotState> state{SlotState::Free};
  };

  void worker_main(std::size_t worker);
  bool pop_work(std::size_t worker, std::uint64_t& seq);
  void execute_slot(std::uint64_t seq);
  /// Speculative execution + outcome evaluation for one planned slot;
  /// requires the caller to hold the slot's core turn. Publishes the
  /// slot as Executed and returns its recovery action -- the caller must
  /// not touch the slot afterwards.
  RecoveryAction run_slot(Slot& slot);
  /// Plan dispatch for the slot at `seq` (requires plan_mutex_). Returns
  /// true when the packet was dispatched (and must be enqueued).
  bool plan_dispatch(Slot& slot);
  void plan_one(const Packet* borrowed, Packet&& owned, bool owns,
                PacketResult* result_out);
  /// Fold completed slots in sequence order (takes fold_mutex_ if free).
  void try_fold();
  void fold_locked();
  void fold_slot(Slot& slot);
  /// Park at the epoch barrier; the last worker to park coordinates.
  void park_for_epoch();
  /// The epoch coordinator: drain, execute stragglers, roll back the
  /// speculated tail, fold through the acting packet, apply its action,
  /// re-plan the tail. Runs with all workers parked.
  void run_epoch();

  std::size_t shard_of(std::size_t core) const {
    return core % deques_.size();
  }

  // ---- immutable after construction ----
  ParallelConfig config_;
  bool capture_spec_ = false;  // policy can act -> dirty-page capture on
  std::size_t rob_size_ = 1;   // in-flight bound == batch_size

  // ---- planner state (plan_mutex_) ----
  std::mutex plan_mutex_;
  std::size_t rr_cursor_ = 0;
  std::vector<std::uint64_t> next_ticket_;   // per core
  std::vector<std::uint64_t> planned_pkts_;  // per core, planner's view
  std::atomic<std::uint64_t> plan_next_{0};

  // ---- fold state (fold_mutex_) ----
  std::mutex fold_mutex_;
  std::atomic<std::uint64_t> fold_next_{0};
  // LeastLoaded load feedback: committed per-core/total tallies (folded
  // under fold_mutex_, read racily by the planner's load closure).
  std::unique_ptr<std::atomic<std::uint64_t>[]> committed_instr_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> committed_pkts_;
  std::atomic<std::uint64_t> committed_instr_total_{0};
  std::atomic<std::uint64_t> committed_pkts_total_{0};

  // ---- per-core execution order ----
  std::unique_ptr<std::atomic<std::uint64_t>[]> core_turn_;

  // ---- epoch machinery ----
  std::atomic<bool> epoch_requested_{false};
  std::mutex epoch_mutex_;
  std::condition_variable epoch_cv_;
  std::size_t parked_ = 0;       // guarded by epoch_mutex_
  std::atomic<std::uint64_t> epochs_{0};

  // ---- reorder buffer + shards ----
  std::unique_ptr<Slot[]> rob_;
  std::vector<std::unique_ptr<util::StealingDeque<std::uint64_t>>> deques_;
  std::vector<std::thread> workers_;
  std::atomic<bool> stop_{false};
};

}  // namespace sdmmon::np

#endif  // SDMMON_NP_PARALLEL_MPSOC_HPP
