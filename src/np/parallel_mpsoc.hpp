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
//    engine), and a slot in a global reorder buffer (ROB). The slot index
//    is pushed to the FIFO ring of the shard that owns the core --
//    packets of one flow hash to one core and therefore one shard.
//  * A shard's worker is the only thread that executes its cores'
//    packets (the epoch coordinator aside, which runs only while every
//    worker is parked), so each core's packet stream executes in FIFO
//    order without any turn-taking or global barrier; independent cores
//    never wait on each other.
//  * Execution is speculative: MonitoredCore::execute_packet defers
//    CoreStats, and under a policy that can quarantine
//    (RecoveryConfig::can_quarantine) the executor brackets the run with
//    dirty-page capture (np::Memory copy-on-first-touch per packet), so
//    rollback cost is proportional to the state the packet actually
//    touched -- not the core's full 132 KiB of writable state (data +
//    stack + packet-in + packet-out).
//  * Recovery is core-local, as in the paper: a reinstall-last-good
//    re-image changes only its core, so the executing worker applies it
//    inline, right after the acting packet and inside its capture
//    bracket, before the core's next packet. Its engine-wide half (the
//    reinstall count, its latency sample and journal event) happens when
//    the packet folds.
//  * Results FOLD in global sequence order: any thread (worker, planner,
//    flusher) that can take the fold lock commits completed slots in
//    order -- CoreStats, recovery outcomes, and the observability journal
//    all advance in exactly the serial engine's order.
//
// Recovery epochs replace the per-batch barrier, and only a quarantine
// takes one: it is the one action that changes the active set, and with
// it where younger packets go. Workers park, and the last one to park
// coordinates: unexecuted packets older than the quarantining one run
// inline (each core's executed packets are a prefix of its stream, so
// their cores are clean), every executed packet younger than it is
// rolled back newest-first (dirty pages restored byte-for-byte, an inline
// re-image's configuration swapped back, recovery outcomes withdrawn),
// the prefix through the quarantining packet folds, and the tail is
// re-planned against the post-quarantine dispatch set. ResetAndContinue
// and ReinstallLastGood with kUnboundedReinstalls never quarantine, so
// they run capture-free and never take an epoch.
//
// Equivalence contract (enforced by tests/mpsoc_parallel_diff_test.cpp),
// one for every dispatch policy, worker count and batch_size: per-packet
// outcomes, per-core CoreStats, Core cycle/mix counters, monitor
// MonitorStats and peak width, aggregate_stats(), and every
// RecoveryController decision are BIT-IDENTICAL to the serial engine on
// the same packet sequence. Placement reads only the policy, the active
// set, the flow key and the RoundRobin cursor, never execution results,
// so planning ahead of execution cannot diverge; rollback restores the
// core and monitor counters a rolled-back packet advanced, so a replayed
// packet is counted once.
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
#include <optional>
#include <thread>
#include <vector>

#include "np/mpsoc.hpp"
#include "util/spsc_ring.hpp"

namespace sdmmon::np {

struct ParallelConfig {
  /// Worker threads; 0 = one per core. Clamped to [1, num_cores]. Each
  /// worker owns one shard; core c belongs to shard c % workers, so a
  /// flow's packets land in one shard's ring, and only that shard's
  /// worker executes them -- per-core order is the ring's FIFO order for
  /// any worker count.
  std::size_t workers = 0;
  /// Speculation window: packets in flight (planned but not yet folded).
  /// Larger windows keep more cores busy; smaller ones bound rollback
  /// replay cost. Results are identical for every window size.
  /// Each shard's ring holds batch_size items (rounded up to a power of
  /// two), so enqueueing never waits.
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
  /// given workload -- one epoch per quarantine -- and always 0 under a
  /// policy that cannot quarantine (RecoveryConfig::can_quarantine).
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
    Planned,   // dispatch decided, waiting in a shard ring
    Executed,  // speculatively executed, waiting to fold in order
  };

  /// One reorder-buffer entry. The planner writes the plan fields under
  /// plan_mutex_ and publishes the slot through the shard ring; the
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
    RecoveryAction action = RecoveryAction::None;
    std::size_t window_violations = 0;  // captured right after on_outcome
    /// Set when run_slot re-imaged the core: the re-image's wall-clock
    /// ns, recorded (with the reinstall count and journal event) at fold.
    std::optional<std::uint64_t> reimage_ns;
    RecoveryController::OutcomeUndo outcome_undo;
    MonitoredCore::SpecUndo spec_undo;
    bool spec_captured = false;
    std::atomic<SlotState> state{SlotState::Free};
  };

  void worker_main(std::size_t worker);
  /// Speculative execution + outcome evaluation (and an inline re-image
  /// on RecoveryAction::Reinstall) for one planned slot; runs on the
  /// slot's shard worker (or the epoch coordinator). Publishes the slot
  /// as Executed and returns its recovery action -- the caller must not
  /// touch the slot afterwards.
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
  /// speculated tail, fold through the quarantining packet, re-plan the
  /// tail. Runs with all workers parked.
  void run_epoch();

  std::size_t shard_of(std::size_t core) const {
    return core % rings_.size();
  }

  // ---- immutable after construction ----
  ParallelConfig config_;
  bool capture_spec_ = false;  // policy can quarantine -> capture on
  std::size_t rob_size_ = 1;   // in-flight bound == batch_size

  // ---- planner state (plan_mutex_) ----
  std::mutex plan_mutex_;
  std::size_t rr_cursor_ = 0;
  std::atomic<std::uint64_t> plan_next_{0};

  // ---- fold state (fold_mutex_) ----
  std::mutex fold_mutex_;
  std::atomic<std::uint64_t> fold_next_{0};

  // ---- epoch machinery ----
  std::atomic<bool> epoch_requested_{false};
  std::mutex epoch_mutex_;
  std::condition_variable epoch_cv_;
  std::size_t parked_ = 0;       // guarded by epoch_mutex_
  std::atomic<std::uint64_t> epochs_{0};

  // ---- reorder buffer + shards ----
  std::unique_ptr<Slot[]> rob_;
  // Producer: the plan_mutex_ holder. Consumer: the shard's worker, or
  // the epoch coordinator while that worker is parked (epoch_mutex_
  // orders the hand-off).
  std::vector<std::unique_ptr<util::SpscRing<std::uint64_t>>> rings_;
  std::vector<std::thread> workers_;
  std::atomic<bool> stop_{false};
};

}  // namespace sdmmon::np

#endif  // SDMMON_NP_PARALLEL_MPSOC_HPP
