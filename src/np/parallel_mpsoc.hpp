// Parallel MPSoC execution engine. Installs, last-good re-image, release,
// observability attach, the aggregate view, placement and one packet's
// core-local run and in-order commit all come from np::CoreArray, shared
// with the serial `Mpsoc` (administrative operations drain in-flight
// packets first through the quiesce() hook). This file adds only the
// packet loop, built around flow-affinity shards instead of a batch
// barrier:
//
//  * The planner runs inline in submit()/process_packets(): each packet
//    gets the next sequence number, a placement (CoreArray::place, the
//    serial engine's own call), and a slot in a global reorder buffer
//    (ROB). The slot index is pushed to the FIFO ring of the shard that
//    owns the core -- packets of one flow hash to one core and therefore
//    one shard.
//  * A shard's worker is the only thread that executes its cores'
//    packets, so each core's packet stream runs in FIFO order without any
//    turn-taking or global barrier; independent cores never wait on each
//    other. MonitoredCore::execute_packet defers CoreStats to the fold.
//  * Recovery is core-local, as in the paper: a re-image changes only its
//    core, and a quarantine stops only its core, so the executing worker
//    applies either right after the acting packet, before the core's
//    next one. A quarantine changes placement kPlacementLag packets
//    later (np/mpsoc.hpp); the planner runs at most batch_size <=
//    kPlacementLag packets ahead of the fold, so every exclusion a
//    placement depends on has been committed when the packet is placed.
//    Nothing is ever rolled back.
//  * Results FOLD in sequence order: any thread (worker, planner,
//    flusher) that can take the fold lock commits completed slots in
//    order -- CoreStats, recovery counts, and the observability journal
//    all advance in exactly the serial engine's order.
//
// Equivalence contract (enforced by tests/mpsoc_parallel_diff_test.cpp),
// one for every dispatch policy, worker count and batch_size: per-packet
// outcomes, per-core CoreStats, Core cycle/mix counters, monitor
// MonitorStats and peak width, aggregate_stats(), and every
// RecoveryController decision are BIT-IDENTICAL to the serial engine on
// the same packet sequence. Placement reads only the policy, the
// placement set keyed by sequence number, the flow key and the
// RoundRobin cursor, never a result still in flight.
//
// Threading contract: submit()/flush()/process_packets()/install*() and
// every accessor must be called from ONE external thread. Accessors
// observe engine state only when the engine is quiescent (after flush()
// or a synchronous process_packets() call).
#ifndef SDMMON_NP_PARALLEL_MPSOC_HPP
#define SDMMON_NP_PARALLEL_MPSOC_HPP

#include <atomic>
#include <memory>
#include <mutex>
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
  /// In-flight window: packets placed but not yet folded. Larger windows
  /// keep more cores busy. Clamped to [1, kPlacementLag], so placement
  /// never runs ahead of a quarantine that could change it. Results are
  /// identical for every window size. Each shard's ring holds batch_size
  /// items (rounded up to a power of two), so enqueueing never waits.
  std::size_t batch_size = kPlacementLag;
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

  /// Asynchronous ingest: place and enqueue one packet. Blocks only when
  /// the in-flight window (batch_size) is full of unfolded packets.
  /// Results are folded into stats only.
  void submit(util::Bytes packet, std::uint32_t flow_key = 0);

  /// Block until every submitted packet has been executed and folded.
  void flush();

  /// Synchronous convenience path: process `packets` and return
  /// per-packet results in input order.
  std::vector<PacketResult> process_packets(
      const std::vector<Packet>& packets);

  /// Always 0: the engine never rolls back. Kept because perfbench
  /// reports it as its `epochs` count.
  std::uint64_t speculation_rollbacks() const { return 0; }

 private:
  /// Installs, release and enable_obs() drain in-flight packets first,
  /// so they land on a packet boundary.
  void quiesce() override { flush(); }

  enum class SlotState : std::uint8_t {
    Free,      // unplanned (or folded and recycled)
    Planned,   // placed, waiting in a shard ring
    Executed,  // run (or dropped unrun), waiting to fold in order
  };

  /// One reorder-buffer entry. The planner writes the plan fields and
  /// publishes the slot through the shard ring; the executor fills `ex`
  /// and release-stores `state`; the folder (any thread holding
  /// fold_mutex_) consumes it in sequence order.
  struct Slot {
    Packet owned;                    // async submit keeps bytes alive here
    const Packet* item = nullptr;    // &owned, or the caller's storage
    PacketResult* result_out = nullptr;  // non-null for process_packets
    std::size_t core = kUndispatched;    // placement
    Execution ex;
    std::atomic<SlotState> state{SlotState::Free};
  };

  void worker_main(std::size_t worker);
  void plan_one(const Packet* borrowed, Packet&& owned, bool owns,
                PacketResult* result_out);
  /// Fold completed slots in sequence order (takes fold_mutex_ if free).
  void try_fold();

  std::size_t shard_of(std::size_t core) const {
    return core % rings_.size();
  }

  // ---- immutable after construction ----
  std::size_t rob_size_ = 1;  // in-flight bound == batch_size

  // ---- planner state (the external thread) ----
  std::atomic<std::uint64_t> plan_next_{0};

  // ---- fold state (fold_mutex_) ----
  std::mutex fold_mutex_;
  std::atomic<std::uint64_t> fold_next_{0};

  // ---- reorder buffer + shards ----
  std::unique_ptr<Slot[]> rob_;
  // Producer: the planner. Consumer: the shard's worker.
  std::vector<std::unique_ptr<util::SpscRing<std::uint64_t>>> rings_;
  std::vector<std::thread> workers_;
  std::atomic<bool> stop_{false};
};

}  // namespace sdmmon::np

#endif  // SDMMON_NP_PARALLEL_MPSOC_HPP
