// Multicore network processor (MPSoC): a set of monitored cores behind a
// dispatcher, the system the paper's "Dynamics" challenge is about --
// multiple cores, each independently (re)programmable at runtime with a
// binary + monitoring graph + hash parameter.
//
// Beyond dispatch, the MPSoC owns the recovery pipeline: every packet
// outcome feeds a RecoveryController, and placement routes around cores
// that are quarantined or simply not yet installed, so a
// partially-degraded MPSoC keeps forwarding on its remaining cores
// (graceful degradation) instead of black-holing a share of the traffic.
//
// Recovery stays local to one core, as in the paper (Section 2.1): a
// quarantine decided by packet `i` stops that core at once, and takes it
// out of placement from packet `i + kPlacementLag` on. Packets placed on
// it in between are dropped unrun and counted as undispatched -- what a
// hardware dispatcher flushing the core's input queue would do. Nothing
// else rewinds.
#ifndef SDMMON_NP_MPSOC_HPP
#define SDMMON_NP_MPSOC_HPP

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "np/compiled_program.hpp"
#include "np/dispatch.hpp"
#include "np/monitored_core.hpp"
#include "np/recovery.hpp"

namespace sdmmon::np {

/// Packets between a quarantine decision and the placement change it
/// causes, in both engines: a quarantine decided by packet `i` removes
/// its core from placement from packet `i + kPlacementLag` on. Sequence
/// numbers count every packet handed to the engine, undispatched ones
/// included. The parallel engine keeps at most this many packets
/// between placement and its in-order fold (ParallelConfig::batch_size
/// is clamped to it), so every exclusion a placement depends on is
/// already known when the packet is placed.
inline constexpr std::size_t kPlacementLag = 256;

/// The core configuration captured at the last successful install, used
/// by RecoveryPolicy::ReinstallLastGood to re-image a misbehaving core.
/// Holds the shared compiled artifacts, not copies: a last-good
/// re-image swaps pointers back into the core instead of deep-copying,
/// recompiling the graph, or re-decoding the text, which is what makes
/// recovery latency independent of program and graph size. The install
/// checked it, so the re-image commits it unchecked. Shared by the
/// serial and parallel engines.
struct LastGoodConfig {
  isa::Program program;
  InstallArtifacts artifacts;
  std::unique_ptr<monitor::InstructionHash> hash;
};

/// Aggregate counters plus MPSoC-level health. Inherits the summed
/// per-core counters so existing readers of `.forwarded` etc. keep
/// working; the health fields describe the dispatcher's current view.
struct MpsocStats : CoreStats {
  std::size_t total_cores = 0;
  std::size_t healthy_cores = 0;       // healthy and installed
  std::size_t quarantined_cores = 0;
  std::size_t uninstalled_cores = 0;   // healthy but nothing installed yet
  /// Packets dropped unrun: no core was placeable, or placement sent the
  /// packet to a core quarantined within the last kPlacementLag packets.
  std::uint64_t undispatched = 0;
  std::uint64_t violations = 0;        // attacks + counted traps
  std::uint64_t quarantine_events = 0;
  std::uint64_t reinstalls = 0;        // last-good re-images performed
};

/// Cached observability handles for one execution engine (serial or
/// parallel): engine counters, recovery telemetry, the event journal,
/// and one CoreObs per core. Created by enable_obs(); owned by the
/// engine so the MonitoredCores' cached pointers stay valid. The
/// parallel-only fields are null on the serial engine.
struct EngineObs {
  obs::Registry* registry = nullptr;
  obs::EventJournal* journal = nullptr;
  obs::Counter* dispatched = nullptr;    // packets committed to a core
  obs::Counter* undispatched = nullptr;  // dropped unrun (see MpsocStats)
  obs::Counter* installs = nullptr;
  obs::Counter* quarantines = nullptr;
  obs::Counter* reinstalls = nullptr;
  obs::Gauge* healthy_cores = nullptr;
  obs::Histogram* window_occupancy = nullptr;  // violations at decision
  obs::Histogram* reinstall_ns = nullptr;      // wall-clock (cold path)
  /// The installed graph's compile time (CompiledGraph::compile_ns(),
  /// recorded on every install, fast switches included) and
  /// compiled-artifact size -- the pipeline stage the compiled-monitor
  /// refactor moved out of the per-instruction hot path.
  obs::Histogram* graph_compile_ns = nullptr;  // wall-clock (install path)
  obs::Gauge* compiled_nodes = nullptr;
  obs::Gauge* compiled_edges = nullptr;
  obs::Gauge* compiled_bytes = nullptr;
  /// The installed program's predecode time
  /// (CompiledProgram::compile_ns(), recorded like graph_compile_ns) and
  /// predecoded-artifact size -- the pipeline stage the compiled-program
  /// refactor moved out of the per-instruction hot path (decode + Merkle
  /// hash, paid once).
  obs::Histogram* predecode_ns = nullptr;  // wall-clock (install path)
  obs::Gauge* compiled_ops = nullptr;
  obs::Gauge* compiled_blocks = nullptr;
  obs::Gauge* compiled_program_bytes = nullptr;
  /// Install-time superblock-formation cost (the slice of predecode_ns
  /// spent forming superblocks), superblock coverage of the installed
  /// artifact, and the running side-exit rate of superblock dispatches
  /// (per mille, updated on the deterministic commit path).
  obs::Histogram* trace_build_ns = nullptr;  // wall-clock (install path)
  obs::Gauge* trace_count = nullptr;
  obs::Gauge* trace_ops = nullptr;
  obs::Gauge* trace_side_exit_rate = nullptr;  // per mille
  /// Size of the installed MonitorSummary (bytes; a constant per
  /// superblock op, so it carries nothing about the hash parameter).
  obs::Gauge* monitor_summary_bytes = nullptr;
  std::uint64_t trace_dispatches_total = 0;
  std::uint64_t trace_side_exits_total = 0;
  // Parallel engine only:
  obs::Histogram* shard_queue_depth = nullptr;  // ring depth at enqueue
  std::uint32_t device_id = 0;
  std::vector<CoreObs> cores;

  static std::unique_ptr<EngineObs> create(obs::Registry& registry,
                                           std::size_t num_cores,
                                           std::uint32_t device_id,
                                           bool parallel);
  /// Journal + histogram updates for one committed outcome, in serial
  /// commit order (deterministic across engines). `cycle` is the number
  /// of packets the engine has committed so far.
  void record_outcome(std::uint64_t cycle, std::size_t core,
                      const PacketResult& result,
                      std::size_t window_violations);
  /// Record the installed graph's compile time and size after an install.
  void note_compiled(const monitor::CompiledGraph& graph);
  /// Record the installed program's compile times and size after an
  /// install.
  void note_predecoded(const CompiledProgram& code);
};

/// Everything of an MPSoC but the packet loop, shared by the serial
/// `Mpsoc` and the `ParallelMpsoc`: the monitored cores, their last-good
/// configurations, the placement set, the RecoveryController, the
/// observability handles, and the undispatched/reinstall tallies.
/// Transactional install, placement, one packet's core-local run and its
/// in-order commit, last-good re-image, release, and the aggregate view
/// are written here once, so the two engines cannot drift on policy.
/// Each administrative operation first calls quiesce() -- a no-op on the
/// serial engine, flush() on the parallel one -- so it always lands on a
/// packet boundary and applies at once.
class CoreArray {
 public:
  virtual ~CoreArray();
  CoreArray(const CoreArray&) = delete;
  CoreArray& operator=(const CoreArray&) = delete;

  std::size_t num_cores() const { return cores_.size(); }
  MonitoredCore& core(std::size_t index) { return cores_[index]; }
  const MonitoredCore& core(std::size_t index) const { return cores_[index]; }
  DispatchPolicy policy() const { return policy_; }

  /// Install the same configuration on every core (cloning the hash unit).
  /// Transactional: the install builder (validate_install_config) builds
  /// and checks the configuration once, so a bad program/graph throws
  /// *before* any core or last-good slot is touched and the previous
  /// configuration keeps running everywhere; then it is committed to
  /// every core, which cannot fail. The wire-format graph is compiled,
  /// the text predecoded and the monitor summary built exactly once; all
  /// cores (and the LastGoodConfig recovery snapshots) share the
  /// immutable artifacts, which are returned for the caller to keep.
  InstallArtifacts install_all(const isa::Program& program,
                               monitor::MonitoringGraph graph,
                               const monitor::InstructionHash& hash);

  /// Install already-compiled artifacts on every core -- the fast switch
  /// path for applications authenticated and compiled earlier (device
  /// application store): no graph copy, no recompilation, no re-decode.
  /// A null summary is built once here, from the pair, for every core.
  void install_all(const isa::Program& program, InstallArtifacts artifacts,
                   const monitor::InstructionHash& hash);

  /// Install already-compiled artifacts on one core only (heterogeneous
  /// workload mapping, per-core fast switch). Checked first, like
  /// install_all.
  void install(std::size_t core_index, const isa::Program& program,
               InstallArtifacts artifacts,
               std::unique_ptr<monitor::InstructionHash> hash);

  /// Aggregate counters + health over all cores (on the parallel engine:
  /// quiescent only).
  MpsocStats aggregate_stats() const;

  const RecoveryController& recovery() const { return recovery_; }
  CoreHealth core_health(std::size_t index) const {
    return recovery_.health(index);
  }
  /// Operator releases a quarantined core back into service. It rejoins
  /// placement at once, and an exclusion its quarantine scheduled but
  /// that is not yet due is cancelled.
  void release_core(std::size_t index);

  /// Attach the observability layer: register this engine's metrics in
  /// `registry` and start journaling recovery events. `device_id` tags
  /// journal events when several engines share one registry;
  /// `sample_period` thins per-core histograms (counters stay exact).
  /// The parallel engine also registers its shard-queue histogram. Until
  /// it is called, each instrumentation site costs one null check.
  void enable_obs(obs::Registry& registry, std::uint32_t device_id = 0,
                  std::uint32_t sample_period = 1);

 protected:
  static constexpr std::size_t kUndispatched =
      static_cast<std::size_t>(-1);

  /// One packet's core-local run: everything its in-order commit needs.
  struct Execution {
    std::size_t core = kUndispatched;  // kUndispatched: dropped unrun
    PacketResult result;
    RecoveryAction action = RecoveryAction::None;
    std::size_t window_violations = 0;  // right after on_outcome
    /// The re-image's wall-clock ns when the run re-imaged its core.
    std::optional<std::uint64_t> reimage_ns;
  };

  /// `parallel` selects the parallel engine's extra metrics in
  /// enable_obs().
  CoreArray(std::size_t num_cores, DispatchPolicy policy,
            RecoveryConfig recovery, bool parallel);

  /// Bring the engine to a packet boundary before core state changes.
  virtual void quiesce() {}

  /// Place packet `seq` (called once per packet, in sequence order):
  /// apply every exclusion due by `seq`, then pick a core of the
  /// placement set, or return kUndispatched when it is empty.
  std::size_t place(std::uint64_t seq, std::uint32_t flow_key);
  /// Core-local half: run `packet` on its placed `core`, report the
  /// outcome, and re-image the core on RecoveryAction::Reinstall. Touches
  /// core `core` only, so the parallel engine runs it on the worker that
  /// owns the core. A core quarantined by an older packet runs nothing,
  /// and `ex` stays an undispatched drop.
  void execute(std::size_t core, std::span<const std::uint8_t> packet,
               Execution& ex);
  /// Engine-wide half, in sequence order: count the packet (as
  /// undispatched when it did not run), journal its outcome, count a
  /// re-image, and schedule a quarantine's placement exclusion.
  void commit(std::uint64_t seq, const Execution& ex);
  /// The attached observability handles (null until enable_obs()). Safe
  /// to read from worker threads: enable_obs() publishes with release.
  EngineObs* engine_obs() const {
    return obs_.load(std::memory_order_acquire);
  }

 private:
  static constexpr std::uint64_t kNever = ~std::uint64_t{0};

  /// Commit checked artifacts to every core and its last-good slot.
  void commit_all(const isa::Program& program,
                  const InstallArtifacts& artifacts,
                  const monitor::InstructionHash& hash);
  void note_install(std::uint32_t core, const isa::Program& program,
                    const InstallArtifacts& artifacts);
  /// Re-image core `index` from its last-good configuration and restart
  /// its recovery window. Returns the wall-clock ns, or nullopt --
  /// having changed nothing -- when the core has no last-good
  /// configuration.
  std::optional<std::uint64_t> reimage_core(std::size_t index);
  void note_quarantine(std::size_t index, std::uint64_t seq,
                       std::size_t window_violations);
  /// Move every exclusion due by `seq` into excluded_.
  void apply_exclusions(std::uint64_t seq);
  /// Placeable = installed and not excluded. Rebuilt on transitions only.
  void rebuild_placement();

  std::vector<MonitoredCore> cores_;
  DispatchPolicy policy_;
  RecoveryController recovery_;
  std::vector<std::optional<LastGoodConfig>> last_good_;
  bool parallel_;

  // Placement, read and written only by the thread that places packets
  // (and by administrative transitions, which quiesce first).
  std::vector<std::size_t> placement_;  // ascending core indices
  std::vector<bool> excluded_;          // out of placement until released
  std::size_t rr_next_ = 0;             // RoundRobin cursor

  // Exclusions scheduled by committed quarantines and not yet due, as
  // (due sequence number, core) in due order. Commit appends, placement
  // consumes; next_exclusion_ (the first due, or kNever) lets placement
  // skip the lock until one is due.
  std::mutex exclusions_mutex_;
  std::vector<std::pair<std::uint64_t, std::size_t>> exclusions_;
  std::atomic<std::uint64_t> next_exclusion_{kNever};

  // Commit-order tallies.
  std::uint64_t undispatched_ = 0;
  std::uint64_t reinstalls_ = 0;
  std::size_t quarantined_ = 0;  // feeds the healthy-cores gauge
  /// Owned; replaced only by enable_obs(), after quiesce().
  std::atomic<EngineObs*> obs_{nullptr};
};

/// The serial engine: one packet at a time on the caller's thread. It is
/// the oracle the parallel engine is checked against.
class Mpsoc : public CoreArray {
 public:
  explicit Mpsoc(std::size_t num_cores,
                 DispatchPolicy policy = DispatchPolicy::RoundRobin,
                 RecoveryConfig recovery = {});

  /// Place a packet on a core per the policy and run it; `flow_key`
  /// feeds the FlowHash policy (ignored for RoundRobin). When no core is
  /// placeable, or placement picks a core that a packet less than
  /// kPlacementLag packets ago quarantined, the packet is dropped unrun
  /// (and counted in `undispatched`).
  PacketResult process_packet(std::span<const std::uint8_t> packet,
                              std::uint32_t flow_key = 0);

 private:
  std::uint64_t next_seq_ = 0;
};

}  // namespace sdmmon::np

#endif  // SDMMON_NP_MPSOC_HPP
