// Multicore network processor (MPSoC): a set of monitored cores behind a
// dispatcher, the system the paper's "Dynamics" challenge is about --
// multiple cores, each independently (re)programmable at runtime with a
// binary + monitoring graph + hash parameter.
//
// Beyond dispatch, the MPSoC owns the recovery pipeline: every packet
// outcome feeds a RecoveryController, and the dispatcher routes around
// cores that are quarantined, offline, or simply not yet installed, so a
// partially-degraded MPSoC keeps forwarding on its remaining cores
// (graceful degradation) instead of black-holing a share of the traffic.
#ifndef SDMMON_NP_MPSOC_HPP
#define SDMMON_NP_MPSOC_HPP

#include <atomic>
#include <memory>
#include <optional>
#include <vector>

#include "np/compiled_program.hpp"
#include "np/dispatch.hpp"
#include "np/monitored_core.hpp"
#include "np/recovery.hpp"

namespace sdmmon::np {

/// The pair of immutable install-time artifacts derived from one signed
/// (binary, graph, hash-parameter) package: the compiled monitoring
/// graph and the predecoded program. Compiled exactly once per install
/// and shared as pointers through every layer (cores, recovery
/// snapshots, the device application store). Both must be non-null.
struct InstallArtifacts {
  std::shared_ptr<const monitor::CompiledGraph> graph;
  std::shared_ptr<const CompiledProgram> code;
};

/// The core configuration captured at the last successful install, used
/// by RecoveryPolicy::ReinstallLastGood to re-image a misbehaving core.
/// Holds the shared compiled artifacts, not copies: a quarantine
/// re-image swaps pointers back into the core instead of deep-copying,
/// recompiling the graph, or re-decoding the text, which is what makes
/// recovery latency independent of program and graph size. Shared by the
/// serial and parallel engines.
struct LastGoodConfig {
  isa::Program program;
  InstallArtifacts artifacts;
  std::unique_ptr<monitor::InstructionHash> hash;
};

/// Throws if (program, graph, hash) cannot be installed; leaves all real
/// cores untouched. Compiles the wire-format graph (the compiler rejects
/// malformed graphs: out-of-range entry/successors, hashes wider than
/// the declared width), predecodes the text under `hash`, and stages the
/// binary on a scratch core (load_program throws when it does not fit
/// the memory map). Cores are identical, so success here guarantees
/// success on every real core (commit cannot fail). Returns both
/// compiled artifacts so install paths compile exactly once and share
/// the results everywhere.
InstallArtifacts validate_install_config(const isa::Program& program,
                                         const monitor::MonitoringGraph& graph,
                                         const monitor::InstructionHash& hash);

/// Same staging checks against already-compiled artifacts (fast switches
/// and re-installs of authenticated applications). Also spot-checks that
/// the predecoded hashes match `hash` (see MonitoredCore::install).
/// Throws std::invalid_argument when either artifact is null.
void validate_install_config(const isa::Program& program,
                             const InstallArtifacts& artifacts,
                             const monitor::InstructionHash& hash);

/// Aggregate counters plus MPSoC-level health. Inherits the summed
/// per-core counters so existing readers of `.forwarded` etc. keep
/// working; the health fields describe the dispatcher's current view.
struct MpsocStats : CoreStats {
  std::size_t total_cores = 0;
  std::size_t healthy_cores = 0;       // dispatchable (and installed)
  std::size_t quarantined_cores = 0;
  std::size_t offline_cores = 0;
  std::size_t uninstalled_cores = 0;   // healthy but nothing installed yet
  /// Packets that could not be dispatched because no core was available.
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
  obs::Counter* undispatched = nullptr;  // dropped: no dispatchable core
  obs::Counter* installs = nullptr;
  obs::Counter* quarantines = nullptr;
  obs::Counter* reinstalls = nullptr;
  obs::Gauge* healthy_cores = nullptr;
  obs::Histogram* window_occupancy = nullptr;  // violations at decision
  obs::Histogram* reinstall_ns = nullptr;      // wall-clock (cold path)
  /// Install-time graph-compilation cost and compiled-artifact size --
  /// the pipeline stage the compiled-monitor refactor moved out of the
  /// per-instruction hot path.
  obs::Histogram* graph_compile_ns = nullptr;  // wall-clock (install path)
  obs::Gauge* compiled_nodes = nullptr;
  obs::Gauge* compiled_edges = nullptr;
  obs::Gauge* compiled_bytes = nullptr;
  /// Install-time text predecoding cost and predecoded-artifact size --
  /// the pipeline stage the compiled-program refactor moved out of the
  /// per-instruction hot path (decode + Merkle hash, paid once).
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
  std::uint64_t trace_dispatches_total = 0;
  std::uint64_t trace_side_exits_total = 0;
  // Parallel engine only (sharded engine internals):
  obs::Counter* shard_steals = nullptr;     // items popped off-shard
  obs::Counter* shard_epochs = nullptr;     // recovery epochs coordinated
  obs::Histogram* shard_queue_depth = nullptr;  // deque depth at enqueue
  obs::Counter* rollbacks = nullptr;
  obs::Counter* replayed_packets = nullptr;
  obs::Counter* rollback_bytes = nullptr;   // dirty-page bytes restored
  obs::Histogram* snapshot_dirty_pages = nullptr;  // pages per speculation
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
                      const PacketResult& result, RecoveryAction action,
                      std::size_t window_violations,
                      const RecoveryController& recovery);
  /// Update the compiled-artifact size gauges after an install.
  void note_compiled(const monitor::CompiledGraph& graph);
  /// Update the predecoded-program size gauges after an install.
  void note_predecoded(const CompiledProgram& code);
};

/// Everything of an MPSoC that is not the packet path, shared by the
/// serial `Mpsoc` and the `ParallelMpsoc`: the monitored cores, their
/// last-good configurations, the dispatch policy, the RecoveryController,
/// the observability handles, and the undispatched/reinstall tallies.
/// Transactional install, last-good re-image, administrative drain and
/// release, and the aggregate view are written here once, so the two
/// engines cannot drift on policy. Each mutating operation first calls
/// quiesce() -- a no-op on the serial engine, flush() on the parallel one
/// -- so it always lands on a packet boundary. Of this class, the packet
/// paths use only active_cores(), engine_obs(), note_undispatched() and
/// reinstall_core() (on a recovery action); none is virtual.
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
  /// Transactional: the configuration is validated on a scratch core
  /// first, so a bad program/graph throws *before* any real core is
  /// touched and the previous configuration keeps running everywhere.
  /// The wire-format graph is compiled and the text predecoded exactly
  /// once; all cores (and the LastGoodConfig recovery snapshots) share
  /// the immutable artifacts.
  void install_all(const isa::Program& program,
                   const monitor::MonitoringGraph& graph,
                   const monitor::InstructionHash& hash);

  /// Install already-compiled artifacts on every core -- the fast switch
  /// path for applications authenticated and compiled earlier (device
  /// application store): no graph copy, no recompilation, no re-decode.
  void install_all(const isa::Program& program, InstallArtifacts artifacts,
                   const monitor::InstructionHash& hash);

  /// Install on one core only (heterogeneous workload mapping). Validated
  /// on a scratch core first, like install_all.
  void install(std::size_t core_index, const isa::Program& program,
               monitor::MonitoringGraph graph,
               std::unique_ptr<monitor::InstructionHash> hash);

  /// Per-core install of already-compiled artifacts (per-core fast
  /// switch).
  void install(std::size_t core_index, const isa::Program& program,
               InstallArtifacts artifacts,
               std::unique_ptr<monitor::InstructionHash> hash);

  /// Aggregate counters + health over all cores (on the parallel engine:
  /// quiescent only).
  MpsocStats aggregate_stats() const;

  RecoveryController& recovery() { return recovery_; }
  const RecoveryController& recovery() const { return recovery_; }
  CoreHealth core_health(std::size_t index) const {
    return recovery_.health(index);
  }
  /// Administrative drain / restore of one core.
  void set_core_offline(std::size_t index, bool offline);
  /// Operator releases a quarantined core back into the dispatch set.
  void release_core(std::size_t index);

  /// True if `index` would currently receive traffic.
  bool core_dispatchable(std::size_t index) const {
    return recovery_.dispatchable(index) && cores_[index].installed();
  }

  /// Attach the observability layer: register this engine's metrics in
  /// `registry` and start journaling recovery events. `device_id` tags
  /// journal events when several engines share one registry;
  /// `sample_period` thins per-core histograms (counters stay exact).
  /// The parallel engine also registers its shard, epoch and rollback
  /// metrics. No-op (and near-zero packet-path cost) when SDMMON_OBS=OFF.
  void enable_obs(obs::Registry& registry, std::uint32_t device_id = 0,
                  std::uint32_t sample_period = 1);

 protected:
  /// `parallel` selects the parallel engine's extra metrics in
  /// enable_obs().
  CoreArray(std::size_t num_cores, DispatchPolicy policy,
            RecoveryConfig recovery, bool parallel);

  /// Bring the engine to a packet boundary before core state changes.
  virtual void quiesce() {}

  /// Dispatchable core indices in ascending order (empty = degraded out).
  std::vector<std::size_t> active_cores() const;
  /// Re-image core `index` from its last-good configuration
  /// (RecoveryAction::Reinstall); no-op when it has none.
  void reinstall_core(std::size_t index);
  /// Count one packet dropped because no core was dispatchable.
  void note_undispatched() {
    ++undispatched_;
#if SDMMON_OBS_ENABLED
    if (EngineObs* obs = engine_obs()) obs->undispatched->add(1);
#endif
  }
  /// The attached observability handles (null until enable_obs()). Safe
  /// to read from worker threads: enable_obs() publishes with release.
  EngineObs* engine_obs() const {
    return obs_.load(std::memory_order_acquire);
  }

  std::vector<MonitoredCore> cores_;
  DispatchPolicy policy_;
  RecoveryController recovery_;

 private:
  /// Compile the wire-format graph and predecode the text, each under its
  /// install-path obs timer.
  InstallArtifacts compile_artifacts(const isa::Program& program,
                                     monitor::MonitoringGraph graph,
                                     const monitor::InstructionHash& hash);
  void note_install(std::uint32_t core, const isa::Program& program,
                    const InstallArtifacts& artifacts);
  void note_admin_transition(std::size_t index, obs::EventKind kind);

  std::vector<std::optional<LastGoodConfig>> last_good_;
  bool parallel_;
  std::uint64_t undispatched_ = 0;
  std::uint64_t reinstalls_ = 0;
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

  /// Dispatch a packet to a core per the policy; `flow_key` feeds the
  /// FlowHash policy (ignored for RoundRobin). Quarantined, offline, and
  /// uninstalled cores are routed around; when no core is dispatchable
  /// the packet is dropped (and counted in `undispatched`).
  PacketResult process_packet(std::span<const std::uint8_t> packet,
                              std::uint32_t flow_key = 0);

 private:
  std::size_t pick_core(const std::vector<std::size_t>& active,
                        std::uint32_t flow_key);

  std::size_t next_ = 0;
};

}  // namespace sdmmon::np

#endif  // SDMMON_NP_MPSOC_HPP
