// A network-processor core wired to its hardware monitor (paper Figure 1):
// every retired instruction word is reported through the parameterizable
// hash unit to the monitor; a mismatch triggers the recovery path -- the
// packet is dropped and the core's processing stack reset before the next
// packet, exactly the paper's IP-network recovery argument (Section 2.1).
#ifndef SDMMON_NP_MONITORED_CORE_HPP
#define SDMMON_NP_MONITORED_CORE_HPP

#include <memory>
#include <optional>

#include "monitor/monitor.hpp"
#include "np/core.hpp"
#include "np/monitor_summary.hpp"
#include "obs/obs.hpp"

namespace sdmmon::np {

enum class PacketOutcome : std::uint8_t {
  Forwarded,       // handler committed an output packet
  Dropped,         // handler finished without output
  AttackDetected,  // monitor mismatch; core reset, packet dropped
  Trapped,         // core trap (fault/overflow/watchdog); packet dropped
};

const char* packet_outcome_name(PacketOutcome outcome);

struct PacketResult {
  PacketOutcome outcome = PacketOutcome::Dropped;
  util::Bytes output;               // valid when outcome == Forwarded
  std::uint32_t output_port = 0;    // egress port chosen by the app
  std::uint64_t instructions = 0;   // instructions retired for this packet
  Trap trap = Trap::None;           // valid when outcome == Trapped
  /// Peak NFA tracked-state width while this packet executed. Captured
  /// at execute time so the observability layer can histogram it on the
  /// deterministic commit path.
  std::uint32_t monitor_width = 0;
  /// Compiled-tier telemetry: superblock dispatches this packet took,
  /// and how many of them ended in a side exit (branch resolved off the
  /// predicted path). Feeds np.engine.trace_side_exit_rate on the
  /// deterministic commit path.
  std::uint32_t trace_dispatches = 0;
  std::uint32_t trace_side_exits = 0;
  /// Superblock dispatches whose monitor walk joined the install-time
  /// canonical walk (MonitorSummary), so their run was settled in O(1).
  std::uint32_t summary_joins = 0;
};

/// The immutable install-time artifacts derived from one signed
/// (binary, graph, hash-parameter) package: the compiled monitoring
/// graph, the predecoded program, and the summary of the monitor's walk
/// through the program's superblocks, built from exactly that pair.
/// Built exactly once per install, by the wire overload of
/// validate_install_config, and shared as pointers through every layer
/// (cores, recovery snapshots, the device application store).
/// MonitoredCore::install needs all three; CoreArray's install paths
/// also accept a null summary and build it once for every core.
struct InstallArtifacts {
  std::shared_ptr<const monitor::CompiledGraph> graph;
  std::shared_ptr<const CompiledProgram> code;
  std::shared_ptr<const MonitorSummary> summary = nullptr;
};

/// The install builder: compiles the wire-format graph (the compiler
/// rejects malformed graphs and ones the subset construction cannot
/// close), predecodes the text under `hash`, summarises the monitor's
/// walk through its superblocks, and runs the check below on the result.
/// Throws where either does; returns all three artifacts, so every
/// install path builds them exactly once and shares them everywhere.
InstallArtifacts validate_install_config(const isa::Program& program,
                                         monitor::MonitoringGraph graph,
                                         const monitor::InstructionHash& hash);

/// The install check; needs no core. Throws std::invalid_argument when
/// an artifact is null, when the summary was not built from exactly
/// this (graph, code) pair, when sampled precomputed hashes were not
/// computed under `hash`, or when the predecoded program is not
/// `program`'s; throws std::out_of_range when the program does not fit
/// the memory map (Core::check_load). Cores are identical, so an install
/// that passes it cannot fail on any core.
void validate_install_config(const isa::Program& program,
                             const InstallArtifacts& artifacts,
                             const monitor::InstructionHash& hash);

/// Cumulative per-core counters.
struct CoreStats {
  std::uint64_t packets = 0;
  std::uint64_t forwarded = 0;
  std::uint64_t dropped = 0;
  std::uint64_t attacks_detected = 0;
  std::uint64_t traps = 0;
  std::uint64_t instructions = 0;
};

/// Cached observability handles for one core (metric names in
/// obs/names.hpp, per-core ".<i>" suffix). Created by the owning engine
/// (or a tool) via CoreObs::create; the MonitoredCore keeps a non-owning
/// pointer and updates the handles on its commit path only, so counters
/// and histograms stay exact and deterministic even when the parallel
/// engine executes ahead of the fold. Serialized-writer: commits happen under
/// the engine's fold lock (or on the serial engine's only thread), so
/// `tick` needs no synchronization of its own.
struct CoreObs {
  obs::Counter* packets = nullptr;
  obs::Counter* forwarded = nullptr;
  obs::Counter* dropped = nullptr;
  obs::Counter* attacks = nullptr;
  obs::Counter* traps = nullptr;
  obs::Counter* instructions = nullptr;
  obs::Histogram* instr_per_packet = nullptr;
  obs::Histogram* ndfa_width = nullptr;
  std::uint32_t core_id = 0;
  /// Record histograms every Nth committed packet (counters are never
  /// sampled). Deterministic: the tick advances with committed packets.
  std::uint32_t sample_period = 1;
  std::uint64_t tick = 0;

  static CoreObs create(obs::Registry& registry, std::uint32_t core_id,
                        std::uint32_t sample_period = 1);
  void on_commit(const PacketResult& result);
};

class MonitoredCore {
 public:
  /// Construct with monitoring disabled (no program installed yet).
  MonitoredCore();

  /// Install a (binary, install artifacts, hash) configuration -- the
  /// step SDMMon authenticates. The artifacts are shared, not copied:
  /// every core of an MPSoC holds the same pointers, and a quarantine
  /// re-image from LastGoodConfig is pointer swaps. The hash unit's
  /// parameter is part of `hash`; the program artifact carries that
  /// hash's precomputed per-instruction values, so the monitor check
  /// becomes on_hashed(byte load), and the summary settles each
  /// superblock dispatch in O(1). Runs validate_install_config first:
  /// an install either throws with the core untouched or cannot fail.
  void install(const isa::Program& program, const InstallArtifacts& artifacts,
               std::unique_ptr<monitor::InstructionHash> hash);

  /// Build the artifacts from a wire-format graph, then install.
  void install(const isa::Program& program, monitor::MonitoringGraph graph,
               std::unique_ptr<monitor::InstructionHash> hash);

  bool installed() const { return monitor_ != nullptr; }

  /// Process one packet to completion (reset -> deliver -> run).
  /// Equivalent to execute_packet() followed by commit_result().
  PacketResult process_packet(std::span<const std::uint8_t> packet);

  /// Run one packet WITHOUT touching the cumulative CoreStats. All memory
  /// and monitor effects (soft reset, data-RAM writes, attack reset)
  /// happen exactly as in process_packet; only the counters are deferred.
  /// The parallel engine executes on worker threads and folds results in
  /// serial packet order, which keeps CoreStats and the per-core metrics
  /// bit-identical to the serial engine. Requires installed().
  PacketResult execute_packet(std::span<const std::uint8_t> packet);

  /// Fold one execute_packet() result into the cumulative CoreStats,
  /// updating exactly the counters process_packet would have.
  void commit_result(const PacketResult& result);

  const CoreStats& stats() const { return stats_; }
  /// Read-only: a program reaches the core only through install(), so the
  /// installed summary always indexes the running program's lane.
  const Core& core() const { return core_; }
  /// Core::set_tier (the differential oracles run an Interpret twin).
  void set_tier(Tier tier) { core_.set_tier(tier); }
  /// Core::set_watchdog_budget.
  void set_watchdog_budget(std::uint64_t cycles) {
    core_.set_watchdog_budget(cycles);
  }
  const monitor::HardwareMonitor& monitor() const { return *monitor_; }
  /// The shared summary artifact (nullptr until installed).
  const std::shared_ptr<const MonitorSummary>& summary() const {
    return summary_;
  }

  /// Attach (or detach with nullptr) cached metric handles; `obs` must
  /// outlive the core or the next attach. Detached, the commit path pays
  /// one null check.
  void attach_obs(CoreObs* obs) { obs_ = obs; }

 private:
  struct MonitorFeed;
  PacketResult run_packet(std::span<const std::uint8_t> packet);
  /// install() after its check: cannot fail. CoreArray checks a
  /// configuration once, then commits it to every core.
  friend class CoreArray;
  void commit_install(const isa::Program& program,
                      const InstallArtifacts& artifacts,
                      std::unique_ptr<monitor::InstructionHash> hash);

  Core core_;
  std::unique_ptr<monitor::HardwareMonitor> monitor_;
  std::shared_ptr<const MonitorSummary> summary_;
  CoreStats stats_;
  CoreObs* obs_ = nullptr;
};

}  // namespace sdmmon::np

#endif  // SDMMON_NP_MONITORED_CORE_HPP
