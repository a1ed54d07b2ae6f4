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
  /// deterministic commit path (exact even across speculative rollback).
  std::uint32_t monitor_width = 0;
  /// Compiled-tier telemetry: superblock dispatches this packet took,
  /// and how many of them ended in a side exit (branch resolved off the
  /// predicted path). Feeds np.engine.trace_side_exit_rate on the
  /// deterministic commit path.
  std::uint32_t trace_dispatches = 0;
  std::uint32_t trace_side_exits = 0;
};

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
/// engine executes speculatively. Serialized-writer: commits happen under
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

  /// Preferred: install a (binary, compiled graph, predecoded program,
  /// hash) configuration -- the step SDMMon authenticates. Both artifacts
  /// are shared, not copied: every core of an MPSoC holds the same
  /// pointers, and a quarantine re-image from LastGoodConfig is a pair of
  /// pointer swaps. The hash unit's parameter is part of `hash`; `code`
  /// carries that hash's precomputed per-instruction values, so the
  /// monitor check becomes on_hashed(byte load). `code` may be null
  /// (word-at-a-time interpretation, no precomputed hashes).
  void install(const isa::Program& program,
               std::shared_ptr<const monitor::CompiledGraph> graph,
               std::shared_ptr<const CompiledProgram> code,
               std::unique_ptr<monitor::InstructionHash> hash);

  /// Convenience: predecode the program privately, then install.
  void install(const isa::Program& program,
               std::shared_ptr<const monitor::CompiledGraph> graph,
               std::unique_ptr<monitor::InstructionHash> hash);

  /// Convenience: compile a wire-format graph privately, then install.
  void install(const isa::Program& program, monitor::MonitoringGraph graph,
               std::unique_ptr<monitor::InstructionHash> hash);

  bool installed() const { return monitor_ != nullptr; }

  /// Process one packet to completion (reset -> deliver -> run).
  /// Equivalent to execute_packet() followed by commit_result().
  PacketResult process_packet(std::span<const std::uint8_t> packet);

  /// Run one packet WITHOUT touching the cumulative CoreStats. All memory
  /// and monitor effects (soft reset, data-RAM writes, attack reset)
  /// happen exactly as in process_packet; only the counters are deferred.
  /// The parallel engine executes speculatively on worker threads and
  /// folds results in serial packet order, which keeps CoreStats
  /// bit-identical to the serial engine even when speculated packets are
  /// rolled back. Requires installed().
  PacketResult execute_packet(std::span<const std::uint8_t> packet);

  /// Fold one execute_packet() result into the cumulative CoreStats,
  /// updating exactly the counters process_packet would have.
  void commit_result(const PacketResult& result);

  /// Everything one speculative execute_packet() changed on this core
  /// that outlives it: the Core's cross-packet architectural state, the
  /// monitor's cumulative stats and peak width, and the memory pages the
  /// execution dirtied.
  struct SpecUndo {
    Core::SpecState core_state;
    monitor::HardwareMonitor::Tally monitor_tally;
    std::vector<Memory::PageCopy> pages;
    /// Pages dirtied by the speculative execution (== pages.size();
    /// feeds np.core.snapshot_dirty_pages).
    std::size_t dirty_pages() const { return pages.size(); }
  };

  /// Bracket one speculative execute_packet(): begin_speculation() arms
  /// dirty-page capture and snapshots the cross-packet core state;
  /// end_speculation() disarms capture and returns the undo record;
  /// rollback_speculation() restores both (pages in reverse touch order).
  /// When undoing several packets on one core, roll back newest-first.
  void begin_speculation();
  SpecUndo end_speculation();
  void rollback_speculation(const SpecUndo& undo);

  const CoreStats& stats() const { return stats_; }
  Core& core() { return core_; }
  const Core& core() const { return core_; }
  const monitor::HardwareMonitor& monitor() const { return *monitor_; }

  /// When true (default), mismatches stop the core immediately. Disabling
  /// lets benchmarks measure the unmonitored baseline on identical inputs.
  void set_enforcement(bool on) { enforce_ = on; }

  /// Attach (or detach with nullptr) cached metric handles; `obs` must
  /// outlive the core or the next attach. No-op cost when detached; the
  /// whole site compiles out with SDMMON_OBS=OFF.
  void attach_obs(CoreObs* obs) { obs_ = obs; }

 private:
  struct MonitorFeed;
  PacketResult run_packet(std::span<const std::uint8_t> packet);

  Core core_;
  std::unique_ptr<monitor::HardwareMonitor> monitor_;
  CoreStats stats_;
  bool enforce_ = true;
  CoreObs* obs_ = nullptr;
  // Cross-packet core and monitor state snapshotted by
  // begin_speculation(), handed out by end_speculation(). One speculation
  // may be active at a time.
  Core::SpecState spec_state_;
  monitor::HardwareMonitor::Tally spec_tally_;
};

}  // namespace sdmmon::np

#endif  // SDMMON_NP_MONITORED_CORE_HPP
