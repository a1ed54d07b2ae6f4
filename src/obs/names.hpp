// Canonical metric names. Every instrumented subsystem registers its
// metrics under a constant from this header, and tools/check_docs.sh
// fails CI when a name listed here is missing from the catalog in
// docs/OBSERVABILITY.md -- the catalog cannot silently drift.
//
// Naming scheme: <subsystem>.<object>.<quantity>[.<core-index>]. Per-core
// metrics append ".<i>" at registration time (e.g. "np.core.packets.3").
#ifndef SDMMON_SRC_OBS_NAMES_HPP
#define SDMMON_SRC_OBS_NAMES_HPP

namespace sdmmon::obs::names {

// ---- per monitored core (suffix ".<core>" appended by the engine) ----
inline constexpr const char* kCorePackets = "np.core.packets";
inline constexpr const char* kCoreForwarded = "np.core.forwarded";
inline constexpr const char* kCoreDropped = "np.core.dropped";
inline constexpr const char* kCoreAttacks = "np.core.attacks";
inline constexpr const char* kCoreTraps = "np.core.traps";
inline constexpr const char* kCoreInstructions = "np.core.instructions";
inline constexpr const char* kCoreInstrPerPacket =
    "np.core.instr_per_packet";
inline constexpr const char* kCoreNdfaWidth = "np.core.ndfa_width";
inline constexpr const char* kCorePredecodeNs = "np.core.predecode_ns";
inline constexpr const char* kCoreTraceBuildNs = "np.core.trace_build_ns";

// ---- execution engines (serial Mpsoc and ParallelMpsoc) ----
inline constexpr const char* kEngineDispatched = "np.engine.dispatched";
inline constexpr const char* kEngineUndispatched = "np.engine.undispatched";
inline constexpr const char* kEngineInstalls = "np.engine.installs";
inline constexpr const char* kEngineQuarantines = "np.engine.quarantines";
inline constexpr const char* kEngineReinstalls = "np.engine.reinstalls";
inline constexpr const char* kEngineHealthyCores =
    "np.engine.healthy_cores";
inline constexpr const char* kEngineGraphCompileNs =
    "np.engine.graph_compile_ns";
inline constexpr const char* kEngineCompiledGraphNodes =
    "np.engine.compiled_graph_nodes";
inline constexpr const char* kEngineCompiledGraphEdges =
    "np.engine.compiled_graph_edges";
inline constexpr const char* kEngineCompiledGraphBytes =
    "np.engine.compiled_graph_bytes";
inline constexpr const char* kEngineCompiledProgramOps =
    "np.engine.compiled_program_ops";
inline constexpr const char* kEngineCompiledProgramBlocks =
    "np.engine.compiled_program_blocks";
inline constexpr const char* kEngineCompiledProgramBytes =
    "np.engine.compiled_program_bytes";
inline constexpr const char* kEngineTraceCount = "np.engine.trace_count";
inline constexpr const char* kEngineTraceOps = "np.engine.trace_ops";
inline constexpr const char* kEngineTraceSideExitRate =
    "np.engine.trace_side_exit_rate";
inline constexpr const char* kEngineMonitorSummaryBytes =
    "np.engine.monitor_summary_bytes";

// ---- recovery controller decisions ----
inline constexpr const char* kRecoveryWindowOccupancy =
    "np.recovery.window_occupancy";
inline constexpr const char* kRecoveryReinstallNs =
    "np.recovery.reinstall_ns";

// ---- parallel engine internals (sharded engine) ----
inline constexpr const char* kParallelShardQueueDepth =
    "np.parallel.shard_queue_depth";
// Registered by nothing, so a registry reads them as 0. Kept only
// because perfbench reads them; they go with its next change.
inline constexpr const char* kParallelShardSteals =
    "np.parallel.shard_steals";
inline constexpr const char* kParallelReplayedPackets =
    "np.parallel.replayed_packets";
inline constexpr const char* kParallelRollbackBytes =
    "np.parallel.rollback_bytes";

// ---- fleet campaigns (operator side) ----
inline constexpr const char* kFleetAttempts = "fleet.attempts";
inline constexpr const char* kFleetRetries = "fleet.retries";
inline constexpr const char* kFleetInstalled = "fleet.installed";
inline constexpr const char* kFleetRejected = "fleet.rejected";
inline constexpr const char* kFleetChannelLost = "fleet.channel_lost";
inline constexpr const char* kFleetBudgetExhausted =
    "fleet.budget_exhausted";
inline constexpr const char* kFleetSkippedUnhealthy =
    "fleet.skipped_unhealthy";
inline constexpr const char* kFleetAttemptsPerDevice =
    "fleet.attempts_per_device";
inline constexpr const char* kFleetBackoffMs = "fleet.backoff_ms";

// ---- fleet simulation (discrete-event rollout service) ----
inline constexpr const char* kFleetSimDevices = "fleet.sim.devices";
inline constexpr const char* kFleetSimConverged = "fleet.sim.converged";
inline constexpr const char* kFleetSimInstalls = "fleet.sim.installs";
inline constexpr const char* kFleetSimRejections = "fleet.sim.rejections";
inline constexpr const char* kFleetSimQuarantines =
    "fleet.sim.quarantines";
inline constexpr const char* kFleetSimUnreachable =
    "fleet.sim.unreachable";
inline constexpr const char* kFleetSimRollbacks = "fleet.sim.rollbacks";
inline constexpr const char* kFleetRolloutWave = "fleet.rollout.wave";
inline constexpr const char* kFleetRolloutHalts = "fleet.rollout.halts";
inline constexpr const char* kFleetHealthScore = "fleet.health.score";

// ---- RPC control-plane server (device side) ----
inline constexpr const char* kRpcSessionsOpened = "rpc.sessions_opened";
inline constexpr const char* kRpcSessionsActive = "rpc.sessions_active";
inline constexpr const char* kRpcSessionsRefused = "rpc.sessions_refused";
inline constexpr const char* kRpcAuthFailures = "rpc.auth_failures";
inline constexpr const char* kRpcRequests = "rpc.requests";
inline constexpr const char* kRpcErrors = "rpc.errors";
inline constexpr const char* kRpcFramesRejected = "rpc.frames_rejected";
inline constexpr const char* kRpcDedupReplays = "rpc.dedup_replays";
inline constexpr const char* kRpcInstalls = "rpc.installs";
inline constexpr const char* kRpcRotations = "rpc.rotations";
inline constexpr const char* kRpcBytesIn = "rpc.bytes_in";
inline constexpr const char* kRpcBytesOut = "rpc.bytes_out";
inline constexpr const char* kRpcRequestNs = "rpc.request_ns";

}  // namespace sdmmon::obs::names

#endif  // SDMMON_SRC_OBS_NAMES_HPP
