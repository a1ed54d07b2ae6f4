#include "np/mpsoc.hpp"

namespace sdmmon::np {

std::unique_ptr<EngineObs> EngineObs::create(obs::Registry& registry,
                                             std::size_t num_cores,
                                             std::uint32_t device_id,
                                             bool parallel) {
  auto obs = std::make_unique<EngineObs>();
  obs->registry = &registry;
  obs->journal = &registry.journal();
  obs->dispatched = &registry.counter(obs::names::kEngineDispatched);
  obs->undispatched = &registry.counter(obs::names::kEngineUndispatched);
  obs->installs = &registry.counter(obs::names::kEngineInstalls);
  obs->quarantines = &registry.counter(obs::names::kEngineQuarantines);
  obs->reinstalls = &registry.counter(obs::names::kEngineReinstalls);
  obs->healthy_cores = &registry.gauge(obs::names::kEngineHealthyCores);
  obs->window_occupancy = &registry.histogram(
      obs::names::kRecoveryWindowOccupancy, obs::width_buckets());
  obs->reinstall_ns = &registry.histogram(obs::names::kRecoveryReinstallNs,
                                          obs::latency_ns_buckets());
  obs->graph_compile_ns = &registry.histogram(
      obs::names::kEngineGraphCompileNs, obs::latency_ns_buckets());
  obs->compiled_nodes =
      &registry.gauge(obs::names::kEngineCompiledGraphNodes);
  obs->compiled_edges =
      &registry.gauge(obs::names::kEngineCompiledGraphEdges);
  obs->compiled_bytes =
      &registry.gauge(obs::names::kEngineCompiledGraphBytes);
  obs->predecode_ns = &registry.histogram(obs::names::kCorePredecodeNs,
                                          obs::latency_ns_buckets());
  obs->compiled_ops =
      &registry.gauge(obs::names::kEngineCompiledProgramOps);
  obs->compiled_blocks =
      &registry.gauge(obs::names::kEngineCompiledProgramBlocks);
  obs->compiled_program_bytes =
      &registry.gauge(obs::names::kEngineCompiledProgramBytes);
  obs->trace_build_ns = &registry.histogram(obs::names::kCoreTraceBuildNs,
                                            obs::latency_ns_buckets());
  obs->trace_count = &registry.gauge(obs::names::kEngineTraceCount);
  obs->trace_ops = &registry.gauge(obs::names::kEngineTraceOps);
  obs->trace_side_exit_rate =
      &registry.gauge(obs::names::kEngineTraceSideExitRate);
  if (parallel) {
    obs->shard_steals = &registry.counter(obs::names::kParallelShardSteals);
    obs->shard_epochs = &registry.counter(obs::names::kParallelShardEpochs);
    obs->shard_queue_depth = &registry.histogram(
        obs::names::kParallelShardQueueDepth, obs::depth_buckets());
    obs->rollbacks = &registry.counter(obs::names::kParallelRollbacks);
    obs->replayed_packets =
        &registry.counter(obs::names::kParallelReplayedPackets);
    obs->rollback_bytes =
        &registry.counter(obs::names::kParallelRollbackBytes);
    obs->snapshot_dirty_pages = &registry.histogram(
        obs::names::kCoreSnapshotDirtyPages, obs::depth_buckets());
  }
  obs->device_id = device_id;
  obs->cores.reserve(num_cores);
  const std::uint32_t period = registry.sample_period();
  for (std::size_t c = 0; c < num_cores; ++c) {
    obs->cores.push_back(
        CoreObs::create(registry, static_cast<std::uint32_t>(c), period));
  }
  return obs;
}

void EngineObs::record_outcome(std::uint64_t cycle, std::size_t core,
                               const PacketResult& result,
                               RecoveryAction action,
                               std::size_t window_violations,
                               const RecoveryController& recovery) {
  const std::uint32_t core32 = static_cast<std::uint32_t>(core);
  if (result.outcome == PacketOutcome::AttackDetected) {
    journal->record({obs::EventKind::AttackDetected, cycle, core32,
                     device_id, result.monitor_width});
  } else if (result.outcome == PacketOutcome::Trapped) {
    journal->record({obs::EventKind::Trap, cycle, core32, device_id,
                     static_cast<std::uint64_t>(result.trap)});
  }
  if (result.trace_dispatches > 0) {
    // Folded in serial commit order, so the rate is deterministic
    // across the serial and parallel engines.
    trace_dispatches_total += result.trace_dispatches;
    trace_side_exits_total += result.trace_side_exits;
    trace_side_exit_rate->set(static_cast<std::int64_t>(
        trace_side_exits_total * 1000 / trace_dispatches_total));
  }
  window_occupancy->record(window_violations);
  if (action == RecoveryAction::Quarantine) {
    quarantines->add(1);
    journal->record({obs::EventKind::Quarantine, cycle, core32, device_id,
                     window_violations});
    healthy_cores->set(
        static_cast<std::int64_t>(recovery.healthy_cores()));
  }
  // Reinstall bookkeeping happens in reinstall_core (shared with the
  // re-image path), where the wall-clock cost is also measured.
}

void EngineObs::note_compiled(const monitor::CompiledGraph& graph) {
  compiled_nodes->set(static_cast<std::int64_t>(graph.num_nodes()));
  compiled_edges->set(static_cast<std::int64_t>(graph.num_edges()));
  compiled_bytes->set(static_cast<std::int64_t>(graph.footprint_bytes()));
}

void EngineObs::note_predecoded(const CompiledProgram& code) {
  compiled_ops->set(static_cast<std::int64_t>(code.num_ops()));
  compiled_blocks->set(static_cast<std::int64_t>(code.num_blocks()));
  compiled_program_bytes->set(
      static_cast<std::int64_t>(code.footprint_bytes()));
  trace_build_ns->record(code.trace_build_ns());
  trace_count->set(static_cast<std::int64_t>(code.num_traces()));
  trace_ops->set(static_cast<std::int64_t>(code.num_trace_ops()));
}

InstallArtifacts validate_install_config(const isa::Program& program,
                                         const monitor::MonitoringGraph& graph,
                                         const monitor::InstructionHash& hash) {
  // Compilation is itself the graph-validation step: the compiler throws
  // on structurally malformed graphs before any real core is touched.
  // Predecoding is total (undecodable words become trapping ops), so it
  // can never fail on text the staging core accepted.
  InstallArtifacts artifacts;
  artifacts.graph = monitor::CompiledGraph::compile(graph);
  artifacts.code = CompiledProgram::compile(program, hash);
  validate_install_config(program, artifacts, hash);
  return artifacts;
}

void validate_install_config(const isa::Program& program,
                             const InstallArtifacts& artifacts,
                             const monitor::InstructionHash& hash) {
  // The scratch install exercises exactly what the real one will:
  // load_program's memory-map fit and artifact/program match checks plus
  // MonitoredCore::install's null-artifact and artifact/hash spot-checks.
  MonitoredCore probe;
  probe.install(program, artifacts.graph, artifacts.code, hash.clone());
}

// ---------------------------------------------------------------------
// CoreArray: installs, recovery re-image, admin transitions, stats
// ---------------------------------------------------------------------

CoreArray::CoreArray(std::size_t num_cores, DispatchPolicy policy,
                     RecoveryConfig recovery, bool parallel)
    : cores_(num_cores),
      policy_(policy),
      recovery_(num_cores, recovery),
      last_good_(num_cores),
      parallel_(parallel) {}

CoreArray::~CoreArray() { delete obs_.load(std::memory_order_relaxed); }

void CoreArray::enable_obs(obs::Registry& registry, std::uint32_t device_id,
                           std::uint32_t sample_period) {
#if SDMMON_OBS_ENABLED
  quiesce();  // no worker may be touching core state
  registry.set_sample_period(sample_period);
  std::unique_ptr<EngineObs> obs =
      EngineObs::create(registry, cores_.size(), device_id, parallel_);
  for (std::size_t c = 0; c < cores_.size(); ++c) {
    cores_[c].attach_obs(&obs->cores[c]);
  }
  obs->healthy_cores->set(
      static_cast<std::int64_t>(recovery_.healthy_cores()));
  delete obs_.exchange(obs.release(), std::memory_order_acq_rel);
#else
  (void)registry;
  (void)device_id;
  (void)sample_period;
#endif
}

InstallArtifacts CoreArray::compile_artifacts(
    const isa::Program& program, monitor::MonitoringGraph graph,
    const monitor::InstructionHash& hash) {
#if SDMMON_OBS_ENABLED
  EngineObs* obs = engine_obs();
#endif
  InstallArtifacts artifacts;
  {
#if SDMMON_OBS_ENABLED
    obs::ScopedTimerNs timer(obs ? obs->graph_compile_ns : nullptr);
#endif
    artifacts.graph = monitor::CompiledGraph::compile(std::move(graph));
  }
  {
#if SDMMON_OBS_ENABLED
    obs::ScopedTimerNs timer(obs ? obs->predecode_ns : nullptr);
#endif
    artifacts.code = CompiledProgram::compile(program, hash);
  }
  return artifacts;
}

void CoreArray::install_all(const isa::Program& program,
                            const monitor::MonitoringGraph& graph,
                            const monitor::InstructionHash& hash) {
  install_all(program, compile_artifacts(program, graph, hash), hash);
}

void CoreArray::install_all(const isa::Program& program,
                            InstallArtifacts artifacts,
                            const monitor::InstructionHash& hash) {
  quiesce();
  validate_install_config(program, artifacts, hash);
  for (std::size_t c = 0; c < cores_.size(); ++c) {
    cores_[c].install(program, artifacts.graph, artifacts.code,
                      hash.clone());
    last_good_[c] = LastGoodConfig{program, artifacts, hash.clone()};
  }
  note_install(obs::kAllCores, program, artifacts);
}

void CoreArray::install(std::size_t core_index, const isa::Program& program,
                        monitor::MonitoringGraph graph,
                        std::unique_ptr<monitor::InstructionHash> hash) {
  InstallArtifacts artifacts =
      compile_artifacts(program, std::move(graph), *hash);
  install(core_index, program, std::move(artifacts), std::move(hash));
}

void CoreArray::install(std::size_t core_index, const isa::Program& program,
                        InstallArtifacts artifacts,
                        std::unique_ptr<monitor::InstructionHash> hash) {
  quiesce();
  validate_install_config(program, artifacts, *hash);
  last_good_.at(core_index) =
      LastGoodConfig{program, artifacts, hash->clone()};
  cores_.at(core_index).install(program, artifacts.graph, artifacts.code,
                                std::move(hash));
  note_install(static_cast<std::uint32_t>(core_index), program, artifacts);
}

void CoreArray::note_install(std::uint32_t core, const isa::Program& program,
                             const InstallArtifacts& artifacts) {
#if SDMMON_OBS_ENABLED
  if (EngineObs* obs = engine_obs()) {
    obs->installs->add(1);
    obs->note_compiled(*artifacts.graph);
    obs->note_predecoded(*artifacts.code);
    obs->journal->record({obs::EventKind::Install, obs->dispatched->value(),
                          core, obs->device_id, program.text.size()});
  }
#else
  (void)core;
  (void)program;
  (void)artifacts;
#endif
}

void CoreArray::reinstall_core(std::size_t index) {
  const std::optional<LastGoodConfig>& good = last_good_[index];
  if (!good) return;  // nothing to re-image from; policy degrades to reset
#if SDMMON_OBS_ENABLED
  EngineObs* obs = engine_obs();
#endif
  {
#if SDMMON_OBS_ENABLED
    obs::ScopedTimerNs timer(obs ? obs->reinstall_ns : nullptr);
#endif
    cores_[index].install(good->program, good->artifacts.graph,
                          good->artifacts.code, good->hash->clone());
  }
  recovery_.note_reinstall(index);
  ++reinstalls_;
#if SDMMON_OBS_ENABLED
  if (obs) {
    obs->reinstalls->add(1);
    obs->journal->record({obs::EventKind::Reinstall,
                          obs->dispatched->value(),
                          static_cast<std::uint32_t>(index), obs->device_id,
                          0});
  }
#endif
}

void CoreArray::set_core_offline(std::size_t index, bool offline) {
  quiesce();
  recovery_.set_offline(index, offline);
  note_admin_transition(index, offline ? obs::EventKind::Offline
                                       : obs::EventKind::Online);
}

void CoreArray::release_core(std::size_t index) {
  quiesce();
  recovery_.release(index);
  note_admin_transition(index, obs::EventKind::Release);
}

void CoreArray::note_admin_transition(std::size_t index,
                                      obs::EventKind kind) {
#if SDMMON_OBS_ENABLED
  if (EngineObs* obs = engine_obs()) {
    obs->journal->record({kind, obs->dispatched->value(),
                          static_cast<std::uint32_t>(index), obs->device_id,
                          0});
    obs->healthy_cores->set(
        static_cast<std::int64_t>(recovery_.healthy_cores()));
  }
#else
  (void)index;
  (void)kind;
#endif
}

std::vector<std::size_t> CoreArray::active_cores() const {
  std::vector<std::size_t> active;
  active.reserve(cores_.size());
  for (std::size_t c = 0; c < cores_.size(); ++c) {
    if (core_dispatchable(c)) active.push_back(c);
  }
  return active;
}

MpsocStats CoreArray::aggregate_stats() const {
  MpsocStats sum;
  for (std::size_t c = 0; c < cores_.size(); ++c) {
    const CoreStats& s = cores_[c].stats();
    sum.packets += s.packets;
    sum.forwarded += s.forwarded;
    sum.dropped += s.dropped;
    sum.attacks_detected += s.attacks_detected;
    sum.traps += s.traps;
    sum.instructions += s.instructions;
    switch (recovery_.health(c)) {
      case CoreHealth::Healthy:
        if (cores_[c].installed()) {
          ++sum.healthy_cores;
        } else {
          ++sum.uninstalled_cores;
        }
        break;
      case CoreHealth::Quarantined:
        ++sum.quarantined_cores;
        break;
      case CoreHealth::Offline:
        ++sum.offline_cores;
        break;
    }
  }
  sum.total_cores = cores_.size();
  sum.undispatched = undispatched_;
  sum.violations = recovery_.total_violations();
  sum.quarantine_events = recovery_.quarantine_events();
  sum.reinstalls = reinstalls_;
  return sum;
}

// ---------------------------------------------------------------------
// Mpsoc: the serial packet path
// ---------------------------------------------------------------------

Mpsoc::Mpsoc(std::size_t num_cores, DispatchPolicy policy,
             RecoveryConfig recovery)
    : CoreArray(num_cores, policy, recovery, /*parallel=*/false) {}

std::size_t Mpsoc::pick_core(const std::vector<std::size_t>& active,
                             std::uint32_t flow_key) {
  return pick_dispatch_core(policy_, active, flow_key, next_,
                            [this](std::size_t core) {
                              return cores_[core].stats().instructions;
                            });
}

PacketResult Mpsoc::process_packet(std::span<const std::uint8_t> packet,
                                   std::uint32_t flow_key) {
  std::vector<std::size_t> active = active_cores();
  if (active.empty()) {
    // Fully degraded (or nothing installed yet): drop, never crash.
    note_undispatched();
    PacketResult result;
    result.outcome = PacketOutcome::Dropped;
    return result;
  }
  std::size_t index = pick_core(active, flow_key);
  PacketResult result = cores_[index].process_packet(packet);
  const RecoveryAction action = recovery_.on_outcome(index, result.outcome);
#if SDMMON_OBS_ENABLED
  if (EngineObs* obs = engine_obs()) {
    obs->dispatched->add(1);
    obs->record_outcome(obs->dispatched->value(), index, result, action,
                        recovery_.window_violations(index), recovery_);
  }
#endif
  switch (action) {
    case RecoveryAction::None:
      break;
    case RecoveryAction::Reinstall:
      reinstall_core(index);
      break;
    case RecoveryAction::Quarantine:
      // Controller already moved the core out of the dispatch set; the
      // next packet's active_cores() no longer contains it.
      break;
  }
  return result;
}

}  // namespace sdmmon::np
