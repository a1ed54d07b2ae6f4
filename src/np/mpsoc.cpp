#include "np/mpsoc.hpp"

#include <chrono>

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
  obs->monitor_summary_bytes =
      &registry.gauge(obs::names::kEngineMonitorSummaryBytes);
  if (parallel) {
    obs->shard_queue_depth = &registry.histogram(
        obs::names::kParallelShardQueueDepth, obs::depth_buckets());
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
                               std::size_t window_violations) {
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
  // Reinstall and quarantine bookkeeping follow in CoreArray::commit.
}

void EngineObs::note_compiled(const monitor::CompiledGraph& graph) {
  graph_compile_ns->record(graph.compile_ns());
  compiled_nodes->set(static_cast<std::int64_t>(graph.num_nodes()));
  compiled_edges->set(static_cast<std::int64_t>(graph.num_edges()));
  compiled_bytes->set(static_cast<std::int64_t>(graph.footprint_bytes()));
}

void EngineObs::note_predecoded(const CompiledProgram& code) {
  compiled_ops->set(static_cast<std::int64_t>(code.num_ops()));
  compiled_blocks->set(static_cast<std::int64_t>(code.num_blocks()));
  compiled_program_bytes->set(
      static_cast<std::int64_t>(code.footprint_bytes()));
  predecode_ns->record(code.compile_ns());
  trace_build_ns->record(code.trace_build_ns());
  trace_count->set(static_cast<std::int64_t>(code.num_traces()));
  trace_ops->set(static_cast<std::int64_t>(code.num_trace_ops()));
}

namespace {

/// Callers holding only the (graph, code) pair leave the summary null;
/// build it once, before the install check, so every core shares it. A
/// null graph or program throws std::invalid_argument here.
void complete_summary(InstallArtifacts& artifacts) {
  if (artifacts.summary == nullptr) {
    artifacts.summary =
        MonitorSummary::build(artifacts.graph, artifacts.code);
  }
}

}  // namespace

// ---------------------------------------------------------------------
// CoreArray: installs, placement, one packet's run and commit, release
// ---------------------------------------------------------------------

CoreArray::CoreArray(std::size_t num_cores, DispatchPolicy policy,
                     RecoveryConfig recovery, bool parallel)
    : cores_(num_cores),
      policy_(policy),
      recovery_(num_cores, recovery),
      last_good_(num_cores),
      parallel_(parallel),
      excluded_(num_cores, false) {}

CoreArray::~CoreArray() { delete obs_.load(std::memory_order_relaxed); }

void CoreArray::enable_obs(obs::Registry& registry, std::uint32_t device_id,
                           std::uint32_t sample_period) {
  quiesce();  // no worker may be touching core state
  registry.set_sample_period(sample_period);
  std::unique_ptr<EngineObs> obs =
      EngineObs::create(registry, cores_.size(), device_id, parallel_);
  for (std::size_t c = 0; c < cores_.size(); ++c) {
    cores_[c].attach_obs(&obs->cores[c]);
  }
  obs->healthy_cores->set(
      static_cast<std::int64_t>(cores_.size() - quarantined_));
  delete obs_.exchange(obs.release(), std::memory_order_acq_rel);
}

InstallArtifacts CoreArray::install_all(const isa::Program& program,
                                        monitor::MonitoringGraph graph,
                                        const monitor::InstructionHash& hash) {
  // The builder has checked what it built.
  InstallArtifacts artifacts =
      validate_install_config(program, std::move(graph), hash);
  quiesce();
  commit_all(program, artifacts, hash);
  return artifacts;
}

void CoreArray::install_all(const isa::Program& program,
                            InstallArtifacts artifacts,
                            const monitor::InstructionHash& hash) {
  quiesce();
  complete_summary(artifacts);
  validate_install_config(program, artifacts, hash);
  commit_all(program, artifacts, hash);
}

void CoreArray::commit_all(const isa::Program& program,
                           const InstallArtifacts& artifacts,
                           const monitor::InstructionHash& hash) {
  for (std::size_t c = 0; c < cores_.size(); ++c) {
    cores_[c].commit_install(program, artifacts, hash.clone());
    last_good_[c] = LastGoodConfig{program, artifacts, hash.clone()};
  }
  rebuild_placement();
  note_install(obs::kAllCores, program, artifacts);
}

void CoreArray::install(std::size_t core_index, const isa::Program& program,
                        InstallArtifacts artifacts,
                        std::unique_ptr<monitor::InstructionHash> hash) {
  quiesce();
  complete_summary(artifacts);
  validate_install_config(program, artifacts, *hash);
  last_good_.at(core_index) =
      LastGoodConfig{program, artifacts, hash->clone()};
  cores_.at(core_index).commit_install(program, artifacts, std::move(hash));
  rebuild_placement();
  note_install(static_cast<std::uint32_t>(core_index), program, artifacts);
}

void CoreArray::note_install(std::uint32_t core, const isa::Program& program,
                             const InstallArtifacts& artifacts) {
  if (EngineObs* obs = engine_obs()) {
    obs->installs->add(1);
    obs->note_compiled(*artifacts.graph);
    obs->note_predecoded(*artifacts.code);
    obs->monitor_summary_bytes->set(
        static_cast<std::int64_t>(artifacts.summary->footprint_bytes()));
    obs->journal->record({obs::EventKind::Install, obs->dispatched->value(),
                          core, obs->device_id, program.text.size()});
  }
}

std::size_t CoreArray::place(std::uint64_t seq, std::uint32_t flow_key) {
  if (seq >= next_exclusion_.load(std::memory_order_acquire)) {
    apply_exclusions(seq);
  }
  if (placement_.empty()) return kUndispatched;
  return pick_dispatch_core(policy_, placement_, flow_key, rr_next_);
}

void CoreArray::apply_exclusions(std::uint64_t seq) {
  std::lock_guard<std::mutex> lock(exclusions_mutex_);
  auto due = exclusions_.begin();
  for (; due != exclusions_.end() && due->first <= seq; ++due) {
    excluded_[due->second] = true;
  }
  exclusions_.erase(exclusions_.begin(), due);
  next_exclusion_.store(exclusions_.empty() ? kNever
                                            : exclusions_.front().first,
                        std::memory_order_release);
  rebuild_placement();
}

void CoreArray::rebuild_placement() {
  placement_.clear();
  for (std::size_t c = 0; c < cores_.size(); ++c) {
    if (cores_[c].installed() && !excluded_[c]) placement_.push_back(c);
  }
}

void CoreArray::execute(std::size_t core, std::span<const std::uint8_t> packet,
                        Execution& ex) {
  // Placement keeps sending packets to a freshly quarantined core until
  // its exclusion is due; the core runs none of them.
  if (recovery_.health(core) != CoreHealth::Healthy) return;
  ex.core = core;
  ex.result = cores_[core].execute_packet(packet);
  ex.action = recovery_.on_outcome(core, ex.result.outcome);
  ex.window_violations = recovery_.window_violations(core);
  if (ex.action == RecoveryAction::Reinstall) {
    ex.reimage_ns = reimage_core(core);
  }
}

std::optional<std::uint64_t> CoreArray::reimage_core(std::size_t index) {
  const std::optional<LastGoodConfig>& good = last_good_[index];
  if (!good) return std::nullopt;  // policy degrades to reset
  const auto start = std::chrono::steady_clock::now();
  cores_[index].commit_install(good->program, good->artifacts,
                               good->hash->clone());
  const auto elapsed = std::chrono::steady_clock::now() - start;
  recovery_.note_reinstall(index);
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed).count());
}

void CoreArray::commit(std::uint64_t seq, const Execution& ex) {
  EngineObs* obs = engine_obs();
  if (ex.core == kUndispatched) {
    ++undispatched_;
    if (obs != nullptr) obs->undispatched->add(1);
    return;
  }
  cores_[ex.core].commit_result(ex.result);
  if (obs != nullptr) {
    obs->dispatched->add(1);
    obs->record_outcome(obs->dispatched->value(), ex.core, ex.result,
                        ex.window_violations);
  }
  if (ex.reimage_ns) {
    ++reinstalls_;
    if (obs != nullptr) {
      obs->reinstall_ns->record(*ex.reimage_ns);
      obs->reinstalls->add(1);
      obs->journal->record({obs::EventKind::Reinstall,
                            obs->dispatched->value(),
                            static_cast<std::uint32_t>(ex.core),
                            obs->device_id, 0});
    }
  }
  if (ex.action == RecoveryAction::Quarantine) {
    note_quarantine(ex.core, seq, ex.window_violations);
  }
}

void CoreArray::note_quarantine(std::size_t index, std::uint64_t seq,
                                std::size_t window_violations) {
  ++quarantined_;
  {
    std::lock_guard<std::mutex> lock(exclusions_mutex_);
    if (exclusions_.empty()) {
      next_exclusion_.store(seq + kPlacementLag, std::memory_order_release);
    }
    exclusions_.emplace_back(seq + kPlacementLag, index);
  }
  if (EngineObs* obs = engine_obs()) {
    obs->quarantines->add(1);
    obs->journal->record({obs::EventKind::Quarantine,
                          obs->dispatched->value(),
                          static_cast<std::uint32_t>(index), obs->device_id,
                          window_violations});
    obs->healthy_cores->set(
        static_cast<std::int64_t>(cores_.size() - quarantined_));
  }
}

void CoreArray::release_core(std::size_t index) {
  quiesce();
  if (recovery_.health(index) == CoreHealth::Quarantined) --quarantined_;
  recovery_.release(index);
  {
    std::lock_guard<std::mutex> lock(exclusions_mutex_);
    std::erase_if(exclusions_,
                  [index](const auto& e) { return e.second == index; });
    next_exclusion_.store(exclusions_.empty() ? kNever
                                              : exclusions_.front().first,
                          std::memory_order_release);
  }
  excluded_[index] = false;
  rebuild_placement();
  if (EngineObs* obs = engine_obs()) {
    obs->journal->record({obs::EventKind::Release, obs->dispatched->value(),
                          static_cast<std::uint32_t>(index), obs->device_id,
                          0});
    obs->healthy_cores->set(
        static_cast<std::int64_t>(cores_.size() - quarantined_));
  }
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
    if (recovery_.health(c) == CoreHealth::Quarantined) {
      ++sum.quarantined_cores;
    } else if (cores_[c].installed()) {
      ++sum.healthy_cores;
    } else {
      ++sum.uninstalled_cores;
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

PacketResult Mpsoc::process_packet(std::span<const std::uint8_t> packet,
                                   std::uint32_t flow_key) {
  const std::uint64_t seq = next_seq_++;
  Execution ex;
  const std::size_t core = place(seq, flow_key);
  if (core != kUndispatched) execute(core, packet, ex);
  commit(seq, ex);
  return std::move(ex.result);
}

}  // namespace sdmmon::np
