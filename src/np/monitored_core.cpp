#include "np/monitored_core.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <string>

namespace sdmmon::np {

const char* packet_outcome_name(PacketOutcome outcome) {
  switch (outcome) {
    case PacketOutcome::Forwarded: return "forwarded";
    case PacketOutcome::Dropped: return "dropped";
    case PacketOutcome::AttackDetected: return "attack-detected";
    case PacketOutcome::Trapped: return "trapped";
  }
  return "?";
}

MonitoredCore::MonitoredCore() = default;

void MonitoredCore::install(const isa::Program& program,
                            const InstallArtifacts& artifacts,
                            std::unique_ptr<monitor::InstructionHash> hash) {
  const CompiledProgram* code = artifacts.code.get();
  if (artifacts.graph == nullptr || code == nullptr ||
      artifacts.summary == nullptr) {
    throw std::invalid_argument("MonitoredCore: null install artifact");
  }
  // A summary of another pair would index the wrong lane or table.
  if (!artifacts.summary->built_from(artifacts.graph.get(), code)) {
    throw std::invalid_argument(
        "MonitorSummary was not built from the installed graph and "
        "program");
  }
  // The hash parameter is secret (it never leaves the unit), so artifact
  // provenance cannot be checked by name: spot-check sampled precomputed
  // hashes against the unit being installed instead. Bounded at 16
  // samples to keep the quarantine re-image path a cheap pointer swap.
  const std::size_t n = code->num_ops();
  const std::size_t samples = std::min<std::size_t>(n, 16);
  for (std::size_t s = 0; s < samples; ++s) {
    const CompiledProgram::PreOp& op = code->ops_data()[s * n / samples];
    if (op.mhash != hash->hash(op.word)) {
      throw std::invalid_argument(
          "CompiledProgram hashes were not computed under the installed "
          "hash unit");
    }
  }
  core_.load_program(program, artifacts.code);
  if (monitor_) {
    monitor_->install(artifacts.graph, std::move(hash));
  } else {
    monitor_ = std::make_unique<monitor::HardwareMonitor>(artifacts.graph,
                                                          std::move(hash));
  }
  summary_ = artifacts.summary;
}

void MonitoredCore::install(const isa::Program& program,
                            std::shared_ptr<const monitor::CompiledGraph> graph,
                            std::shared_ptr<const CompiledProgram> code,
                            std::unique_ptr<monitor::InstructionHash> hash) {
  std::shared_ptr<const MonitorSummary> summary =
      MonitorSummary::build(graph, code);
  install(program,
          InstallArtifacts{std::move(graph), std::move(code),
                           std::move(summary)},
          std::move(hash));
}

void MonitoredCore::install(const isa::Program& program,
                            std::shared_ptr<const monitor::CompiledGraph> graph,
                            std::unique_ptr<monitor::InstructionHash> hash) {
  std::shared_ptr<const CompiledProgram> code =
      CompiledProgram::compile(program, *hash);
  install(program, std::move(graph), std::move(code), std::move(hash));
}

void MonitoredCore::install(const isa::Program& program,
                            monitor::MonitoringGraph graph,
                            std::unique_ptr<monitor::InstructionHash> hash) {
  install(program, monitor::CompiledGraph::compile(std::move(graph)),
          std::move(hash));
}

CoreObs CoreObs::create(obs::Registry& registry, std::uint32_t core_id,
                        std::uint32_t sample_period) {
  const std::string suffix = "." + std::to_string(core_id);
  CoreObs handles;
  handles.packets = &registry.counter(obs::names::kCorePackets + suffix);
  handles.forwarded =
      &registry.counter(obs::names::kCoreForwarded + suffix);
  handles.dropped = &registry.counter(obs::names::kCoreDropped + suffix);
  handles.attacks = &registry.counter(obs::names::kCoreAttacks + suffix);
  handles.traps = &registry.counter(obs::names::kCoreTraps + suffix);
  handles.instructions =
      &registry.counter(obs::names::kCoreInstructions + suffix);
  handles.instr_per_packet =
      &registry.histogram(obs::names::kCoreInstrPerPacket + suffix,
                          obs::instruction_buckets());
  handles.ndfa_width = &registry.histogram(
      obs::names::kCoreNdfaWidth + suffix, obs::width_buckets());
  handles.core_id = core_id;
  handles.sample_period = sample_period == 0 ? 1 : sample_period;
  return handles;
}

void CoreObs::on_commit(const PacketResult& result) {
  packets->add(1);
  instructions->add(result.instructions);
  switch (result.outcome) {
    case PacketOutcome::Forwarded: forwarded->add(1); break;
    case PacketOutcome::Dropped: dropped->add(1); break;
    case PacketOutcome::AttackDetected: attacks->add(1); break;
    case PacketOutcome::Trapped: traps->add(1); break;
  }
  if (++tick % sample_period == 0) {
    instr_per_packet->record(result.instructions);
    ndfa_width->record(result.monitor_width);
  }
}

PacketResult MonitoredCore::execute_packet(
    std::span<const std::uint8_t> packet) {
  PacketResult result = run_packet(packet);
  result.monitor_width =
      static_cast<std::uint32_t>(monitor_->peak_state_size());
  return result;
}

// How retired ops reach the monitor on the shared dispatch loop
// (Core::run_observed). Superblock dispatches execute first, then feed
// the monitor the superblock's precomputed hash slice -- exactly as many
// hashes as ops retired -- settled against the install-time summary of
// the canonical walk along that slice. That is bit-identical to the per-op
// interleaving: superblock ops never read monitor state, so checking
// their hashes after the batch is unobservable to the core; ops that
// would trap or touch MMIO stop the batch before they retire and feed no
// hash; and on a mismatch at slice index m the reference executed ops
// 0..m and then reset, so the loop retracts the overshoot's surviving
// cumulative counters (Core::retract_trace) before the recovery reset.
struct MonitoredCore::MonitorFeed {
  monitor::HardwareMonitor& monitor;
  const MonitorSummary* summary;  // null: lane not summarised
  const Core& core;
  PacketResult& result;
  bool flagged = false;

  std::uint64_t on_batch(const std::uint8_t* hashes, std::uint64_t n,
                         bool side_exit) {
    ++result.trace_dispatches;
    if (side_exit) ++result.trace_side_exits;
    std::uint64_t ok = 0;
    if (summary != nullptr) [[likely]] {
      const monitor::HardwareMonitor::LaneAdvance step = monitor.advance(
          summary->lane(hashes), hashes, static_cast<std::size_t>(n));
      if (step.joined) ++result.summary_joins;
      ok = step.ok;
    } else {
      while (ok < n && monitor.on_hashed(hashes[ok]) == monitor::Verdict::Ok) {
        ++ok;
      }
    }
    flagged = ok < n;
    result.instructions += flagged ? ok + 1 : n;
    return ok;
  }

  bool on_step(const StepInfo& info) {
    const bool retired = info.event == StepEvent::Executed ||
                         info.event == StepEvent::PacketOut ||
                         info.event == StepEvent::Halted ||
                         (info.event == StepEvent::PacketDone &&
                          info.pc != kReturnSentinel);
    if (!retired) return true;
    ++result.instructions;
    // While the compiled image is clean, info.word for any pc inside the
    // artifact IS the installed word, so the precomputed hash feeds the
    // monitor directly. Ops outside the artifact (runtime-materialized
    // code, data-region jumps), any execution after a self-modifying
    // store, and the Interpret tier go through the real hash unit.
    std::uint8_t hashed = 0;
    const monitor::Verdict verdict =
        core.precomputed_hash(info.pc, hashed)
            ? monitor.on_hashed(hashed)
            : monitor.on_instruction(info.word);
    flagged = verdict == monitor::Verdict::Mismatch;
    return !flagged;
  }
};

PacketResult MonitoredCore::run_packet(
    std::span<const std::uint8_t> packet) {
  PacketResult result;

  // Per-packet path: fresh stack/registers, persistent application data.
  // Attack/trap recovery below uses the full re-imaging reset().
  core_.soft_reset();
  monitor_->reset();
  core_.deliver_packet(packet);

  // The summary indexes the installed program's lane; a program loaded
  // onto the core behind install()'s back is fed hash by hash.
  const MonitorSummary* summary =
      summary_->built_from(monitor_->compiled().get(),
                           core_.compiled_program().get())
          ? summary_.get()
          : nullptr;
  MonitorFeed feed{*monitor_, summary, core_, result};
  const StepInfo info =
      core_.run_observed(std::numeric_limits<std::uint64_t>::max(), feed);
  if (feed.flagged) {
    result.outcome = PacketOutcome::AttackDetected;
    core_.reset();  // paper's recovery: reset stack, next packet
    return result;
  }
  switch (info.event) {
    case StepEvent::PacketOut:
      result.outcome = PacketOutcome::Forwarded;
      result.output = core_.output();
      result.output_port = core_.output_port();
      break;
    case StepEvent::PacketDone:
      // A sentinel return must be sanctioned by the monitoring graph.
      if (info.pc == kReturnSentinel && !monitor_->exit_allowed()) {
        result.outcome = PacketOutcome::AttackDetected;
        core_.reset();
        break;
      }
      result.outcome = PacketOutcome::Dropped;
      break;
    case StepEvent::Trapped:
      result.outcome = PacketOutcome::Trapped;
      result.trap = info.trap;
      core_.reset();
      break;
    case StepEvent::Halted:
    case StepEvent::Executed:  // unreachable: the watchdog bounds the run
      result.outcome = PacketOutcome::Dropped;
      break;
  }
  return result;
}

void MonitoredCore::commit_result(const PacketResult& result) {
  ++stats_.packets;
  switch (result.outcome) {
    case PacketOutcome::Forwarded:
      ++stats_.forwarded;
      break;
    case PacketOutcome::Dropped:
      ++stats_.dropped;
      break;
    case PacketOutcome::AttackDetected:
      ++stats_.attacks_detected;
      break;
    case PacketOutcome::Trapped:
      ++stats_.traps;
      break;
  }
  stats_.instructions += result.instructions;
  if (obs_ != nullptr) obs_->on_commit(result);
}

PacketResult MonitoredCore::process_packet(
    std::span<const std::uint8_t> packet) {
  if (!installed()) {
    // No program/monitor yet: the packet is dropped, and counted -- an
    // operator watching stats must see the black-holed traffic rather
    // than a core that appears idle.
    PacketResult result;
    result.outcome = PacketOutcome::Dropped;
    commit_result(result);
    return result;
  }
  PacketResult result = execute_packet(packet);
  commit_result(result);
  return result;
}

}  // namespace sdmmon::np
