#include "np/recovery.hpp"

namespace sdmmon::np {

const char* core_health_name(CoreHealth health) {
  switch (health) {
    case CoreHealth::Healthy: return "healthy";
    case CoreHealth::Quarantined: return "quarantined";
    case CoreHealth::Offline: return "offline";
  }
  return "?";
}

const char* recovery_policy_name(RecoveryPolicy policy) {
  switch (policy) {
    case RecoveryPolicy::ResetAndContinue: return "reset-and-continue";
    case RecoveryPolicy::QuarantineAfterK: return "quarantine-after-k";
    case RecoveryPolicy::ReinstallLastGood: return "reinstall-last-good";
  }
  return "?";
}

RecoveryController::RecoveryController(std::size_t num_cores,
                                       RecoveryConfig config)
    : config_(config), cores_(num_cores) {
  if (config_.window_packets == 0) config_.window_packets = 1;
  if (config_.violation_threshold == 0) config_.violation_threshold = 1;
  for (auto& state : cores_) {
    state.window.assign(config_.window_packets, false);
  }
}

void RecoveryController::clear_window(CoreState& state) {
  state.window.assign(config_.window_packets, false);
  state.window_pos = 0;
  state.window_fill = 0;
  state.window_violations = 0;
}

RecoveryAction RecoveryController::on_outcome(std::size_t core,
                                              PacketOutcome outcome) {
  OutcomeUndo undo;
  return on_outcome_speculative(core, outcome, undo);
}

RecoveryAction RecoveryController::on_outcome_speculative(std::size_t core,
                                                          PacketOutcome outcome,
                                                          OutcomeUndo& undo) {
  CoreState& state = cores_[core];
  undo = OutcomeUndo{};
  if (state.health.load(std::memory_order_relaxed) != CoreHealth::Healthy) {
    return RecoveryAction::None;
  }
  undo.applied = true;
  undo.prev_pos = state.window_pos;
  undo.prev_fill = state.window_fill;
  undo.prev_violations = state.window_violations;
  undo.prev_reinstalls = state.reinstalls;
  undo.prev_bit = state.window[state.window_pos];

  // Traps (faults, watchdog) count alongside monitor mismatches: on a
  // healthy binary they usually mean a corrupted program store -- exactly
  // what reinstall fixes.
  const bool violation = outcome == PacketOutcome::AttackDetected ||
                         outcome == PacketOutcome::Trapped;
  undo.violation = violation;
  if (violation) total_violations_.fetch_add(1, std::memory_order_relaxed);

  // Slide the window by one packet.
  if (state.window[state.window_pos]) --state.window_violations;
  state.window[state.window_pos] = violation;
  if (violation) ++state.window_violations;
  state.window_pos = (state.window_pos + 1) % config_.window_packets;
  if (state.window_fill < config_.window_packets) ++state.window_fill;

  // A clean packet also de-escalates the reinstall counter: the last
  // re-image evidently took, so future incidents restart the ladder.
  if (!violation && state.reinstalls > 0 && state.window_violations == 0) {
    state.reinstalls = 0;
  }

  if (state.window_violations < config_.violation_threshold) {
    return RecoveryAction::None;
  }

  switch (config_.policy) {
    case RecoveryPolicy::ResetAndContinue:
      return RecoveryAction::None;
    case RecoveryPolicy::QuarantineAfterK:
      quarantine(core);
      undo.quarantined = true;
      return RecoveryAction::Quarantine;
    case RecoveryPolicy::ReinstallLastGood:
      if (state.reinstalls >= config_.max_reinstalls) {
        quarantine(core);
        undo.quarantined = true;
        return RecoveryAction::Quarantine;
      }
      reinstall_requests_.fetch_add(1, std::memory_order_relaxed);
      undo.reinstall_requested = true;
      return RecoveryAction::Reinstall;
  }
  return RecoveryAction::None;
}

void RecoveryController::undo_outcome(std::size_t core,
                                      const OutcomeUndo& undo) {
  if (!undo.applied) return;
  CoreState& state = cores_[core];
  if (!undo.prev_window.empty()) state.window = undo.prev_window;
  if (undo.quarantined) {
    state.health.store(CoreHealth::Healthy, std::memory_order_relaxed);
    quarantine_events_.fetch_sub(1, std::memory_order_relaxed);
  }
  if (undo.reinstall_requested) {
    reinstall_requests_.fetch_sub(1, std::memory_order_relaxed);
  }
  if (undo.violation) {
    total_violations_.fetch_sub(1, std::memory_order_relaxed);
  }
  state.window[undo.prev_pos] = undo.prev_bit;
  state.window_pos = undo.prev_pos;
  state.window_fill = undo.prev_fill;
  state.window_violations = undo.prev_violations;
  state.reinstalls = undo.prev_reinstalls;
}

void RecoveryController::set_offline(std::size_t core, bool offline) {
  CoreState& state = cores_[core];
  if (offline) {
    state.health.store(CoreHealth::Offline, std::memory_order_relaxed);
  } else if (state.health.load(std::memory_order_relaxed) ==
             CoreHealth::Offline) {
    state.health.store(CoreHealth::Healthy, std::memory_order_relaxed);
    clear_window(state);
    state.reinstalls = 0;
  }
}

void RecoveryController::quarantine(std::size_t core) {
  CoreState& state = cores_[core];
  if (state.health.load(std::memory_order_relaxed) ==
      CoreHealth::Quarantined) {
    return;
  }
  state.health.store(CoreHealth::Quarantined, std::memory_order_relaxed);
  quarantine_events_.fetch_add(1, std::memory_order_relaxed);
}

void RecoveryController::release(std::size_t core) {
  CoreState& state = cores_[core];
  state.health.store(CoreHealth::Healthy, std::memory_order_relaxed);
  clear_window(state);
  state.reinstalls = 0;
}

void RecoveryController::note_reinstall(std::size_t core,
                                        OutcomeUndo* undo) {
  CoreState& state = cores_[core];
  if (undo != nullptr) undo->prev_window = state.window;
  ++state.reinstalls;
  clear_window(state);
}

std::size_t RecoveryController::healthy_cores() const {
  std::size_t n = 0;
  for (const auto& state : cores_) {
    if (state.health.load(std::memory_order_relaxed) == CoreHealth::Healthy) {
      ++n;
    }
  }
  return n;
}

}  // namespace sdmmon::np
