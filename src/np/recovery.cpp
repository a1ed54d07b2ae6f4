#include "np/recovery.hpp"

namespace sdmmon::np {

const char* core_health_name(CoreHealth health) {
  switch (health) {
    case CoreHealth::Healthy: return "healthy";
    case CoreHealth::Quarantined: return "quarantined";
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
  CoreState& state = cores_[core];
  if (state.health != CoreHealth::Healthy) return RecoveryAction::None;

  // Traps (faults, watchdog) count alongside monitor mismatches: on a
  // healthy binary they usually mean a corrupted program store -- exactly
  // what reinstall fixes.
  const bool violation = outcome == PacketOutcome::AttackDetected ||
                         outcome == PacketOutcome::Trapped;
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
      return RecoveryAction::Quarantine;
    case RecoveryPolicy::ReinstallLastGood:
      if (state.reinstalls >= config_.max_reinstalls) {
        quarantine(core);
        return RecoveryAction::Quarantine;
      }
      reinstall_requests_.fetch_add(1, std::memory_order_relaxed);
      return RecoveryAction::Reinstall;
  }
  return RecoveryAction::None;
}

void RecoveryController::quarantine(std::size_t core) {
  cores_[core].health = CoreHealth::Quarantined;
  quarantine_events_.fetch_add(1, std::memory_order_relaxed);
}

void RecoveryController::release(std::size_t core) {
  CoreState& state = cores_[core];
  state.health = CoreHealth::Healthy;
  clear_window(state);
  state.reinstalls = 0;
}

void RecoveryController::note_reinstall(std::size_t core) {
  CoreState& state = cores_[core];
  ++state.reinstalls;
  clear_window(state);
}

}  // namespace sdmmon::np
