// Per-core attack-recovery policy, extending the paper's single recovery
// action (drop packet, reset core, continue -- Section 2.1) into a state
// machine suited to sustained attacks:
//
//               K violations in window            reinstalls exhausted
//   Healthy ------------------------------> ... ------------------------
//     ^  |                                                             |
//     |  | policy = ResetAndContinue: stay Healthy (paper baseline)    v
//     |  | policy = ReinstallLastGood: re-image from last-good,   Quarantined
//     |  |   up to max_reinstalls, then quarantine                     |
//     |  | policy = QuarantineAfterK: quarantine immediately           |
//     |  +-----------------------------------------------------------> |
//     +------------------- release() (operator action) ----------------+
//
// Offline is a separate administrative state (hardware fault / manual
// drain); only an explicit set_offline(false) brings a core back. The
// dispatcher treats Quarantined and Offline cores as undispatchable, so a
// compromised or flaky core sheds load to its healthy peers instead of
// black-holing a fixed slice of traffic.
#ifndef SDMMON_NP_RECOVERY_HPP
#define SDMMON_NP_RECOVERY_HPP

#include <atomic>
#include <cstdint>
#include <limits>
#include <vector>

#include "np/monitored_core.hpp"

namespace sdmmon::np {

enum class CoreHealth : std::uint8_t {
  Healthy,      // dispatchable
  Quarantined,  // too many violations; excluded until released
  Offline,      // administratively removed (fault / drain)
};

const char* core_health_name(CoreHealth health);

enum class RecoveryPolicy : std::uint8_t {
  ResetAndContinue,  // paper baseline: per-packet reset only, never isolate
  QuarantineAfterK,  // isolate a core after K violations in the window
  ReinstallLastGood, // re-image from last-good config first; quarantine
                     // only after max_reinstalls re-images in a row fail
                     // to stop the violations
};

const char* recovery_policy_name(RecoveryPolicy policy);

/// RecoveryConfig::max_reinstalls value that never escalates:
/// ReinstallLastGood then re-images a core on every trip and never
/// quarantines it, so the dispatch set only changes by operator action.
inline constexpr std::size_t kUnboundedReinstalls =
    std::numeric_limits<std::size_t>::max();

struct RecoveryConfig {
  RecoveryPolicy policy = RecoveryPolicy::ResetAndContinue;
  /// K: violations within the sliding window that trip the policy.
  std::size_t violation_threshold = 3;
  /// Sliding window length, in packets processed by the core.
  std::size_t window_packets = 64;
  /// ReinstallLastGood: re-images allowed before escalating to quarantine
  /// (kUnboundedReinstalls: never escalate).
  std::size_t max_reinstalls = 2;

  /// True when the policy can take a core out of the dispatch set by
  /// itself: QuarantineAfterK, and ReinstallLastGood unless
  /// max_reinstalls is kUnboundedReinstalls. Only a quarantine changes
  /// where later packets go, so the parallel engine speculates with
  /// rollback capture exactly when this holds.
  bool can_quarantine() const {
    return policy == RecoveryPolicy::QuarantineAfterK ||
           (policy == RecoveryPolicy::ReinstallLastGood &&
            max_reinstalls != kUnboundedReinstalls);
  }
};

/// What the caller (the MPSoC) must do after reporting an outcome.
enum class RecoveryAction : std::uint8_t {
  None,       // nothing beyond the per-packet reset the core already did
  Reinstall,  // re-image the core from its last-good config
  Quarantine, // the controller just quarantined the core
};

class RecoveryController {
 public:
  explicit RecoveryController(std::size_t num_cores,
                              RecoveryConfig config = {});

  const RecoveryConfig& config() const { return config_; }
  std::size_t num_cores() const { return cores_.size(); }

  /// Report one packet outcome for `core`; returns the action the policy
  /// demands. Quarantined/offline cores report None (they should not be
  /// receiving packets at all).
  RecoveryAction on_outcome(std::size_t core, PacketOutcome outcome);

  /// Everything on_outcome changed, captured so a speculative outcome can
  /// be withdrawn exactly (the parallel engine rolls outcomes back when a
  /// recovery epoch rewinds past them).
  struct OutcomeUndo {
    bool applied = false;            // core was Healthy; effects occurred
    bool violation = false;
    bool quarantined = false;        // this call performed the quarantine
    bool reinstall_requested = false;
    bool prev_bit = false;           // overwritten window slot
    std::size_t prev_pos = 0;
    std::size_t prev_fill = 0;
    std::size_t prev_violations = 0;
    std::size_t prev_reinstalls = 0;
    /// The window (after this call's slide) that a following
    /// note_reinstall(core, &undo) cleared; empty when none ran. The
    /// prev_* values above restore its position and counts.
    std::vector<bool> prev_window;
  };

  /// on_outcome with an undo record. Thread contract: a core's state is
  /// touched only by the worker of the shard that owns the core, or by
  /// the epoch coordinator while every worker is parked; the global
  /// tallies are relaxed atomics so concurrent reporters on *different*
  /// cores are safe.
  RecoveryAction on_outcome_speculative(std::size_t core,
                                        PacketOutcome outcome,
                                        OutcomeUndo& undo);

  /// Exactly invert a prior on_outcome_speculative, and the
  /// note_reinstall it was followed by (same core, undo records applied
  /// in reverse report order).
  void undo_outcome(std::size_t core, const OutcomeUndo& undo);

  CoreHealth health(std::size_t core) const {
    return cores_[core].health.load(std::memory_order_relaxed);
  }
  bool dispatchable(std::size_t core) const {
    return health(core) == CoreHealth::Healthy;
  }

  /// Administrative transitions.
  void set_offline(std::size_t core, bool offline);
  void quarantine(std::size_t core);
  /// Operator releases a quarantined/offline core back to service with a
  /// clean violation window.
  void release(std::size_t core);

  /// The MPSoC calls this after acting on RecoveryAction::Reinstall so
  /// the escalation counter and window restart cleanly. With `undo` (the
  /// record of the on_outcome_speculative call that asked for the
  /// re-image), the cleared window is saved so undo_outcome withdraws
  /// both calls.
  void note_reinstall(std::size_t core, OutcomeUndo* undo = nullptr);

  /// Violations currently inside `core`'s sliding window.
  std::size_t window_violations(std::size_t core) const {
    return cores_[core].window_violations;
  }

  std::uint64_t total_violations() const {
    return total_violations_.load(std::memory_order_relaxed);
  }
  std::uint64_t quarantine_events() const {
    return quarantine_events_.load(std::memory_order_relaxed);
  }
  std::uint64_t reinstall_requests() const {
    return reinstall_requests_.load(std::memory_order_relaxed);
  }
  std::size_t healthy_cores() const;

 private:
  struct CoreState {
    // Atomic because the parallel engine's planner polls dispatchable()
    // while a worker may quarantine the core. The other fields are
    // touched only by the owning shard's worker, or by the epoch
    // coordinator while every worker is parked.
    std::atomic<CoreHealth> health{CoreHealth::Healthy};
    std::vector<bool> window;        // ring buffer of recent outcomes
    std::size_t window_pos = 0;
    std::size_t window_fill = 0;
    std::size_t window_violations = 0;
    std::size_t reinstalls = 0;      // consecutive re-images (escalation)
  };

  void clear_window(CoreState& state);

  RecoveryConfig config_;
  std::vector<CoreState> cores_;
  std::atomic<std::uint64_t> total_violations_{0};
  std::atomic<std::uint64_t> quarantine_events_{0};
  std::atomic<std::uint64_t> reinstall_requests_{0};
};

}  // namespace sdmmon::np

#endif  // SDMMON_NP_RECOVERY_HPP
