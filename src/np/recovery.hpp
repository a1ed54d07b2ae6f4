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
// A quarantined core runs no packet. The engines take it out of
// placement kPlacementLag packets after the quarantining one (see
// np/mpsoc.hpp), so a compromised core sheds load to its healthy peers
// instead of black-holing a fixed slice of traffic.
#ifndef SDMMON_NP_RECOVERY_HPP
#define SDMMON_NP_RECOVERY_HPP

#include <atomic>
#include <cstdint>
#include <limits>
#include <vector>

#include "np/monitored_core.hpp"

namespace sdmmon::np {

enum class CoreHealth : std::uint8_t {
  Healthy,      // runs the packets placed on it
  Quarantined,  // too many violations; runs nothing until released
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
  /// demands. A quarantined core reports None (it runs no packets).
  /// Thread contract: a core's state is touched only by the one thread
  /// that runs the core's packets (the owning shard worker on the
  /// parallel engine), or by an administrative transition while the
  /// engine is quiescent; the global tallies are relaxed atomics so
  /// concurrent reporters on *different* cores are safe.
  RecoveryAction on_outcome(std::size_t core, PacketOutcome outcome);

  CoreHealth health(std::size_t core) const { return cores_[core].health; }

  /// Operator releases a quarantined core back to service with a clean
  /// violation window.
  void release(std::size_t core);

  /// The MPSoC calls this after acting on RecoveryAction::Reinstall so
  /// the escalation counter and window restart cleanly.
  void note_reinstall(std::size_t core);

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

 private:
  struct CoreState {
    CoreHealth health = CoreHealth::Healthy;
    std::vector<bool> window;        // ring buffer of recent outcomes
    std::size_t window_pos = 0;
    std::size_t window_fill = 0;
    std::size_t window_violations = 0;
    std::size_t reinstalls = 0;      // consecutive re-images (escalation)
  };

  void clear_window(CoreState& state);
  void quarantine(std::size_t core);

  RecoveryConfig config_;
  std::vector<CoreState> cores_;
  std::atomic<std::uint64_t> total_violations_{0};
  std::atomic<std::uint64_t> quarantine_events_{0};
  std::atomic<std::uint64_t> reinstall_requests_{0};
};

}  // namespace sdmmon::np

#endif  // SDMMON_NP_RECOVERY_HPP
