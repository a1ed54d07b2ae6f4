// Staged-rollout policy objects: the release being shipped, per-wave
// outcome accounting, the automatic-halt controller that freezes a
// wave when its failure rates say the release (or the fleet's view of
// it) is bad, and the fleet health score. Pure decision logic -- no scheduling, no devices -- so the
// thresholds are unit-testable and the same controller judges modeled
// and concrete outcomes identically.
#ifndef SDMMON_FLEET_ROLLOUT_HPP
#define SDMMON_FLEET_ROLLOUT_HPP

#include <cstddef>
#include <string>

#include "fleet/device_model.hpp"
#include "isa/program.hpp"

namespace sdmmon::fleet {

/// One fleet release. For the modeled fleet only `version` and
/// `behavior` matter; the concrete sample additionally seals and
/// installs `binary` through the real protocol path. A "poisoned"
/// release is simply one whose behavior (and, for concrete devices,
/// whose traffic mix) drives quarantines.
struct Release {
  std::uint32_t version = 1;
  std::string app_name;
  ReleaseBehavior behavior;
  /// Real binary for the concrete sample (empty text = modeled-only).
  isa::Program binary;
  /// Fraction of attack packets in concrete probe traffic: the concrete
  /// analogue of behavior.quarantine_rate.
  double concrete_attack_rate = 0.0;
};

/// Outcome accounting for one wave. `installed` counts devices that
/// activated the release (and is therefore the halt controller's
/// quarantine denominator); `outcomes()` counts devices whose install
/// phase ended either way (the rejection denominator).
struct WaveStats {
  std::size_t targeted = 0;
  std::size_t installed = 0;
  std::size_t healthy = 0;
  std::size_t quarantined = 0;
  std::size_t rejected = 0;
  std::size_t unreachable = 0;
  std::size_t rolled_back = 0;

  std::size_t outcomes() const {
    return installed + rejected + unreachable;
  }
  std::size_t terminal() const {
    return healthy + quarantined + rejected + unreachable + rolled_back;
  }
};

enum class HaltReason : std::uint8_t {
  None,
  QuarantineRate,  // monitors are flagging the installed release
  RejectionRate,   // devices are refusing the packages
};

/// Blast-radius thresholds. Rates are evaluated only once `min_sample`
/// devices contribute to the corresponding denominator -- early noise
/// (one canary quarantine out of three installs) must not halt a fleet.
struct HaltThresholds {
  double max_quarantine_rate = 0.02;  // quarantined / installed
  double max_rejection_rate = 0.10;   // rejected / outcomes()
  std::size_t min_sample = 50;
};

class HaltController {
 public:
  explicit HaltController(HaltThresholds thresholds = {})
      : thresholds_(thresholds) {}

  const HaltThresholds& thresholds() const { return thresholds_; }

  /// Judge one wave's running stats; None means keep rolling.
  HaltReason evaluate(const WaveStats& wave) const;

 private:
  HaltThresholds thresholds_;
};

/// Fleet-level aggregate the health score is computed from.
struct FleetHealth {
  std::size_t devices = 0;
  std::size_t healthy = 0;       // converged on the target release
  std::size_t in_flight = 0;     // scheduled / backoff / installing / baking
  std::size_t quarantined = 0;
  std::size_t rejected = 0;
  std::size_t unreachable = 0;
  std::size_t rolled_back = 0;

  double convergence() const {
    return devices == 0
               ? 1.0
               : static_cast<double>(healthy) / static_cast<double>(devices);
  }
};

/// 0..100 fleet security/health score. Convergence carries the score;
/// quarantines are weighted hard (each one is a monitor saying the fleet
/// is running something hostile) and delivery failures softly. The
/// formula is deliberately simple and documented -- operators compare
/// scores across rollouts, so stability beats cleverness.
double fleet_health_score(const FleetHealth& health);

}  // namespace sdmmon::fleet

#endif  // SDMMON_FLEET_ROLLOUT_HPP
