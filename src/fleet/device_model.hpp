// The modeled device: a ~48-byte state machine standing in for one
// router in a 10^5..10^6-device fleet. A modeled device does not run
// packets or crypto -- it walks the same install-protocol state space the
// real NetworkProcessorDevice walks (attempt, lose, reject, install,
// bake, quarantine, roll back), with every probabilistic transition drawn
// from a deterministic per-device stream seeded by (fleet seed, id). The
// retry schedule is the *real* operator schedule: protocol::RetryPolicy
// with per-device jitter, evaluated through the same retry_backoff_s the
// FleetOperator uses, so fleet-scale conclusions about retry storms and
// convergence transfer to the concrete path.
#ifndef SDMMON_FLEET_DEVICE_MODEL_HPP
#define SDMMON_FLEET_DEVICE_MODEL_HPP

#include <cstdint>

#include "fleet/sim.hpp"

namespace sdmmon::fleet {

/// Release channels, fwupd/LVFS-style: canary devices absorb a new
/// release first, beta widens the sample, stable is the long tail. A
/// device's channel is a deterministic function of (fleet seed, id), so
/// the same fleet always partitions the same way.
enum class ReleaseChannel : std::uint8_t { Canary, Beta, Stable };

/// Where a device stands in the current rollout.
enum class DeviceState : std::uint8_t {
  Enrolled,     // not (yet) targeted, running its current version
  Scheduled,    // install attempt queued by an open wave
  Backoff,      // attempt failed transiently; jittered retry pending
  Installing,   // package accepted; modeled install pipeline in flight
  Baking,       // new version live; health observation window running
  Healthy,      // converged: bake window passed without violations
  Quarantined,  // monitor flagged the release on this device
  Rejected,     // permanent rejection (bad signature/cert class)
  Unreachable,  // retry schedule exhausted without a delivery
  RolledBack,   // halt controller re-imaged it to last-good
};

/// Per-release failure characteristics as experienced by one modeled
/// device -- the modeled equivalent of what a poisoned binary, a broken
/// operator certificate, or a flaky management link does to the real
/// install path. All rates are probabilities in [0, 1].
struct ReleaseBehavior {
  double reject_rate = 0.0;      // permanent rejection per delivery
  double loss_rate = 0.0;        // per-attempt channel loss
  /// Probability the monitor flags the release during one full bake
  /// window (sampled in kBakeSlices slices so a behavior change mid-bake
  /// -- a slow-roll attack -- affects devices already baking).
  double quarantine_rate = 0.0;
  SimTime install_ms = 1500;     // modeled install-pipeline latency
  SimTime bake_ms = 30'000;      // health observation after install
};

/// Bake windows are sampled in this many slices (see quarantine_rate).
inline constexpr std::uint32_t kBakeSlices = 4;

struct ModeledDevice {
  std::uint64_t seed = 0;     // mix_seed(fleet seed, id)
  std::uint32_t id = 0;
  std::uint32_t version = 0;  // running release (0 = factory image)
  std::uint32_t last_good = 0;
  std::uint32_t draws = 0;    // per-device draw counter (determinism)
  std::uint16_t region = 0;
  std::uint16_t wave = 0;     // wave that targeted it in this rollout
  std::uint8_t attempts = 0;
  ReleaseChannel channel = ReleaseChannel::Stable;
  DeviceState state = DeviceState::Enrolled;
  float backoff_spent_s = 0;  // retry budget consumed this campaign

  /// Next deterministic draw in [0, 1). Consuming a draw advances only
  /// this device's stream; devices are mutually independent.
  double uniform();
  bool chance(double p) { return uniform() < p; }

  /// Key feeding protocol::retry_backoff_s -- the same jitter mechanism
  /// the concrete FleetOperator schedule uses.
  std::uint64_t backoff_key() const;

  /// Reset campaign-scoped fields when a new rollout targets the device.
  void begin_campaign(std::uint16_t wave_index);
};

}  // namespace sdmmon::fleet

#endif  // SDMMON_FLEET_DEVICE_MODEL_HPP
