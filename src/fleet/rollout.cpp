#include "fleet/rollout.hpp"

#include <algorithm>

namespace sdmmon::fleet {

HaltReason HaltController::evaluate(const WaveStats& wave) const {
  if (wave.installed >= thresholds_.min_sample) {
    double rate = static_cast<double>(wave.quarantined) /
                  static_cast<double>(wave.installed);
    if (rate > thresholds_.max_quarantine_rate) {
      return HaltReason::QuarantineRate;
    }
  }
  if (wave.outcomes() >= thresholds_.min_sample) {
    double rate = static_cast<double>(wave.rejected) /
                  static_cast<double>(wave.outcomes());
    if (rate > thresholds_.max_rejection_rate) {
      return HaltReason::RejectionRate;
    }
  }
  return HaltReason::None;
}

double fleet_health_score(const FleetHealth& health) {
  if (health.devices == 0) return 100.0;
  const double n = static_cast<double>(health.devices);
  double score = 100.0 * health.convergence();
  // In-flight devices are not failures: credit them at half weight so a
  // mid-rollout fleet reads "converging", not "broken".
  score += 50.0 * static_cast<double>(health.in_flight) / n;
  // Quarantines are monitor verdicts -- penalize beyond the convergence
  // loss already incurred. Delivery failures cost less: the fleet is
  // stale, not compromised.
  score -= 200.0 * static_cast<double>(health.quarantined) / n;
  score -= 50.0 * static_cast<double>(health.rejected) / n;
  score -= 25.0 * static_cast<double>(health.unreachable) / n;
  // Rolled-back devices are safe (running last-good) but the rollout
  // failed for them.
  score -= 10.0 * static_cast<double>(health.rolled_back) / n;
  return std::clamp(score, 0.0, 100.0);
}

}  // namespace sdmmon::fleet
