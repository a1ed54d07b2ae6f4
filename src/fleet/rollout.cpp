#include "fleet/rollout.hpp"

#include "crypto/sha256.hpp"
#include "util/bytes.hpp"

namespace sdmmon::fleet {

std::string release_app_hash_hex(const Release& release) {
  crypto::Sha256 hasher;
  if (!release.binary.text.empty()) {
    hasher.update(release.binary.serialize());
  } else {
    hasher.update(release.app_name);
    std::uint8_t v[4] = {
        static_cast<std::uint8_t>(release.version),
        static_cast<std::uint8_t>(release.version >> 8),
        static_cast<std::uint8_t>(release.version >> 16),
        static_cast<std::uint8_t>(release.version >> 24),
    };
    hasher.update(std::span<const std::uint8_t>(v, 4));
  }
  return util::to_hex(hasher.finish());
}

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

}  // namespace sdmmon::fleet
