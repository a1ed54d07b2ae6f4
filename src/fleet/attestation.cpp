#include "fleet/attestation.hpp"

#include <algorithm>
#include <string>

#include "monitor/hash.hpp"
#include "np/mpsoc.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/names.hpp"
#include "sdmmon/entities.hpp"

namespace sdmmon::fleet {

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

namespace {

// Sum all counters named "<prefix>.<core>" in a snapshot's counter map.
std::uint64_t sum_prefixed(const obs::JsonValue& counters,
                           const std::string& prefix) {
  std::uint64_t total = 0;
  const std::string dotted = prefix + ".";
  for (const auto& [name, value] : counters.members()) {
    if (name.rfind(dotted, 0) == 0) {
      total += static_cast<std::uint64_t>(value.as_int());
    }
  }
  return total;
}

std::uint64_t counter_or_zero(const obs::JsonValue& counters,
                              const std::string& name) {
  if (!counters.has(name)) return 0;
  return static_cast<std::uint64_t>(counters.at(name).as_int());
}

}  // namespace

AttestationReport attest_concrete(
    const protocol::NetworkProcessorDevice& device,
    const obs::Registry* registry) {
  AttestationReport report;
  report.concrete = true;
  report.state = DeviceState::Enrolled;

  if (const auto* merkle = dynamic_cast<const monitor::MerkleTreeHash*>(
          &device.mpsoc().core(0).monitor().hash())) {
    report.hash_param = merkle->parameter();
  }

  bool from_snapshot = false;
  if (registry != nullptr) {
    // Parse the registry's own JSON snapshot -- the exact document a
    // device-side reporting agent would ship to the fleet backend.
    const obs::JsonValue doc = obs::JsonValue::parse(registry->snapshot_json());
    const obs::JsonValue& counters = doc.at("counters");
    report.packets = sum_prefixed(counters, obs::names::kCorePackets);
    report.attacks = sum_prefixed(counters, obs::names::kCoreAttacks);
    report.traps = sum_prefixed(counters, obs::names::kCoreTraps);
    report.quarantines =
        counter_or_zero(counters, obs::names::kEngineQuarantines);
    report.reinstalls =
        counter_or_zero(counters, obs::names::kEngineReinstalls);
    from_snapshot = true;
  }
  if (!from_snapshot) {
    const np::MpsocStats stats = device.mpsoc().aggregate_stats();
    report.packets = stats.packets;
    report.attacks = stats.attacks_detected;
    report.traps = stats.traps;
    report.quarantines = stats.quarantine_events;
    report.reinstalls = stats.reinstalls;
  }
  return report;
}

AttestationReport attest_modeled(const ModeledDevice& device) {
  AttestationReport report;
  report.device_id = device.id;
  report.concrete = false;
  report.version = device.version;
  report.state = device.state;
  // The per-device hash parameter the modeled operator would have drawn
  // for this (device, version) pairing: deterministic, version-diverse --
  // the SR2 property the fleet backend audits for.
  report.hash_param = static_cast<std::uint32_t>(
      mix_seed(device.seed, 0x5122'0000ull + device.version));
  if (device.state == DeviceState::Quarantined) {
    // A quarantined modeled device reports the violation burst that
    // tripped its monitor.
    report.attacks = 1;
    report.quarantines = 1;
  }
  return report;
}

}  // namespace sdmmon::fleet
