// Operator-side fleet management. The paper's homogeneity argument (SR2)
// assumes the operator actually provisions *distinct* hash parameters on
// every router and can re-key the fleet; this module implements that
// operational layer: enrollment, fleet-wide deployment campaigns (one
// sealed package per device, each with a fresh parameter), and scheduled
// parameter rotation that re-seals the current application for every
// enrolled device.
//
// Campaigns run over an injectable Channel and tolerate loss: each device
// gets per-attempt re-sealing (a retry is a *fresh* package, so sequence
// numbers stay monotone even when only the reply was lost), exponential
// backoff under a per-device budget, typed per-device failure reasons,
// and resumability -- resume() retries exactly the devices the previous
// campaign left unconverged.
#ifndef SDMMON_SDMMON_FLEET_OPS_HPP
#define SDMMON_SDMMON_FLEET_OPS_HPP

#include <memory>
#include <string>
#include <vector>

#include "obs/obs.hpp"
#include "sdmmon/channel.hpp"
#include "sdmmon/entities.hpp"
#include "sdmmon/timing.hpp"

namespace sdmmon::protocol {

/// Retry/backoff schedule for one campaign. Backoff is modeled seconds
/// (the campaign clock), not host wall-clock.
struct RetryPolicy {
  std::size_t max_attempts = 4;
  double initial_backoff_s = 0.5;
  double backoff_multiplier = 2.0;
  double max_backoff_s = 8.0;
  /// Cumulative backoff budget per device; exceeding it fails the device
  /// with BudgetExhausted rather than retrying forever.
  double backoff_budget_s = 30.0;
  /// Deterministic per-device jitter: each backoff gap is scaled by a
  /// factor drawn uniformly from [1 - jitter, 1 + jitter], seeded from
  /// the device's key -- so a fleet-wide outage does not resynchronize
  /// every device onto the same retry instants (a retry storm). 0 keeps
  /// the exact geometric schedule.
  double jitter = 0.0;
};

/// Stable 64-bit backoff-jitter key for a device (FNV-1a over the name);
/// two fleets naming devices identically jitter identically on purpose --
/// determinism beats uniqueness here.
std::uint64_t device_backoff_key(std::string_view device_name);

/// The backoff gap between attempt `gap` and attempt `gap + 1` (0-based).
/// Pure in (policy, device_key, gap): with jitter == 0 this is exactly
/// min(initial * multiplier^gap, max); with jitter > 0 the same value
/// scaled by the device's deterministic jitter factor for that gap.
double retry_backoff_s(const RetryPolicy& policy, std::uint64_t device_key,
                       std::size_t gap);

/// Why a device ended the campaign in the state it did.
enum class DeviceOutcome : std::uint8_t {
  Installed,        // converged
  Rejected,         // device returned a rejection (see last_status)
  ChannelLost,      // every attempt vanished into the channel
  BudgetExhausted,  // retries stopped by the backoff budget
  SkippedUnhealthy, // rotation skipped it: last install had failed
};

const char* device_outcome_name(DeviceOutcome outcome);

/// Per-device campaign record -- the typed failure reason the bare
/// success/failure counters of the original API could not express.
struct DeviceReport {
  std::string device;
  DeviceOutcome outcome = DeviceOutcome::ChannelLost;
  /// Last device-side verdict the operator actually saw (only meaningful
  /// when saw_reply is true).
  InstallStatus last_status = InstallStatus::Ok;
  bool saw_reply = false;
  std::size_t attempts = 0;
  double backoff_s = 0;  // modeled seconds spent waiting between attempts

  bool ok() const { return outcome == DeviceOutcome::Installed; }
};

/// Cached observability handles for fleet campaigns: attempt/retry
/// counters, one counter per DeviceOutcome, and per-device attempt /
/// backoff distributions. Campaign paths are cold (operator actions, not
/// packets), so every report is recorded without sampling.
struct FleetObs {
  obs::Registry* registry = nullptr;
  obs::EventJournal* journal = nullptr;
  obs::Counter* attempts = nullptr;       // install attempts sent
  obs::Counter* retries = nullptr;        // attempts beyond the first
  obs::Counter* installed = nullptr;
  obs::Counter* rejected = nullptr;
  obs::Counter* channel_lost = nullptr;
  obs::Counter* budget_exhausted = nullptr;
  obs::Counter* skipped_unhealthy = nullptr;
  obs::Histogram* attempts_per_device = nullptr;
  obs::Histogram* backoff_ms = nullptr;

  static std::unique_ptr<FleetObs> create(obs::Registry& registry);
  /// Fold one finished per-device report into the metrics; journals a
  /// CampaignFailure event (device = enrollment index, arg = outcome)
  /// when the device did not converge.
  void record_report(const DeviceReport& report, std::uint32_t device_index);
};

class FleetOperator {
 public:
  /// `manufacturer_root` is the manufacturer's public key (the operator
  /// knows it -- its own certificate chains to it); used only to
  /// instrument a representative install for campaign-cost estimates.
  FleetOperator(NetworkOperator& op, crypto::RsaPublicKey manufacturer_root)
      : op_(op), manufacturer_root_(std::move(manufacturer_root)) {}

  /// Register a device (non-owning; devices outlive the fleet view).
  void enroll(NetworkProcessorDevice* device) { devices_.push_back(device); }

  std::size_t size() const { return devices_.size(); }

  struct CampaignResult {
    std::size_t succeeded = 0;
    std::size_t failed = 0;
    std::size_t skipped = 0;  // rotation only: unhealthy devices
    /// Modeled wall-clock of the campaign on the embedded side if the
    /// installs run sequentially (one instrumented install extrapolated
    /// across the fleet, plus all modeled retry backoff).
    double modeled_seconds_sequential = 0;
    std::vector<DeviceReport> reports;

    bool converged() const { return failed == 0; }
  };

  /// Install `binary` on every enrolled device, each with its own fresh
  /// hash parameter (the operator's DRBG advances per package). With the
  /// default arguments this is the original reliable single-shot deploy;
  /// pass a channel + retry policy to run over a lossy link.
  CampaignResult deploy(const isa::Program& binary, std::uint64_t now,
                        const NiosTimingModel& model = NiosTimingModel(),
                        Channel* channel = nullptr,
                        const RetryPolicy& retry = RetryPolicy());

  /// Retry only the devices the previous deploy/rotate left unconverged
  /// (using the same binary). A no-op returning an empty result when the
  /// previous campaign converged or nothing was ever deployed.
  CampaignResult resume(std::uint64_t now,
                        const NiosTimingModel& model = NiosTimingModel(),
                        Channel* channel = nullptr,
                        const RetryPolicy& retry = RetryPolicy());

  /// Devices the last campaign failed to converge (targets of resume()).
  std::size_t pending_devices() const { return pending_.size(); }

  /// Re-key the fleet: re-seal the most recently deployed binary with new
  /// parameters for every *healthy* device. Devices whose last install
  /// failed are skipped and reported (SkippedUnhealthy) -- re-sealing for
  /// them would advance sequence numbers on a device in an unknown state;
  /// they stay on resume()'s pending list instead. Bounds the value of
  /// any brute-force progress an attacker has made against one router.
  CampaignResult rotate_parameters(std::uint64_t now,
                                   const NiosTimingModel& model =
                                       NiosTimingModel(),
                                   Channel* channel = nullptr,
                                   const RetryPolicy& retry = RetryPolicy());

  /// True if no two enrolled devices share a monitor hash parameter
  /// (inspects the installed monitors; used by tests and health checks).
  bool parameters_all_distinct() const;

  /// Attach the observability layer: campaign counters/histograms go to
  /// `registry`, failed devices are journaled as CampaignFailure events.
  void enable_obs(obs::Registry& registry);

 private:
  DeviceReport deploy_one(NetworkProcessorDevice& device,
                          const isa::Program& binary, std::uint64_t now,
                          Channel& channel, const RetryPolicy& retry);
  CampaignResult run_campaign(const std::vector<NetworkProcessorDevice*>& targets,
                              const isa::Program& binary, std::uint64_t now,
                              const NiosTimingModel& model, Channel* channel,
                              const RetryPolicy& retry);

  std::uint32_t device_index(const std::string& name) const;

  NetworkOperator& op_;
  crypto::RsaPublicKey manufacturer_root_;
  std::vector<NetworkProcessorDevice*> devices_;
  std::vector<NetworkProcessorDevice*> pending_;  // unconverged last time
  isa::Program last_binary_;
  bool has_binary_ = false;
  std::unique_ptr<FleetObs> obs_;
};

}  // namespace sdmmon::protocol

#endif  // SDMMON_SDMMON_FLEET_OPS_HPP
