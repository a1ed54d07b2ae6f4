#include "sdmmon/fleet_ops.hpp"

#include <algorithm>
#include <set>

#include "sdmmon/timed_install.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"

namespace sdmmon::protocol {

std::uint64_t device_backoff_key(std::string_view device_name) {
  std::uint64_t h = 0xCBF29CE484222325ULL;  // FNV-1a offset basis
  for (char c : device_name) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 0x100000001B3ULL;
  }
  return h;
}

double retry_backoff_s(const RetryPolicy& policy, std::uint64_t device_key,
                       std::size_t gap) {
  double base = policy.initial_backoff_s;
  for (std::size_t i = 0; i < gap && base < policy.max_backoff_s; ++i) {
    base *= policy.backoff_multiplier;
  }
  base = std::min(base, policy.max_backoff_s);
  if (policy.jitter <= 0) return base;
  // One deterministic draw per (device, gap): reseeding is cheap and
  // keeps the draw independent of any other RNG use on this device.
  util::Rng rng(device_key + 0x9E3779B97F4A7C15ULL * (gap + 1));
  double factor = 1.0 + policy.jitter * (2.0 * rng.uniform() - 1.0);
  return base * factor;
}

const char* device_outcome_name(DeviceOutcome outcome) {
  switch (outcome) {
    case DeviceOutcome::Installed: return "installed";
    case DeviceOutcome::Rejected: return "rejected";
    case DeviceOutcome::ChannelLost: return "channel-lost";
    case DeviceOutcome::BudgetExhausted: return "budget-exhausted";
    case DeviceOutcome::SkippedUnhealthy: return "skipped-unhealthy";
  }
  return "?";
}

std::unique_ptr<FleetObs> FleetObs::create(obs::Registry& registry) {
  auto obs = std::make_unique<FleetObs>();
  obs->registry = &registry;
  obs->journal = &registry.journal();
  obs->attempts = &registry.counter(obs::names::kFleetAttempts);
  obs->retries = &registry.counter(obs::names::kFleetRetries);
  obs->installed = &registry.counter(obs::names::kFleetInstalled);
  obs->rejected = &registry.counter(obs::names::kFleetRejected);
  obs->channel_lost = &registry.counter(obs::names::kFleetChannelLost);
  obs->budget_exhausted =
      &registry.counter(obs::names::kFleetBudgetExhausted);
  obs->skipped_unhealthy =
      &registry.counter(obs::names::kFleetSkippedUnhealthy);
  obs->attempts_per_device = &registry.histogram(
      obs::names::kFleetAttemptsPerDevice, obs::width_buckets());
  // Modeled backoff per device, milliseconds: spans the default schedule
  // (0.5 s first retry) up past the default 30 s budget.
  static constexpr std::uint64_t kBackoffBoundsMs[] = {
      100, 250, 500, 1000, 2500, 5000, 10000, 30000, 60000};
  obs->backoff_ms =
      &registry.histogram(obs::names::kFleetBackoffMs, kBackoffBoundsMs);
  return obs;
}

void FleetObs::record_report(const DeviceReport& report,
                             std::uint32_t device_index) {
  attempts->add(report.attempts);
  if (report.attempts > 1) retries->add(report.attempts - 1);
  switch (report.outcome) {
    case DeviceOutcome::Installed: installed->add(1); break;
    case DeviceOutcome::Rejected: rejected->add(1); break;
    case DeviceOutcome::ChannelLost: channel_lost->add(1); break;
    case DeviceOutcome::BudgetExhausted: budget_exhausted->add(1); break;
    case DeviceOutcome::SkippedUnhealthy: skipped_unhealthy->add(1); break;
  }
  if (report.attempts > 0) attempts_per_device->record(report.attempts);
  backoff_ms->record(static_cast<std::uint64_t>(report.backoff_s * 1000.0));
  if (!report.ok()) {
    journal->record({obs::EventKind::CampaignFailure, attempts->value(),
                     obs::kAllCores, device_index,
                     static_cast<std::uint64_t>(report.outcome)});
  }
}

void FleetOperator::enable_obs(obs::Registry& registry) {
  obs_ = FleetObs::create(registry);
}

std::uint32_t FleetOperator::device_index(const std::string& name) const {
  for (std::size_t i = 0; i < devices_.size(); ++i) {
    if (devices_[i]->name() == name) return static_cast<std::uint32_t>(i);
  }
  return obs::kAllCores;  // not enrolled (should not happen)
}

DeviceReport FleetOperator::deploy_one(NetworkProcessorDevice& device,
                                       const isa::Program& binary,
                                       std::uint64_t now, Channel& channel,
                                       const RetryPolicy& retry) {
  DeviceReport report;
  report.device = device.name();
  const std::uint64_t key = device_backoff_key(report.device);

  for (std::size_t attempt = 0; attempt < retry.max_attempts; ++attempt) {
    // Each attempt is a freshly sealed package: a new hash parameter and,
    // crucially, a new sequence number -- so a retry after a lost *reply*
    // (the device actually installed) is fresh, not a replay.
    WirePackage wire = op_.program_device(binary, device.public_key());
    ChannelResult sent = channel.send_install(device, wire, now);
    ++report.attempts;

    if (sent.status == ChannelStatus::Delivered) {
      report.saw_reply = true;
      report.last_status = sent.install_status;
      if (sent.install_status == InstallStatus::Ok) {
        report.outcome = DeviceOutcome::Installed;
        return report;
      }
      if (install_status_permanent(sent.install_status)) {
        // Retrying cannot fix bad keys/certs/signatures; fail fast.
        report.outcome = DeviceOutcome::Rejected;
        return report;
      }
    }

    if (attempt + 1 == retry.max_attempts) break;
    double backoff = retry_backoff_s(retry, key, attempt);
    if (report.backoff_s + backoff > retry.backoff_budget_s) {
      report.outcome = DeviceOutcome::BudgetExhausted;
      return report;
    }
    report.backoff_s += backoff;
  }

  report.outcome = report.saw_reply ? DeviceOutcome::Rejected
                                    : DeviceOutcome::ChannelLost;
  return report;
}

FleetOperator::CampaignResult FleetOperator::run_campaign(
    const std::vector<NetworkProcessorDevice*>& targets,
    const isa::Program& binary, std::uint64_t now,
    const NiosTimingModel& model, Channel* channel,
    const RetryPolicy& retry) {
  DirectChannel direct;
  Channel& link = channel != nullptr ? *channel : direct;

  CampaignResult result;
  pending_.clear();
  double per_install_s = 0;
  bool measured = false;

  for (NetworkProcessorDevice* device : targets) {
    if (!measured) {
      // Instrument one representative install to extrapolate the
      // campaign cost (uses a scratch package; the DRBG advances, which
      // is fine -- parameters must be fresh anyway).
      WirePackage probe = op_.program_device(binary, device->public_key());
      TimedInstallResult timed =
          timed_install(probe, device->private_key_for_instrumentation(),
                        manufacturer_root_, now);
      if (timed.ok) per_install_s = timed.timing(model).total();
      measured = timed.ok;
    }
    DeviceReport report = deploy_one(*device, binary, now, link, retry);
    if (obs_) obs_->record_report(report, device_index(report.device));
    result.modeled_seconds_sequential +=
        per_install_s * static_cast<double>(report.attempts) +
        report.backoff_s;
    if (report.ok()) {
      ++result.succeeded;
    } else {
      ++result.failed;
      pending_.push_back(device);
      util::log_info("campaign: device ", report.device, " failed (",
                     device_outcome_name(report.outcome), ", last status ",
                     install_status_name(report.last_status), ", ",
                     report.attempts, " attempts)");
    }
    result.reports.push_back(std::move(report));
  }
  return result;
}

FleetOperator::CampaignResult FleetOperator::deploy(
    const isa::Program& binary, std::uint64_t now,
    const NiosTimingModel& model, Channel* channel,
    const RetryPolicy& retry) {
  last_binary_ = binary;
  has_binary_ = true;
  return run_campaign(devices_, binary, now, model, channel, retry);
}

FleetOperator::CampaignResult FleetOperator::resume(
    std::uint64_t now, const NiosTimingModel& model, Channel* channel,
    const RetryPolicy& retry) {
  if (!has_binary_ || pending_.empty()) return {};
  std::vector<NetworkProcessorDevice*> targets = std::move(pending_);
  pending_.clear();
  return run_campaign(targets, last_binary_, now, model, channel, retry);
}

FleetOperator::CampaignResult FleetOperator::rotate_parameters(
    std::uint64_t now, const NiosTimingModel& model, Channel* channel,
    const RetryPolicy& retry) {
  if (!has_binary_) return {};

  std::vector<NetworkProcessorDevice*> healthy;
  std::vector<DeviceReport> skipped;
  for (NetworkProcessorDevice* device : devices_) {
    if (device->install_attempted() && !device->last_install_ok()) {
      DeviceReport report;
      report.device = device->name();
      report.outcome = DeviceOutcome::SkippedUnhealthy;
      report.last_status = device->last_install_status();
      if (obs_) obs_->record_report(report, device_index(report.device));
      skipped.push_back(std::move(report));
    } else {
      healthy.push_back(device);
    }
  }

  CampaignResult result =
      run_campaign(healthy, last_binary_, now, model, channel, retry);
  result.skipped = skipped.size();
  for (DeviceReport& report : skipped) {
    // Unhealthy devices stay on the pending list so resume() can bring
    // them back once the underlying fault clears.
    auto it = std::find_if(devices_.begin(), devices_.end(),
                           [&](NetworkProcessorDevice* d) {
                             return d->name() == report.device;
                           });
    if (it != devices_.end()) pending_.push_back(*it);
    result.reports.push_back(std::move(report));
  }
  return result;
}

bool FleetOperator::parameters_all_distinct() const {
  std::set<std::uint32_t> seen;
  for (const NetworkProcessorDevice* device : devices_) {
    if (!device->has_application()) continue;
    const auto& soc = device->mpsoc();
    if (soc.num_cores() == 0 || !soc.core(0).installed()) continue;
    const auto* merkle = dynamic_cast<const monitor::MerkleTreeHash*>(
        &soc.core(0).monitor().hash());
    if (merkle == nullptr) continue;
    if (!seen.insert(merkle->parameter()).second) return false;
  }
  return true;
}

}  // namespace sdmmon::protocol
