#include "fleet/service.hpp"

#include <algorithm>
#include <cmath>

#include "obs/names.hpp"
#include "sdmmon/workload.hpp"

namespace sdmmon::fleet {

namespace {

// Event kinds on the fleet simulator. Rollout events carry the rollout
// epoch in `b`; a halt bumps the epoch, so everything the halted rollout
// left in the heap no-ops on dispatch -- O(1) cancellation of millions
// of in-flight events.
enum : std::uint32_t {
  kEvWaveOpen = 1,
  kEvAttempt,
  kEvInstalled,
  kEvBakeSlice,   // a = device | (slice << 32)
  kEvRollback,
  kEvBehaviorChange,  // a = index into behavior_changes_; not epoch-gated
};

constexpr std::uint16_t kNoWave = 0xFFFF;

double to_unit(std::uint64_t v) {
  return static_cast<double>(v >> 11) * 0x1.0p-53;
}

}  // namespace

std::unique_ptr<FleetSimObs> FleetSimObs::create(obs::Registry& registry) {
  auto obs = std::make_unique<FleetSimObs>();
  obs->registry = &registry;
  obs->journal = &registry.journal();
  obs->devices = &registry.gauge(obs::names::kFleetSimDevices);
  obs->converged = &registry.gauge(obs::names::kFleetSimConverged);
  obs->wave = &registry.gauge(obs::names::kFleetRolloutWave);
  obs->health_score = &registry.gauge(obs::names::kFleetHealthScore);
  obs->installs = &registry.counter(obs::names::kFleetSimInstalls);
  obs->rejections = &registry.counter(obs::names::kFleetSimRejections);
  obs->quarantines = &registry.counter(obs::names::kFleetSimQuarantines);
  obs->unreachable = &registry.counter(obs::names::kFleetSimUnreachable);
  obs->rollbacks = &registry.counter(obs::names::kFleetSimRollbacks);
  obs->halts = &registry.counter(obs::names::kFleetRolloutHalts);
  return obs;
}

FleetService::FleetService(Simulator& sim, FleetConfig config)
    : sim_(sim), config_(std::move(config)), controller_(config_.halt) {
  fleet_.resize(config_.devices);
  for (std::size_t id = 0; id < fleet_.size(); ++id) {
    ModeledDevice& dev = fleet_[id];
    dev.seed = mix_seed(config_.seed, id);
    dev.id = static_cast<std::uint32_t>(id);
    dev.region = static_cast<std::uint16_t>(
        mix_seed(config_.seed, 0xBE610000ull + id) %
        std::max<std::uint32_t>(1, config_.regions));
    const double frac = rank_fraction(id);
    dev.channel = frac < config_.canary_fraction ? ReleaseChannel::Canary
                  : frac < config_.canary_fraction + config_.beta_fraction
                      ? ReleaseChannel::Beta
                      : ReleaseChannel::Stable;
  }

  if (config_.concrete_sample > 0) {
    manufacturer_ = std::make_unique<protocol::Manufacturer>(
        "fleet-mfr", config_.concrete_key_bits, crypto::Drbg("fleet-mfr"));
    operator_ = std::make_unique<protocol::NetworkOperator>(
        "fleet-op", config_.concrete_key_bits, crypto::Drbg("fleet-op"));
    // Certificate window covers the whole modeled campaign horizon.
    operator_->accept_certificate(manufacturer_->certify_operator(
        operator_->name(), operator_->public_key(),
        config_.concrete_epoch_s - 10, config_.concrete_epoch_s + 86'400));
    const std::size_t slots =
        std::min(config_.concrete_sample, fleet_.size());
    concrete_.resize(slots);
    for (std::size_t i = 0; i < slots; ++i) {
      ConcreteSlot& slot = concrete_[i];
      slot.device = manufacturer_->provision_device(
          "fleet-dev-" + std::to_string(i), config_.concrete_cores,
          config_.concrete_recovery);
    }
  }

  if (config_.registry != nullptr) {
    obs_ = FleetSimObs::create(*config_.registry);
    obs_->devices->set(static_cast<std::int64_t>(fleet_.size()));
  }
}

FleetService::~FleetService() = default;

double FleetService::rank_fraction(std::size_t id) const {
  return to_unit(mix_seed(config_.seed, 0xAA110000ull + id));
}

protocol::NetworkProcessorDevice& FleetService::concrete_device(
    std::size_t slot) {
  return *concrete_.at(slot).device;
}

void FleetService::start_rollout(Release release) {
  release_ = std::move(release);
  running_ = true;
  halted_ = false;
  halt_reason_ = HaltReason::None;
  halted_wave_ = 0;
  halt_time_ms_ = 0;
  pending_rollbacks_ = 0;
  rollbacks_done_ = 0;
  ++rollout_epoch_;
  current_wave_ = 0;
  waves_.assign(config_.wave_fractions.size(), WaveStats{});
  wave_open_ms_.assign(config_.wave_fractions.size(), 0);
  tally_targeted_ = tally_healthy_ = tally_quarantined_ = 0;
  tally_rejected_ = tally_unreachable_ = tally_rolled_back_ = 0;
  tally_in_flight_ = 0;
  reached_t90_ = false;
  t90_ms_ = 0;
  concrete_active_ =
      !concrete_.empty() && !release_.binary.text.empty();

  for (std::size_t id = 0; id < fleet_.size(); ++id) {
    ModeledDevice& dev = fleet_[id];
    const double frac = rank_fraction(id);
    dev.wave = kNoWave;
    for (std::size_t w = 0; w < config_.wave_fractions.size(); ++w) {
      if (frac < config_.wave_fractions[w]) {
        dev.wave = static_cast<std::uint16_t>(w);
        break;
      }
    }
    if (dev.wave == kNoWave) {
      continue;  // outside the rollout's final fraction
    }
    dev.state = DeviceState::Enrolled;  // wave-open schedules the attempt
    ++waves_[dev.wave].targeted;
    ++tally_targeted_;
  }

  sim_.schedule_in(0, this, kEvWaveOpen, 0, rollout_epoch_);
  update_health_gauges();
}

void FleetService::schedule_outage(const Outage& outage) {
  outages_.push_back({outage, util::FaultInjector(outage.faults)});
}

void FleetService::schedule_behavior_change(SimTime at,
                                            ReleaseBehavior behavior) {
  behavior_changes_.push_back(behavior);
  sim_.schedule_at(at, this, kEvBehaviorChange,
                   behavior_changes_.size() - 1, 0);
}

util::FaultInjector* FleetService::active_outage(std::uint16_t region,
                                                 SimTime now) {
  for (auto& outage : outages_) {
    if (outage.spec.region == region && outage.spec.start_ms <= now &&
        now < outage.spec.end_ms) {
      return &outage.injector;
    }
  }
  return nullptr;
}

void FleetService::on_event(Simulator& sim, const SimEvent& event) {
  if (event.kind == kEvBehaviorChange) {
    release_.behavior = behavior_changes_.at(event.a);
    return;
  }
  if (!epoch_ok(event)) return;  // event from a halted rollout
  switch (event.kind) {
    case kEvWaveOpen:
      open_wave(sim, static_cast<std::uint16_t>(event.a));
      break;
    case kEvAttempt:
      handle_attempt(sim, event.a);
      break;
    case kEvInstalled:
      handle_installed(sim, event.a);
      break;
    case kEvBakeSlice:
      handle_bake_slice(sim, event.a & 0xFFFFFFFFull,
                        static_cast<std::uint32_t>(event.a >> 32));
      break;
    case kEvRollback:
      handle_rollback(sim, event.a);
      break;
    default:
      break;
  }
}

void FleetService::open_wave(Simulator& sim, std::uint16_t wave) {
  current_wave_ = wave;
  wave_open_ms_[wave] = sim.now();
  const std::size_t count = waves_[wave].targeted;
  if (obs_ != nullptr) {
    obs_->wave->set(wave);
    obs_->journal->record({obs::EventKind::RolloutWave, sim.now(),
                           obs::kAllCores, wave, count});
  }
  if (count == 0) {
    maybe_advance_wave(sim);
    return;
  }
  // Spread the wave's first attempts uniformly over the ramp window.
  std::size_t position = 0;
  for (std::size_t id = 0; id < fleet_.size(); ++id) {
    ModeledDevice& dev = fleet_[id];
    if (dev.wave != wave) continue;
    dev.begin_campaign(wave);
    ++tally_in_flight_;
    const SimTime offset = config_.wave_ramp_ms * position / count;
    ++position;
    sim.schedule_in(offset, this, kEvAttempt, id, rollout_epoch_);
  }
  update_health_gauges();
}

void FleetService::handle_attempt(Simulator& sim, std::size_t id) {
  ModeledDevice& dev = fleet_[id];
  if (halted_ || (dev.state != DeviceState::Scheduled &&
                  dev.state != DeviceState::Backoff)) {
    return;
  }
  if (is_concrete(id)) {
    attempt_concrete(sim, id);
  } else {
    attempt_modeled(sim, id);
  }
}

void FleetService::attempt_modeled(Simulator& sim, std::size_t id) {
  ModeledDevice& dev = fleet_[id];
  ++dev.attempts;
  bool lost;
  if (util::FaultInjector* injector = active_outage(dev.region, sim.now())) {
    lost = injector->drop_message();
  } else {
    lost = dev.chance(release_.behavior.loss_rate);
  }
  if (lost) {
    schedule_retry(sim, dev, dev.backoff_key());
    return;
  }
  if (dev.chance(release_.behavior.reject_rate)) {
    finish_install_phase(sim, id, DeviceState::Rejected);
    return;
  }
  dev.state = DeviceState::Installing;
  sim.schedule_in(release_.behavior.install_ms, this, kEvInstalled, id,
                  rollout_epoch_);
}

void FleetService::attempt_concrete(Simulator& sim, std::size_t id) {
  ModeledDevice& dev = fleet_[id];
  ConcreteSlot& slot = concrete_[id];
  ++dev.attempts;
  const std::uint64_t key =
      protocol::device_backoff_key(slot.device->name());
  if (util::FaultInjector* injector = active_outage(dev.region, sim.now())) {
    if (injector->drop_message()) {
      schedule_retry(sim, dev, key);
      return;
    }
  }
  // Real sealing, real wire bytes, real device-side verdict -- the same
  // per-attempt re-sealing discipline the FleetOperator uses.
  protocol::WirePackage wire = operator_->program_device(
      release_.binary, slot.device->public_key());
  protocol::ChannelResult result =
      direct_channel_.send_install(*slot.device, wire, protocol_now(sim));
  if (result.status != protocol::ChannelStatus::Delivered) {
    schedule_retry(sim, dev, key);
    return;
  }
  if (result.install_status == protocol::InstallStatus::Ok) {
    dev.state = DeviceState::Installing;
    sim.schedule_in(release_.behavior.install_ms, this, kEvInstalled, id,
                    rollout_epoch_);
    return;
  }
  if (protocol::install_status_permanent(result.install_status)) {
    finish_install_phase(sim, id, DeviceState::Rejected);
    return;
  }
  schedule_retry(sim, dev, key);  // transient damage: retry fresh
}

void FleetService::schedule_retry(Simulator& sim, ModeledDevice& dev,
                                  std::uint64_t backoff_key) {
  if (dev.attempts >= config_.retry.max_attempts) {
    finish_install_phase(sim, dev.id, DeviceState::Unreachable);
    return;
  }
  const double gap = protocol::retry_backoff_s(config_.retry, backoff_key,
                                               dev.attempts - 1);
  if (dev.backoff_spent_s + gap > config_.retry.backoff_budget_s) {
    finish_install_phase(sim, dev.id, DeviceState::Unreachable);
    return;
  }
  dev.backoff_spent_s += static_cast<float>(gap);
  dev.state = DeviceState::Backoff;
  sim.schedule_in(static_cast<SimTime>(gap * 1000.0), this, kEvAttempt,
                  dev.id, rollout_epoch_);
}

void FleetService::finish_install_phase(Simulator& sim, std::size_t id,
                                        DeviceState terminal_state) {
  ModeledDevice& dev = fleet_[id];
  dev.state = terminal_state;
  if (terminal_state == DeviceState::Rejected) {
    ++waves_[dev.wave].rejected;
    ++tally_rejected_;
    if (obs_ != nullptr) obs_->rejections->add(1);
  } else {
    ++waves_[dev.wave].unreachable;
    ++tally_unreachable_;
    if (obs_ != nullptr) obs_->unreachable->add(1);
  }
  note_terminal(sim, dev);
  check_halt(sim);
}

void FleetService::handle_installed(Simulator& sim, std::size_t id) {
  ModeledDevice& dev = fleet_[id];
  if (halted_ || dev.state != DeviceState::Installing) return;
  dev.last_good = dev.version;
  dev.version = release_.version;
  dev.state = DeviceState::Baking;
  ++waves_[dev.wave].installed;
  if (obs_ != nullptr) obs_->installs->add(1);
  if (is_concrete(id)) {
    ConcreteSlot& slot = concrete_[id];
    if (slot.has_current) {
      slot.last_good_binary = slot.current_binary;
      slot.has_last_good = true;
    }
    slot.current_binary = release_.binary;
    slot.has_current = true;
  }
  sim.schedule_in(release_.behavior.bake_ms / kBakeSlices, this,
                  kEvBakeSlice, id, rollout_epoch_);
}

void FleetService::handle_bake_slice(Simulator& sim, std::size_t id,
                                     std::uint32_t slice) {
  ModeledDevice& dev = fleet_[id];
  if (halted_ || dev.state != DeviceState::Baking) return;
  bool quarantined;
  if (is_concrete(id)) {
    // Run a probe slice of real traffic through the real monitors; the
    // release's attack rate decides whether the monitors see violations.
    ConcreteSlot& slot = concrete_[id];
    protocol::MixedWorkloadConfig wc;
    wc.seed = mix_seed(dev.seed, 0x9B0Bu);
    wc.attack_rate = release_.concrete_attack_rate;
    wc.attack_packet = config_.attack_packet;
    protocol::MixedWorkload workload(wc);
    for (std::size_t n = 0; n < config_.concrete_probe_packets; ++n) {
      protocol::WorkItem item = workload.item(slot.probe_cursor++);
      slot.device->process_packet(item.packet, item.flow_key);
    }
    quarantined =
        slot.device->mpsoc().aggregate_stats().quarantined_cores > 0;
  } else {
    // Behavior is re-read on every slice, so a slow-roll behavior change
    // catches devices already mid-bake.
    quarantined = dev.chance(release_.behavior.quarantine_rate /
                             static_cast<double>(kBakeSlices));
  }
  if (quarantined) {
    mark_quarantined(sim, dev);
    check_halt(sim);
    return;
  }
  if (slice + 1 >= kBakeSlices) {
    dev.state = DeviceState::Healthy;
    ++waves_[dev.wave].healthy;
    ++tally_healthy_;
    note_terminal(sim, dev);
    return;
  }
  const std::uint64_t next =
      static_cast<std::uint64_t>(id) |
      (static_cast<std::uint64_t>(slice + 1) << 32);
  sim.schedule_in(release_.behavior.bake_ms / kBakeSlices, this,
                  kEvBakeSlice, next, rollout_epoch_);
}

void FleetService::mark_quarantined(Simulator& sim, ModeledDevice& dev) {
  dev.state = DeviceState::Quarantined;
  ++waves_[dev.wave].quarantined;
  ++tally_quarantined_;
  if (obs_ != nullptr) obs_->quarantines->add(1);
  note_terminal(sim, dev);
}

void FleetService::note_terminal(Simulator& sim, ModeledDevice& dev) {
  (void)dev;
  --tally_in_flight_;
  if (!reached_t90_ && tally_healthy_ * 10 >= fleet_.size() * 9) {
    reached_t90_ = true;
    t90_ms_ = sim.now();
  }
  update_health_gauges();
  maybe_advance_wave(sim);
}

void FleetService::check_halt(Simulator& sim) {
  if (halted_ || !running_) return;
  const HaltReason reason = controller_.evaluate(waves_[current_wave_]);
  if (reason != HaltReason::None) halt_rollout(sim, reason);
}

void FleetService::halt_rollout(Simulator& sim, HaltReason reason) {
  halted_ = true;
  halt_reason_ = reason;
  halted_wave_ = current_wave_;
  halt_time_ms_ = sim.now();
  ++rollout_epoch_;  // every in-flight rollout event is now stale
  if (obs_ != nullptr) {
    obs_->halts->add(1);
    obs_->journal->record({obs::EventKind::RolloutHalt, sim.now(),
                           obs::kAllCores, halted_wave_,
                           static_cast<std::uint64_t>(reason)});
  }
  // Devices that never activated the release go back to Enrolled; devices
  // that did (Baking / Healthy / Quarantined on this version) are the
  // blast radius and get rolled back to last-good.
  std::size_t affected = 0;
  for (ModeledDevice& dev : fleet_) {
    switch (dev.state) {
      case DeviceState::Scheduled:
      case DeviceState::Backoff:
      case DeviceState::Installing:
        dev.state = DeviceState::Enrolled;
        --tally_in_flight_;
        break;
      case DeviceState::Baking:
      case DeviceState::Healthy:
      case DeviceState::Quarantined:
        if (dev.version == release_.version) ++affected;
        break;
      default:
        break;
    }
  }
  pending_rollbacks_ = affected;
  if (affected == 0) {
    update_health_gauges();
    return;
  }
  std::size_t position = 0;
  for (std::size_t id = 0; id < fleet_.size(); ++id) {
    ModeledDevice& dev = fleet_[id];
    const bool activated = dev.version == release_.version &&
                           (dev.state == DeviceState::Baking ||
                            dev.state == DeviceState::Healthy ||
                            dev.state == DeviceState::Quarantined);
    if (!activated) continue;
    const SimTime offset = config_.rollback_ramp_ms * position / affected;
    ++position;
    sim.schedule_in(offset, this, kEvRollback, id, rollout_epoch_);
  }
  update_health_gauges();
}

void FleetService::handle_rollback(Simulator& sim, std::size_t id) {
  ModeledDevice& dev = fleet_[id];
  WaveStats& wave = waves_[dev.wave];
  switch (dev.state) {
    case DeviceState::Baking:
      --tally_in_flight_;
      break;
    case DeviceState::Healthy:
      --tally_healthy_;
      --wave.healthy;
      break;
    case DeviceState::Quarantined:
      --tally_quarantined_;
      --wave.quarantined;
      break;
    default:
      return;  // already resolved some other way
  }
  dev.version = dev.last_good;
  dev.state = DeviceState::RolledBack;
  ++wave.rolled_back;
  ++tally_rolled_back_;
  ++rollbacks_done_;
  --pending_rollbacks_;
  if (obs_ != nullptr) obs_->rollbacks->add(1);
  if (is_concrete(id)) {
    // Real recovery: release quarantined cores, re-image last-good.
    ConcreteSlot& slot = concrete_[id];
    np::Mpsoc& soc = slot.device->mpsoc();
    for (std::size_t c = 0; c < soc.num_cores(); ++c) {
      if (soc.core_health(c) == np::CoreHealth::Quarantined) {
        soc.release_core(c);
      }
    }
    if (slot.has_last_good) {
      protocol::WirePackage wire = operator_->program_device(
          slot.last_good_binary, slot.device->public_key());
      (void)direct_channel_.send_install(*slot.device, wire,
                                         protocol_now(sim));
      slot.current_binary = slot.last_good_binary;
    }
  }
  update_health_gauges();
  if (pending_rollbacks_ == 0) {
    if (obs_ != nullptr) {
      obs_->journal->record({obs::EventKind::RolloutRollback, sim.now(),
                             obs::kAllCores, halted_wave_,
                             rollbacks_done_});
    }
    running_ = false;
  }
}

void FleetService::maybe_advance_wave(Simulator& sim) {
  if (halted_ || !running_) return;
  const WaveStats& wave = waves_[current_wave_];
  if (wave.terminal() < wave.targeted) return;
  if (std::size_t{current_wave_} + 1 < waves_.size()) {
    sim.schedule_in(config_.wave_gap_ms, this, kEvWaveOpen,
                    current_wave_ + 1, rollout_epoch_);
  } else {
    running_ = false;
  }
}

bool FleetService::rollout_done() const {
  return halted_ ? pending_rollbacks_ == 0 : !running_;
}

FleetHealth FleetService::health() const {
  FleetHealth health;
  health.devices = fleet_.size();
  health.healthy = tally_healthy_;
  health.in_flight = tally_in_flight_;
  health.quarantined = tally_quarantined_;
  health.rejected = tally_rejected_;
  health.unreachable = tally_unreachable_;
  health.rolled_back = tally_rolled_back_;
  return health;
}

void FleetService::update_health_gauges() {
  if (obs_ == nullptr) return;
  obs_->converged->set(static_cast<std::int64_t>(tally_healthy_));
  obs_->health_score->set(
      static_cast<std::int64_t>(std::lround(fleet_health_score(health()))));
}

RolloutReport FleetService::report() const {
  RolloutReport report;
  report.halted = halted_;
  report.halt_reason = halt_reason_;
  report.halted_wave = halted_wave_;
  report.halt_time_ms = halt_time_ms_;
  report.halt_detect_ms =
      halted_ ? halt_time_ms_ - wave_open_ms_[halted_wave_] : 0;
  std::size_t affected = 0;
  for (const WaveStats& wave : waves_) affected += wave.installed;
  report.affected = halted_ ? affected : 0;
  report.rollbacks = rollbacks_done_;
  report.reached_t90 = reached_t90_;
  report.t90_ms = t90_ms_;
  report.waves = waves_;
  report.health = health();
  report.health_score = fleet_health_score(report.health);
  return report;
}

}  // namespace sdmmon::fleet
