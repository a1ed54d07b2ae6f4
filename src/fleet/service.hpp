// The fleet service: a discrete-event rollout engine driving the install
// protocol across 10^5..10^6 modeled devices plus a configurable sample
// of concrete NetworkProcessorDevices, with staged waves, release
// channels, an automatic-halt controller, and rollback to last-good.
//
// The service is one SimActor: every device transition is an event on
// the shared deterministic scheduler, so a million-device rollout is a
// single-threaded replayable run. Modeled devices exercise the protocol
// *shape* (attempt / loss / reject / install / bake / quarantine with
// the real RetryPolicy schedule); the concrete sample exercises the
// protocol *substance* (real sealing, real wire codec, real monitors
// quarantining under real attack traffic), and both feed the same wave
// accounting and the same halt controller.
#ifndef SDMMON_FLEET_SERVICE_HPP
#define SDMMON_FLEET_SERVICE_HPP

#include <memory>
#include <string>
#include <vector>

#include "fleet/device_model.hpp"
#include "fleet/rollout.hpp"
#include "fleet/sim.hpp"
#include "obs/obs.hpp"
#include "sdmmon/channel.hpp"
#include "sdmmon/entities.hpp"
#include "sdmmon/fleet_ops.hpp"
#include "util/fault.hpp"

namespace sdmmon::fleet {

/// A correlated regional failure: while active, every install attempt
/// from a device in `region` is judged by the outage's own seeded
/// FaultInjector (default profile drops everything). This is the
/// "regional channel outage" scenario -- devices burn retry budget
/// against a dead management plane and must not be misread as a bad
/// release.
struct Outage {
  std::uint16_t region = 0;
  SimTime start_ms = 0;
  SimTime end_ms = 0;
  util::FaultProfile faults{.seed = 0x0707, .drop_rate = 1.0};
};

struct FleetConfig {
  std::size_t devices = 1000;
  std::uint64_t seed = 0xF1EE7;
  std::uint32_t regions = 8;

  /// Rank-ordered channel split: the first `canary_fraction` of the
  /// fleet's deterministic rollout rank is canary, the next
  /// `beta_fraction` beta, the rest stable. Waves target cumulative rank
  /// fractions, so early waves land on canary devices by construction.
  double canary_fraction = 0.05;
  double beta_fraction = 0.20;

  /// Cumulative fleet fractions per wave (last entry should be 1.0 for a
  /// full rollout).
  std::vector<double> wave_fractions = {0.01, 0.10, 0.50, 1.0};
  /// Attempts within a wave are spread uniformly over this window.
  SimTime wave_ramp_ms = 60'000;
  /// Observation gap between a wave turning fully terminal and the next
  /// wave opening.
  SimTime wave_gap_ms = 30'000;
  /// Post-halt rollbacks are spread over this window.
  SimTime rollback_ramp_ms = 5'000;

  /// The real operator retry schedule (jitter included) -- modeled
  /// devices consume it through protocol::retry_backoff_s.
  protocol::RetryPolicy retry;
  HaltThresholds halt;

  // -- Concrete sample ---------------------------------------------------
  /// The first `concrete_sample` device ids are real
  /// NetworkProcessorDevices: sealed packages over a real Channel, probe
  /// traffic through real monitors, QuarantineAfterK recovery. 0 (or a
  /// release without a binary) keeps the fleet fully modeled.
  std::size_t concrete_sample = 0;
  std::size_t concrete_cores = 2;
  std::size_t concrete_key_bits = 1024;
  /// Protocol wall-clock (certificate validity) at sim time 0; advances
  /// with the sim clock.
  std::uint64_t concrete_epoch_s = 1'750'000'000;
  /// Probe packets run through a concrete device per bake slice.
  std::size_t concrete_probe_packets = 16;
  /// Attack bytes substituted into concrete probe traffic at the
  /// release's concrete_attack_rate.
  util::Bytes attack_packet;
  np::RecoveryConfig concrete_recovery{
      .policy = np::RecoveryPolicy::QuarantineAfterK};

  /// Fleet-level metrics/journal (borrowed; may be null).
  obs::Registry* registry = nullptr;
};

/// Everything a rollout produced, for tests and the bench report.
struct RolloutReport {
  bool halted = false;
  HaltReason halt_reason = HaltReason::None;
  std::uint16_t halted_wave = 0;
  SimTime halt_time_ms = 0;
  /// Halt latency: halt time minus the open time of the halted wave.
  SimTime halt_detect_ms = 0;
  /// Devices that activated the (bad) release before the halt -- the
  /// blast radius the staged waves exist to bound.
  std::size_t affected = 0;
  std::size_t rollbacks = 0;
  bool reached_t90 = false;
  SimTime t90_ms = 0;  // time healthy count crossed 90% of the fleet
  std::vector<WaveStats> waves;
  FleetHealth health;
  double health_score = 0;
};

/// Cached fleet-level observability handles (names in obs/names.hpp).
struct FleetSimObs {
  obs::Registry* registry = nullptr;
  obs::EventJournal* journal = nullptr;
  obs::Gauge* devices = nullptr;
  obs::Gauge* converged = nullptr;
  obs::Gauge* wave = nullptr;
  obs::Gauge* health_score = nullptr;
  obs::Counter* installs = nullptr;
  obs::Counter* rejections = nullptr;
  obs::Counter* quarantines = nullptr;
  obs::Counter* unreachable = nullptr;
  obs::Counter* rollbacks = nullptr;
  obs::Counter* halts = nullptr;

  static std::unique_ptr<FleetSimObs> create(obs::Registry& registry);
};

class FleetService : public SimActor {
 public:
  FleetService(Simulator& sim, FleetConfig config);
  ~FleetService() override;

  /// Begin a staged rollout of `release` (wave 0 opens immediately).
  /// Re-targetable: calling it again after a halted rollout re-enrolls
  /// every device (RolledBack devices included) for the fixed release.
  void start_rollout(Release release);

  /// Inject a correlated regional failure window.
  void schedule_outage(const Outage& outage);

  /// Swap the active release's behavior at `at` -- the slow-roll attack:
  /// a release that bakes clean early and turns hostile later (behavior
  /// is re-read every bake slice, so devices already baking are caught).
  void schedule_behavior_change(SimTime at, ReleaseBehavior behavior);

  void on_event(Simulator& sim, const SimEvent& event) override;

  /// True once every targeted device is terminal or the rollout halted
  /// and all rollbacks have run.
  bool rollout_done() const;

  RolloutReport report() const;
  FleetHealth health() const;

  const FleetConfig& config() const { return config_; }
  const Release& release() const { return release_; }
  std::size_t device_count() const { return fleet_.size(); }
  const ModeledDevice& device(std::size_t id) const { return fleet_[id]; }

  std::size_t concrete_count() const { return concrete_.size(); }
  protocol::NetworkProcessorDevice& concrete_device(std::size_t slot);

 private:
  struct ConcreteSlot {
    std::unique_ptr<protocol::NetworkProcessorDevice> device;
    isa::Program current_binary;
    bool has_current = false;
    isa::Program last_good_binary;
    bool has_last_good = false;
    std::uint64_t probe_cursor = 0;  // workload stream position
  };

  bool epoch_ok(const SimEvent& event) const {
    return event.b == rollout_epoch_;
  }
  bool is_concrete(std::size_t id) const {
    return concrete_active_ && id < concrete_.size();
  }
  std::uint64_t protocol_now(Simulator& sim) const {
    return config_.concrete_epoch_s + sim.now() / 1000;
  }

  void open_wave(Simulator& sim, std::uint16_t wave);
  void handle_attempt(Simulator& sim, std::size_t id);
  void handle_installed(Simulator& sim, std::size_t id);
  void handle_bake_slice(Simulator& sim, std::size_t id, std::uint32_t slice);
  void handle_rollback(Simulator& sim, std::size_t id);

  /// One delivery attempt. Modeled devices draw from their streams;
  /// concrete devices seal+send a real package. Retries reuse the real
  /// jittered backoff schedule; exhaustion lands in Unreachable.
  void attempt_concrete(Simulator& sim, std::size_t id);
  void attempt_modeled(Simulator& sim, std::size_t id);
  void schedule_retry(Simulator& sim, ModeledDevice& dev,
                      std::uint64_t backoff_key);
  void finish_install_phase(Simulator& sim, std::size_t id,
                            DeviceState terminal_state);
  void note_terminal(Simulator& sim, ModeledDevice& dev);
  void mark_quarantined(Simulator& sim, ModeledDevice& dev);
  void check_halt(Simulator& sim);
  void halt_rollout(Simulator& sim, HaltReason reason);
  void maybe_advance_wave(Simulator& sim);
  /// Injector of the outage covering (region, now), or null.
  util::FaultInjector* active_outage(std::uint16_t region, SimTime now);
  void update_health_gauges();
  double rank_fraction(std::size_t id) const;

  Simulator& sim_;
  FleetConfig config_;
  std::vector<ModeledDevice> fleet_;
  std::vector<ConcreteSlot> concrete_;
  std::unique_ptr<protocol::Manufacturer> manufacturer_;
  std::unique_ptr<protocol::NetworkOperator> operator_;
  protocol::DirectChannel direct_channel_;
  bool concrete_active_ = false;

  Release release_;
  bool running_ = false;
  std::uint64_t rollout_epoch_ = 0;  // bumped on halt: stale events no-op
  std::uint16_t current_wave_ = 0;
  std::vector<SimTime> wave_open_ms_;
  std::vector<WaveStats> waves_;

  bool halted_ = false;
  HaltReason halt_reason_ = HaltReason::None;
  std::uint16_t halted_wave_ = 0;
  SimTime halt_time_ms_ = 0;
  std::size_t pending_rollbacks_ = 0;
  std::size_t rollbacks_done_ = 0;

  // Fleet-wide tallies (FleetHealth without an O(N) scan per event).
  std::size_t tally_targeted_ = 0;
  std::size_t tally_healthy_ = 0;
  std::size_t tally_quarantined_ = 0;
  std::size_t tally_rejected_ = 0;
  std::size_t tally_unreachable_ = 0;
  std::size_t tally_rolled_back_ = 0;
  std::size_t tally_in_flight_ = 0;
  bool reached_t90_ = false;
  SimTime t90_ms_ = 0;

  HaltController controller_;
  struct ActiveOutage {
    Outage spec;
    util::FaultInjector injector;
  };
  std::vector<ActiveOutage> outages_;
  std::vector<ReleaseBehavior> behavior_changes_;

  std::unique_ptr<FleetSimObs> obs_;
};

}  // namespace sdmmon::fleet

#endif  // SDMMON_FLEET_SERVICE_HPP
