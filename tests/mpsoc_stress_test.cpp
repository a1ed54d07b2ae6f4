// High-volume stress campaign for the parallel MPSoC engine (labeled
// `stress` in CTest; excluded from quick runs with `ctest -LE stress`).
// An 8-core fleet with two deliberately vulnerable cores ingests ~1M
// mixed benign/attack packets through the asynchronous submit() path
// while a seeded FaultInjector corrupts and drops traffic in flight.
//
// Because the vulnerable app turns EVERY packet it receives into a
// violation (monitor mismatch or trap, both counted), the recovery
// outcome is exact arithmetic, not a tolerance band: each vulnerable
// core absorbs precisely kPacketsToQuarantine packets before quarantine
// -- see tests/support/test_params.hpp -- and the echo cores never
// violate, so no packet is ever undispatched.
//
// SDMMON_STRESS_PACKETS overrides the packet count (CI's TSan job runs a
// reduced campaign; the label default is the full million).
#include "np/parallel_mpsoc.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <string>
#include <vector>

#include "sdmmon/workload.hpp"
#include "support/test_apps.hpp"
#include "support/test_params.hpp"
#include "util/fault.hpp"

namespace sdmmon {
namespace {

using protocol::MixedWorkload;
using protocol::MixedWorkloadConfig;
using protocol::WorkItem;
using namespace testsupport;

std::uint64_t stress_packets() {
  if (const char* env = std::getenv("SDMMON_STRESS_PACKETS")) {
    const std::uint64_t n = std::strtoull(env, nullptr, 10);
    if (n > 0) return n;
  }
  return 1'000'000;
}

// The exact-math assertions below are derived from the constants in
// tests/support/test_params.hpp, which mirror the RecoveryConfig
// defaults. If a default drifts, THIS test names the divergence instead
// of a dozen inline numbers silently going stale.
TEST(MpsocStress, RecoveryMathDriftGuard) {
  np::RecoveryConfig defaults;
  EXPECT_EQ(defaults.violation_threshold, kViolationThreshold);
  EXPECT_EQ(defaults.window_packets, kWindowPackets);
  EXPECT_EQ(defaults.max_reinstalls, kMaxReinstalls);
  EXPECT_EQ(kPacketsToQuarantine, (kMaxReinstalls + 1) * kViolationThreshold);
}

TEST(MpsocStress, MillionPacketCampaignExactRecoveryMath) {
  constexpr std::size_t kStressCores = 8;
  constexpr std::size_t kVulnCores = 2;
  const std::uint64_t total = stress_packets();

  np::ParallelMpsoc soc(kStressCores, np::DispatchPolicy::FlowHash,
                        make_recovery_config(
                            np::RecoveryPolicy::ReinstallLastGood));
  for (std::size_t c = 0; c < kStressCores; ++c) {
    install_one(soc, c, c < kVulnCores ? kVulnApp : kEchoApp,
                0x57E0 + static_cast<std::uint32_t>(c));
  }

  MixedWorkloadConfig workload_config;
  workload_config.seed = 0x57E55;
  workload_config.attack_rate = 0.02;
  workload_config.min_payload = 8;
  workload_config.max_payload = 32;
  workload_config.attack_packet = attack_packet();
  MixedWorkload workload(workload_config);

  util::FaultProfile profile;
  profile.seed = 0xFA57;
  profile.bit_flip_rate = 0.01;   // ~1% of packets corrupted in flight
  profile.drop_rate = 0.005;      // ~0.5% of packets lost before ingest
  util::FaultInjector inject(profile);

  std::uint64_t submitted = 0;
  std::uint64_t dropped_in_flight = 0;
  const std::uint64_t kChunk = 65536;
  for (std::uint64_t begin = 0; begin < total; begin += kChunk) {
    const std::uint64_t n = std::min(kChunk, total - begin);
    std::vector<WorkItem> items =
        workload.generate_parallel(begin, n, /*threads=*/4);
    for (WorkItem& item : items) {
      if (inject.drop_message()) {
        ++dropped_in_flight;
        continue;
      }
      inject.maybe_corrupt(item.packet);
      soc.submit(std::move(item.packet), item.flow_key);
      ++submitted;
    }
  }
  soc.flush();

  ASSERT_EQ(submitted + dropped_in_flight, total);
  EXPECT_GT(dropped_in_flight, 0u);
  EXPECT_GT(inject.stats().buffers_corrupted, 0u);

  np::MpsocStats stats = soc.aggregate_stats();

  // Conservation: every submitted packet was dispatched and accounted
  // for -- the echo cores never leave the dispatch set, so nothing is
  // undispatched no matter what happens to the vulnerable pair.
  EXPECT_EQ(stats.packets, submitted);
  EXPECT_EQ(stats.undispatched, 0u);
  EXPECT_EQ(stats.healthy_cores, kStressCores - kVulnCores);

  // Exact recovery-window math (constants from test_params.hpp): each
  // vulnerable core sees only violations, so it re-images after every
  // kViolationThreshold of them, kMaxReinstalls times, then quarantines.
  EXPECT_EQ(stats.quarantine_events, kVulnCores);
  EXPECT_EQ(stats.reinstalls, kVulnCores * kMaxReinstalls);
  EXPECT_EQ(stats.violations, kVulnCores * kPacketsToQuarantine);
  EXPECT_EQ(soc.recovery().reinstall_requests(),
            kVulnCores * kMaxReinstalls);
  for (std::size_t c = 0; c < kStressCores; ++c) {
    EXPECT_EQ(soc.core_health(c), c < kVulnCores
                                      ? np::CoreHealth::Quarantined
                                      : np::CoreHealth::Healthy)
        << "core " << c;
    if (c >= kVulnCores) {
      // Echo cores never violate -- even on corrupted or attack packets,
      // which are just payload bytes to them.
      EXPECT_EQ(soc.core(c).stats().attacks_detected, 0u) << "core " << c;
      EXPECT_EQ(soc.core(c).stats().traps, 0u) << "core " << c;
    } else {
      EXPECT_EQ(soc.core(c).stats().packets, kPacketsToQuarantine)
          << "core " << c;
    }
  }

  // Every packet that did not hit a vulnerable core was forwarded.
  EXPECT_EQ(stats.forwarded, submitted - stats.violations);
  EXPECT_EQ(stats.dropped, 0u);
}

TEST(MpsocStress, SubmitBackpressureBoundsMemory) {
  // In-flight packets are bounded by the speculation window (batch_size):
  // a tiny window forces the submitting thread to block on reorder-buffer
  // backpressure many times over a 50k-packet burst; the engine must
  // neither deadlock nor lose a packet.
  np::ParallelConfig parallel;
  parallel.batch_size = 16;
  np::ParallelMpsoc soc(4, np::DispatchPolicy::RoundRobin,
                        make_recovery_config(
                            np::RecoveryPolicy::ResetAndContinue),
                        parallel);
  install_all(soc, kEchoApp, 0xBACC);

  MixedWorkloadConfig config;
  config.seed = 0xB0B;
  config.min_payload = 8;
  config.max_payload = 16;
  MixedWorkload workload(config);

  const std::uint64_t kBurst = 50'000;
  for (std::uint64_t i = 0; i < kBurst; ++i) {
    WorkItem item = workload.item(i);
    soc.submit(std::move(item.packet), item.flow_key);
  }
  soc.flush();

  np::MpsocStats stats = soc.aggregate_stats();
  EXPECT_EQ(stats.packets, kBurst);
  EXPECT_EQ(stats.forwarded, kBurst);
  EXPECT_EQ(stats.undispatched, 0u);
}

}  // namespace
}  // namespace sdmmon
