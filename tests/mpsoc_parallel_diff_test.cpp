// Serial-equivalence differential suite for the parallel MPSoC engine.
// Every test replays one deterministic seeded workload -- benign UDP
// traffic plus an attack mix that exploits a vulnerable handler --
// through the serial Mpsoc and the ParallelMpsoc and diffs the full
// golden trace (tests/support/engine_diff.hpp). There is one contract for
// every dispatch policy: the traces are BIT-IDENTICAL -- per-packet
// outcomes, per-core stats, every recovery decision -- across all three
// recovery policies, every worker count, every in-flight window (batch
// size), and uniform as well as heavily skewed flow distributions; and
// each side conserves every packet it was handed. The quarantine
// placement lag (np::kPlacementLag) is checked here too, against exact
// counts and against a reference model (tests/support/placement_model.hpp).
#include "np/parallel_mpsoc.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "np/mpsoc.hpp"
#include "obs/names.hpp"
#include "sdmmon/workload.hpp"
#include "support/engine_diff.hpp"
#include "support/placement_model.hpp"
#include "support/test_apps.hpp"
#include "support/test_params.hpp"

namespace sdmmon {
namespace {

using protocol::MixedWorkload;
using protocol::MixedWorkloadConfig;
using protocol::WorkItem;
using testsupport::EngineTrace;
using testsupport::expect_trace_conserved;
using testsupport::expect_traces_identical;
using testsupport::install_all;
using testsupport::install_one;
using testsupport::kEchoApp;
using testsupport::kVulnApp;
using testsupport::make_recovery_config;
using testsupport::run_parallel;
using testsupport::run_serial;

constexpr std::size_t kCores = 4;

std::vector<WorkItem> mixed_items(std::size_t count, double attack_rate,
                                  std::uint64_t seed = 0x5EED) {
  MixedWorkloadConfig config;
  config.seed = seed;
  config.attack_rate = attack_rate;
  config.attack_packet = testsupport::attack_packet();
  return MixedWorkload(config).generate(0, count);
}

/// Heterogeneous fixture: cores [0, vuln_cores) run the exploitable app,
/// the rest run echo -- identical parameters on both engines.
template <typename Soc>
void install_mixed_fleet(Soc& soc, std::size_t vuln_cores) {
  for (std::size_t c = 0; c < soc.num_cores(); ++c) {
    install_one(soc, c, c < vuln_cores ? kVulnApp : kEchoApp,
                0x1000 + static_cast<std::uint32_t>(c));
  }
}

/// The strict contract on one comparison: both traces conserve the
/// `submitted` packets their engines have been handed so far, and the
/// parallel trace is bit-identical to the serial one.
void expect_identical_and_conserved(const EngineTrace& serial,
                                    const EngineTrace& parallel,
                                    std::size_t submitted) {
  {
    SCOPED_TRACE("serial conservation");
    expect_trace_conserved(serial, submitted);
  }
  {
    SCOPED_TRACE("parallel conservation");
    expect_trace_conserved(parallel, submitted);
  }
  expect_traces_identical(serial, parallel);
}

void expect_bit_identical(np::DispatchPolicy dispatch,
                          np::RecoveryPolicy recovery, std::size_t packets,
                          double attack_rate, np::ParallelConfig parallel,
                          std::size_t chunk = 0) {
  np::RecoveryConfig config = make_recovery_config(recovery);
  np::Mpsoc serial(kCores, dispatch, config);
  np::ParallelMpsoc par(kCores, dispatch, config, parallel);
  install_mixed_fleet(serial, /*vuln_cores=*/2);
  install_mixed_fleet(par, /*vuln_cores=*/2);

  std::vector<WorkItem> items = mixed_items(packets, attack_rate);
  EngineTrace st = run_serial(serial, items);
  EngineTrace pt = run_parallel(par, items, chunk);
  expect_identical_and_conserved(st, pt, items.size());
}

// ---------------------------------------------------------------------
// RoundRobin / FlowHash x all three recovery policies
// ---------------------------------------------------------------------

TEST(ParallelDiff, RoundRobinBitIdenticalAllRecoveryPolicies) {
  for (np::RecoveryPolicy recovery :
       {np::RecoveryPolicy::ResetAndContinue,
        np::RecoveryPolicy::QuarantineAfterK,
        np::RecoveryPolicy::ReinstallLastGood}) {
    SCOPED_TRACE(np::recovery_policy_name(recovery));
    expect_bit_identical(np::DispatchPolicy::RoundRobin, recovery,
                         /*packets=*/1500, /*attack_rate=*/0.12, {});
  }
}

TEST(ParallelDiff, FlowHashBitIdenticalAllRecoveryPolicies) {
  for (np::RecoveryPolicy recovery :
       {np::RecoveryPolicy::ResetAndContinue,
        np::RecoveryPolicy::QuarantineAfterK,
        np::RecoveryPolicy::ReinstallLastGood}) {
    SCOPED_TRACE(np::recovery_policy_name(recovery));
    expect_bit_identical(np::DispatchPolicy::FlowHash, recovery,
                         /*packets=*/1500, /*attack_rate=*/0.12, {});
  }
}

TEST(ParallelDiff, BatchSizeInvariant) {
  // The in-flight window is an implementation detail: windows of 1
  // (fully serialized), 7 (misaligned with the core count), and 64 must
  // all produce the same trace as the serial engine.
  for (std::size_t batch : {std::size_t{1}, std::size_t{7}, std::size_t{64}}) {
    SCOPED_TRACE("batch_size=" + std::to_string(batch));
    np::ParallelConfig parallel;
    parallel.batch_size = batch;
    expect_bit_identical(np::DispatchPolicy::RoundRobin,
                         np::RecoveryPolicy::QuarantineAfterK,
                         /*packets=*/600, /*attack_rate=*/0.15, parallel);
  }
}

TEST(ParallelDiff, BatchSizeByRecoveryPolicyMatrix) {
  // Every recovery policy crossed with a small and a large in-flight
  // window: how far execution runs ahead of the fold varies wildly
  // across these cells, but the trace may not.
  for (np::RecoveryPolicy recovery :
       {np::RecoveryPolicy::ResetAndContinue,
        np::RecoveryPolicy::QuarantineAfterK,
        np::RecoveryPolicy::ReinstallLastGood}) {
    for (std::size_t batch : {std::size_t{3}, std::size_t{128}}) {
      SCOPED_TRACE(std::string(np::recovery_policy_name(recovery)) +
                   " batch_size=" + std::to_string(batch));
      np::ParallelConfig parallel;
      parallel.batch_size = batch;
      expect_bit_identical(np::DispatchPolicy::FlowHash, recovery,
                           /*packets=*/700, /*attack_rate=*/0.15, parallel);
    }
  }
}

TEST(ParallelDiff, SkewedHeavyHitterFlowsBitIdentical) {
  // A heavy-hitter flow distribution (~70% of traffic on one flow key)
  // funnels most packets through one core and therefore one shard; that
  // shard's ring runs deep while the other shards' workers go idle, and
  // its single worker runs the elephant flow in FIFO order. The trace
  // must still be bit-identical under every recovery policy.
  for (np::RecoveryPolicy recovery :
       {np::RecoveryPolicy::ResetAndContinue,
        np::RecoveryPolicy::QuarantineAfterK,
        np::RecoveryPolicy::ReinstallLastGood}) {
    SCOPED_TRACE(np::recovery_policy_name(recovery));
    np::RecoveryConfig config = make_recovery_config(recovery);
    np::Mpsoc serial(kCores, np::DispatchPolicy::FlowHash, config);
    np::ParallelMpsoc par(kCores, np::DispatchPolicy::FlowHash, config, {});
    install_mixed_fleet(serial, /*vuln_cores=*/2);
    install_mixed_fleet(par, /*vuln_cores=*/2);

    std::vector<WorkItem> items = mixed_items(1400, 0.12);
    for (std::size_t i = 0; i < items.size(); ++i) {
      // Deterministic skew: 7 of every 10 packets join the elephant flow.
      if (i % 10 < 7) items[i].flow_key = 0xE1EFA27;
    }
    EngineTrace st = run_serial(serial, items);
    EngineTrace pt = run_parallel(par, items, /*chunk=*/137);
    expect_identical_and_conserved(st, pt, items.size());
  }
}

TEST(ParallelDiff, WorkerCountInvariant) {
  // Cores sharded over fewer workers than cores (and a single worker)
  // preserve per-core packet order, so the trace is unchanged.
  for (std::size_t workers : {std::size_t{1}, std::size_t{3}}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    np::ParallelConfig parallel;
    parallel.workers = workers;
    expect_bit_identical(np::DispatchPolicy::FlowHash,
                         np::RecoveryPolicy::ReinstallLastGood,
                         /*packets=*/1000, /*attack_rate=*/0.12, parallel);
  }
}

TEST(ParallelDiff, ChunkedSubmissionInvariant) {
  // Feeding the parallel engine in odd-sized process_packets() chunks
  // (which flush between calls) cannot change the trace either.
  expect_bit_identical(np::DispatchPolicy::RoundRobin,
                       np::RecoveryPolicy::ReinstallLastGood,
                       /*packets=*/900, /*attack_rate=*/0.12, {},
                       /*chunk=*/113);
}

TEST(ParallelDiff, AsyncSubmitMatchesSerialStats) {
  // The fire-and-forget submit() path cannot return per-packet results,
  // but after flush() the engine state must still match the serial run.
  np::RecoveryConfig config =
      make_recovery_config(np::RecoveryPolicy::QuarantineAfterK);
  np::Mpsoc serial(kCores, np::DispatchPolicy::FlowHash, config);
  np::ParallelMpsoc par(kCores, np::DispatchPolicy::FlowHash, config);
  install_mixed_fleet(serial, 2);
  install_mixed_fleet(par, 2);

  std::vector<WorkItem> items = mixed_items(1200, 0.15);
  EngineTrace st = run_serial(serial, items);
  for (const WorkItem& item : items) par.submit(item.packet, item.flow_key);
  par.flush();

  EngineTrace pt;
  testsupport::record_engine_state(pt, par);
  expect_trace_conserved(pt, items.size());
  for (std::size_t c = 0; c < kCores; ++c) {
    testsupport::expect_core_stats_equal(st.core_stats[c], pt.core_stats[c],
                                         c);
    EXPECT_EQ(st.health[c], pt.health[c]) << "core " << c;
    testsupport::expect_monitor_tally_equal(st.monitor[c], pt.monitor[c], c);
  }
  EXPECT_EQ(st.stats.violations, pt.stats.violations);
  EXPECT_EQ(st.stats.quarantine_events, pt.stats.quarantine_events);
  EXPECT_EQ(st.stats.undispatched, pt.stats.undispatched);
}

TEST(ParallelDiff, BackToBackSubmitTinyWindowsMatchSerial) {
  // Regression for a slot-reuse race: a worker read its slot's recovery
  // action AFTER publishing the slot as Executed, by which time a folder
  // could have freed it and the planner refilled it with another packet.
  // One- and two-slot windows with back-to-back submit() calls make that
  // reuse immediate; under TSan the stale read is a reported race, and
  // without it a recovery action can be committed for the wrong packet.
  for (np::RecoveryPolicy recovery : {np::RecoveryPolicy::QuarantineAfterK,
                                      np::RecoveryPolicy::ReinstallLastGood}) {
    for (std::size_t batch : {std::size_t{1}, std::size_t{2}}) {
      SCOPED_TRACE(std::string(np::recovery_policy_name(recovery)) +
                   " batch_size=" + std::to_string(batch));
      np::RecoveryConfig config = make_recovery_config(recovery);
      np::ParallelConfig parallel;
      parallel.workers = kCores;
      parallel.batch_size = batch;
      np::Mpsoc serial(kCores, np::DispatchPolicy::FlowHash, config);
      np::ParallelMpsoc par(kCores, np::DispatchPolicy::FlowHash, config,
                            parallel);
      install_mixed_fleet(serial, 2);
      install_mixed_fleet(par, 2);

      std::vector<WorkItem> items = mixed_items(1500, 0.15);
      EngineTrace st = run_serial(serial, items);
      for (const WorkItem& item : items) par.submit(item.packet, item.flow_key);
      par.flush();

      EngineTrace pt;
      testsupport::record_engine_state(pt, par);
      expect_trace_conserved(pt, items.size());
      for (std::size_t c = 0; c < kCores; ++c) {
        testsupport::expect_core_stats_equal(st.core_stats[c],
                                             pt.core_stats[c], c);
        EXPECT_EQ(st.health[c], pt.health[c]) << "core " << c;
        testsupport::expect_monitor_tally_equal(st.monitor[c], pt.monitor[c],
                                                c);
      }
      EXPECT_EQ(st.stats.reinstalls, pt.stats.reinstalls);
      EXPECT_EQ(st.stats.quarantine_events, pt.stats.quarantine_events);
      EXPECT_EQ(st.stats.undispatched, pt.stats.undispatched);
    }
  }
}

TEST(ParallelDiff, MidRunInstallAllLandsOnPacketBoundary) {
  // Reprogramming the fleet mid-run drains in-flight batches first; with
  // the same split point the serial and parallel traces stay identical.
  np::RecoveryConfig config =
      make_recovery_config(np::RecoveryPolicy::QuarantineAfterK);
  np::Mpsoc serial(kCores, np::DispatchPolicy::RoundRobin, config);
  np::ParallelMpsoc par(kCores, np::DispatchPolicy::RoundRobin, config);
  install_mixed_fleet(serial, 2);
  install_mixed_fleet(par, 2);

  std::vector<WorkItem> items = mixed_items(800, 0.12);
  std::vector<WorkItem> first(items.begin(), items.begin() + 300);
  std::vector<WorkItem> rest(items.begin() + 300, items.end());

  EngineTrace s1 = run_serial(serial, first);
  EngineTrace p1 = run_parallel(par, first, /*chunk=*/97);

  // Re-image the whole fleet with the echo app (releases nothing: any
  // quarantined core stays quarantined through the install).
  install_all(serial, kEchoApp, 0x2222);
  install_all(par, kEchoApp, 0x2222);

  EngineTrace s2 = run_serial(serial, rest);
  EngineTrace p2 = run_parallel(par, rest, /*chunk=*/61);
  // Stats are cumulative, so the second phase conserves every packet.
  expect_identical_and_conserved(s1, p1, first.size());
  expect_identical_and_conserved(s2, p2, items.size());
}

TEST(ParallelDiff, OfflineAndReleaseTransitionsMatch) {
  // Releasing a quarantined core is applied at a packet boundary; the
  // subsequent dispatch sequence must match the serial engine exactly.
  // (The ID still names the deleted Offline state, to keep it stable.)
  np::RecoveryConfig config =
      make_recovery_config(np::RecoveryPolicy::QuarantineAfterK);
  np::Mpsoc serial(kCores, np::DispatchPolicy::RoundRobin, config);
  np::ParallelMpsoc par(kCores, np::DispatchPolicy::RoundRobin, config);
  install_mixed_fleet(serial, 1);
  install_mixed_fleet(par, 1);

  std::vector<WorkItem> items = mixed_items(600, 0.20);
  std::vector<WorkItem> first(items.begin(), items.begin() + 200);
  std::vector<WorkItem> rest(items.begin() + 200, items.end());

  EngineTrace s1 = run_serial(serial, first);
  EngineTrace p1 = run_parallel(par, first);
  expect_identical_and_conserved(s1, p1, first.size());

  ASSERT_EQ(serial.core_health(0), np::CoreHealth::Quarantined);
  serial.release_core(0);
  par.release_core(0);

  EngineTrace s2 = run_serial(serial, rest);
  EngineTrace p2 = run_parallel(par, rest);
  expect_identical_and_conserved(s2, p2, items.size());
}

TEST(ParallelDiff, AllCoresQuarantinedCountsUndispatched) {
  // Drive every core into quarantine: the tail of the stream must be
  // counted as undispatched identically by both engines -- first as lag
  // drops on the quarantined cores, then, once both exclusions are due,
  // with no core placeable at all.
  np::RecoveryConfig config =
      make_recovery_config(np::RecoveryPolicy::QuarantineAfterK);
  np::Mpsoc serial(2, np::DispatchPolicy::RoundRobin, config);
  np::ParallelMpsoc par(2, np::DispatchPolicy::RoundRobin, config);
  install_all(serial, kVulnApp, 0xDEAD);
  install_all(par, kVulnApp, 0xDEAD);

  std::vector<WorkItem> items = mixed_items(400, 1.0);
  EngineTrace st = run_serial(serial, items);
  EngineTrace pt = run_parallel(par, items);
  expect_identical_and_conserved(st, pt, items.size());
  // Each core runs K packets; every later packet is undispatched.
  EXPECT_EQ(st.stats.undispatched,
            items.size() - 2 * testsupport::kViolationThreshold);
  EXPECT_EQ(st.stats.quarantined_cores, 2u);
}

// ---------------------------------------------------------------------
// The quarantine placement lag
// ---------------------------------------------------------------------

/// Every packet an attack. On a fleet with core 0 vulnerable, core 0
/// quarantines on its K-th packet and the echo cores forward the rest.
std::vector<WorkItem> attack_items(std::size_t count) {
  std::vector<WorkItem> items(count);
  for (std::size_t i = 0; i < count; ++i) {
    items[i].packet = testsupport::attack_packet();
    items[i].flow_key = static_cast<std::uint32_t>(i * 2654435761u);
  }
  return items;
}

TEST(ParallelDiff, QuarantineLagDropsOnlyItsOwnCoresPackets) {
  // RoundRobin places packet s on core s % 4 until the exclusion is due,
  // so core 0 runs packets 0, 4 and 8 and packet i = 8 quarantines it.
  // Exactly the packets in (i, i + L) placed on core 0 -- 12, 16, ...,
  // 260, i.e. 63 of them -- are dropped unrun; from i + L on no packet
  // is placed there, and every packet is forwarded.
  constexpr std::size_t kQuarantiner = 8;
  const std::vector<WorkItem> items = attack_items(700);
  const np::RecoveryConfig config =
      make_recovery_config(np::RecoveryPolicy::QuarantineAfterK);
  np::Mpsoc serial(kCores, np::DispatchPolicy::RoundRobin, config);
  install_mixed_fleet(serial, /*vuln_cores=*/1);
  const EngineTrace st = run_serial(serial, items);
  expect_trace_conserved(st, items.size());

  EXPECT_EQ(st.outcomes[kQuarantiner], np::PacketOutcome::AttackDetected);
  EXPECT_EQ(st.stats.quarantine_events, 1u);
  EXPECT_EQ(st.core_stats[0].packets, testsupport::kViolationThreshold);
  EXPECT_EQ(st.stats.undispatched, 63u);
  for (std::size_t s = kQuarantiner + 1; s < items.size(); ++s) {
    const bool lag_drop =
        s < kQuarantiner + np::kPlacementLag && s % kCores == 0;
    EXPECT_EQ(st.outcomes[s], lag_drop ? np::PacketOutcome::Dropped
                                       : np::PacketOutcome::Forwarded)
        << "packet " << s;
    if (lag_drop) {
      EXPECT_EQ(st.instructions[s], 0u) << "packet " << s;
    }
  }

  // FlowHash: the same contract, counted by the reference model.
  np::Mpsoc hashed(kCores, np::DispatchPolicy::FlowHash, config);
  install_mixed_fleet(hashed, /*vuln_cores=*/1);
  const EngineTrace ht = run_serial(hashed, items);
  expect_trace_conserved(ht, items.size());
  std::vector<std::uint32_t> flows;
  for (const WorkItem& item : items) flows.push_back(item.flow_key);
  const testsupport::PlacementModel model = testsupport::model_placement(
      np::DispatchPolicy::FlowHash, {true, false, false, false},
      config.violation_threshold, flows);
  ASSERT_TRUE(model.quarantined_by[0]);
  EXPECT_GT(model.lag_drops, 0u);
  EXPECT_LT(model.lag_drops, np::kPlacementLag);
  EXPECT_EQ(ht.stats.undispatched, model.lag_drops);
  for (std::size_t c = 0; c < kCores; ++c) {
    EXPECT_EQ(ht.core_stats[c].packets, model.runs[c]) << "core " << c;
  }

  // The parallel engine agrees at every window, tiny to clamped.
  for (np::DispatchPolicy dispatch :
       {np::DispatchPolicy::RoundRobin, np::DispatchPolicy::FlowHash}) {
    for (std::size_t batch : {std::size_t{1}, std::size_t{64},
                              np::kPlacementLag, 4 * np::kPlacementLag}) {
      SCOPED_TRACE("batch_size=" + std::to_string(batch));
      np::ParallelConfig parallel;
      parallel.batch_size = batch;
      np::ParallelMpsoc par(kCores, dispatch, config, parallel);
      install_mixed_fleet(par, /*vuln_cores=*/1);
      expect_identical_and_conserved(
          dispatch == np::DispatchPolicy::RoundRobin ? st : ht,
          run_parallel(par, items, /*chunk=*/97), items.size());
    }
  }
}

TEST(ParallelDiff, LagContractBitIdenticalEveryWindow) {
  // Quarantines happen early in this stream and it runs long past their
  // exclusions, so lag drops and the post-exclusion placement are both
  // exercised, at every window up to kPlacementLag and beyond it
  // (clamped), under every recovery and dispatch policy.
  const std::vector<WorkItem> items = mixed_items(1500, 0.12);
  for (np::DispatchPolicy dispatch :
       {np::DispatchPolicy::RoundRobin, np::DispatchPolicy::FlowHash}) {
    for (np::RecoveryPolicy recovery :
         {np::RecoveryPolicy::ResetAndContinue,
          np::RecoveryPolicy::QuarantineAfterK,
          np::RecoveryPolicy::ReinstallLastGood}) {
      const np::RecoveryConfig config = make_recovery_config(recovery);
      np::Mpsoc serial(kCores, dispatch, config);
      install_mixed_fleet(serial, /*vuln_cores=*/2);
      const EngineTrace st = run_serial(serial, items);
      if (recovery != np::RecoveryPolicy::ResetAndContinue) {
        EXPECT_GT(st.stats.quarantine_events, 0u);
        EXPECT_GT(st.stats.undispatched, 0u);
        EXPECT_LE(st.stats.undispatched,
                  st.stats.quarantine_events * (np::kPlacementLag - 1));
      }
      for (std::size_t batch :
           {std::size_t{1}, std::size_t{7}, std::size_t{64},
            np::kPlacementLag, np::kPlacementLag + 1}) {
        SCOPED_TRACE(std::string(np::recovery_policy_name(recovery)) +
                     (dispatch == np::DispatchPolicy::RoundRobin
                          ? " round-robin"
                          : " flow-hash") +
                     " batch_size=" + std::to_string(batch));
        np::ParallelConfig parallel;
        parallel.batch_size = batch;
        np::ParallelMpsoc par(kCores, dispatch, config, parallel);
        install_mixed_fleet(par, /*vuln_cores=*/2);
        expect_identical_and_conserved(st, run_parallel(par, items),
                                       items.size());
      }
    }
  }
}

TEST(ParallelDiff, ReleaseInsideLagCancelsExclusion) {
  // Core 0 quarantines on packet 8 (as in
  // QuarantineLagDropsOnlyItsOwnCoresPackets) and misses packets 12 and
  // 16. The operator re-images it with the echo app and releases it
  // before its exclusion at 8 + L is due: the release cancels the
  // exclusion, so core 0 keeps its RoundRobin share past that point.
  const np::RecoveryConfig config =
      make_recovery_config(np::RecoveryPolicy::QuarantineAfterK);
  const std::vector<WorkItem> items = attack_items(700);
  const std::vector<WorkItem> first(items.begin(), items.begin() + 20);
  const std::vector<WorkItem> rest(items.begin() + 20, items.end());

  np::Mpsoc serial(kCores, np::DispatchPolicy::RoundRobin, config);
  install_mixed_fleet(serial, /*vuln_cores=*/1);
  const EngineTrace s1 = run_serial(serial, first);
  ASSERT_EQ(serial.core_health(0), np::CoreHealth::Quarantined);
  EXPECT_EQ(s1.stats.undispatched, 2u);
  install_one(serial, 0, kEchoApp, 0x1000);
  serial.release_core(0);
  const EngineTrace s2 = run_serial(serial, rest);
  expect_trace_conserved(s2, items.size());
  EXPECT_EQ(s2.stats.undispatched, 2u);
  // Core 0 ran its three attacks, then every 4th packet from 20 on.
  EXPECT_EQ(s2.core_stats[0].packets,
            testsupport::kViolationThreshold + rest.size() / kCores);
  for (np::PacketOutcome outcome : s2.outcomes) {
    EXPECT_EQ(outcome, np::PacketOutcome::Forwarded);
  }

  for (std::size_t batch : {std::size_t{1}, np::kPlacementLag}) {
    SCOPED_TRACE("batch_size=" + std::to_string(batch));
    np::ParallelConfig parallel;
    parallel.batch_size = batch;
    np::ParallelMpsoc par(kCores, np::DispatchPolicy::RoundRobin, config,
                          parallel);
    install_mixed_fleet(par, /*vuln_cores=*/1);
    expect_identical_and_conserved(s1, run_parallel(par, first),
                                   first.size());
    install_one(par, 0, kEchoApp, 0x1000);
    par.release_core(0);
    expect_identical_and_conserved(s2, run_parallel(par, rest, 61),
                                   items.size());
  }
}

// ---------------------------------------------------------------------
// Workload determinism (the oracle's own foundation)
// ---------------------------------------------------------------------

TEST(ParallelDiff, MixedWorkloadShardingIsBitIdentical) {
  MixedWorkloadConfig config;
  config.seed = 0xABCD;
  config.attack_rate = 0.2;
  config.attack_packet = testsupport::attack_packet();
  MixedWorkload workload(config);

  std::vector<WorkItem> serial = workload.generate(10, 500);
  for (std::size_t threads : {std::size_t{2}, std::size_t{5}}) {
    std::vector<WorkItem> sharded =
        workload.generate_parallel(10, 500, threads);
    ASSERT_EQ(serial.size(), sharded.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
      EXPECT_EQ(serial[i].packet, sharded[i].packet) << "item " << i;
      EXPECT_EQ(serial[i].flow_key, sharded[i].flow_key) << "item " << i;
      EXPECT_EQ(serial[i].attack, sharded[i].attack) << "item " << i;
    }
  }
}

// ---------------------------------------------------------------------
// Observability equivalence: the deterministic subset of the metrics
// snapshot (commit-path counters, value histograms, and the recovery
// journal) must be identical serial-vs-parallel. Excluded as documented
// in docs/OBSERVABILITY.md: wall-clock *_ns histograms and the
// parallel-only np.parallel.* metrics.
// ---------------------------------------------------------------------

bool deterministic_metric(const std::string& name) {
  if (name.rfind("np.parallel.", 0) == 0) return false;
  if (name.size() >= 3 && name.compare(name.size() - 3, 3, "_ns") == 0) {
    return false;
  }
  // Per-core histogram names embed the core index after the unit suffix
  // ("np.recovery.reinstall_ns" has no index; core histograms look like
  // "np.core.instr_per_packet.3"), so also drop "_ns." infixes.
  if (name.find("_ns.") != std::string::npos) return false;
  return true;
}

template <typename Map>
Map filter_deterministic(const Map& in) {
  Map out;
  for (const auto& [name, value] : in) {
    if (deterministic_metric(name)) out.emplace(name, value);
  }
  return out;
}

void expect_histograms_equal(const obs::HistogramSnapshot& a,
                             const obs::HistogramSnapshot& b,
                             const std::string& name) {
  EXPECT_EQ(a.bounds, b.bounds) << name;
  EXPECT_EQ(a.counts, b.counts) << name;
  EXPECT_EQ(a.count, b.count) << name;
  EXPECT_EQ(a.sum, b.sum) << name;
  if (a.count > 0 && b.count > 0) {
    EXPECT_EQ(a.min, b.min) << name;
    EXPECT_EQ(a.max, b.max) << name;
  }
}

TEST(ParallelDiff, MetricsIdenticalForDeterministicSubset) {
  for (np::RecoveryPolicy recovery :
       {np::RecoveryPolicy::ResetAndContinue,
        np::RecoveryPolicy::QuarantineAfterK,
        np::RecoveryPolicy::ReinstallLastGood}) {
    SCOPED_TRACE(np::recovery_policy_name(recovery));
    np::RecoveryConfig config = make_recovery_config(recovery);
    np::Mpsoc serial(kCores, np::DispatchPolicy::RoundRobin, config);
    np::ParallelMpsoc par(kCores, np::DispatchPolicy::RoundRobin, config,
                          {});
    obs::Registry serial_reg;
    obs::Registry par_reg;
    serial.enable_obs(serial_reg, /*device_id=*/7);
    par.enable_obs(par_reg, /*device_id=*/7);
    install_mixed_fleet(serial, /*vuln_cores=*/2);
    install_mixed_fleet(par, /*vuln_cores=*/2);

    std::vector<WorkItem> items = mixed_items(1200, 0.15);
    EngineTrace st = run_serial(serial, items);
    EngineTrace pt = run_parallel(par, items, /*chunk=*/111);
    expect_identical_and_conserved(st, pt, items.size());

    obs::Snapshot ss = serial_reg.snapshot();
    obs::Snapshot ps = par_reg.snapshot();

    EXPECT_EQ(filter_deterministic(ss.counters),
              filter_deterministic(ps.counters));
    EXPECT_EQ(ss.gauges, ps.gauges);

    // The install-time artifact gauges (compiled monitoring graph AND
    // predecoded program) must actually be present -- the blanket gauge
    // equality above would also pass vacuously if a rename dropped them.
    for (const char* name :
         {obs::names::kEngineCompiledGraphNodes,
          obs::names::kEngineCompiledProgramOps,
          obs::names::kEngineCompiledProgramBlocks,
          obs::names::kEngineCompiledProgramBytes}) {
      ASSERT_TRUE(ss.gauges.count(name)) << name;
      ASSERT_TRUE(ps.gauges.count(name)) << name;
      EXPECT_GT(ss.gauges.at(name), 0) << name;
    }
    // Wall-clock install timings are excluded from value equality, but
    // both engines must have recorded the predecode stage.
    EXPECT_TRUE(ss.histograms.count(obs::names::kCorePredecodeNs));
    EXPECT_TRUE(ps.histograms.count(obs::names::kCorePredecodeNs));

    auto sh = filter_deterministic(ss.histograms);
    auto ph = filter_deterministic(ps.histograms);
    ASSERT_EQ(sh.size(), ph.size());
    for (const auto& [name, hist] : sh) {
      ASSERT_TRUE(ph.count(name)) << name;
      expect_histograms_equal(hist, ph.at(name), name);
    }

    // Identical journal streams, down to the commit-cycle timestamps.
    EXPECT_EQ(ss.events, ps.events);

    // Sanity: the workload actually exercised detection + recovery.
    EXPECT_GT(ss.counters.at(std::string(obs::names::kEngineDispatched)),
              0u);
    if (recovery != np::RecoveryPolicy::ResetAndContinue) {
      EXPECT_FALSE(ss.events.empty());
    }
  }
}

TEST(ParallelDiff, SampledHistogramsStayDeterministic) {
  // sample_period > 1 must thin histograms identically on both engines
  // (the tick is per-core and commit-ordered), while counters stay
  // exact.
  np::RecoveryConfig config =
      make_recovery_config(np::RecoveryPolicy::QuarantineAfterK);
  np::Mpsoc serial(kCores, np::DispatchPolicy::RoundRobin, config);
  np::ParallelMpsoc par(kCores, np::DispatchPolicy::RoundRobin, config, {});
  obs::Registry serial_reg;
  obs::Registry par_reg;
  serial.enable_obs(serial_reg, 0, /*sample_period=*/16);
  par.enable_obs(par_reg, 0, /*sample_period=*/16);
  install_mixed_fleet(serial, 2);
  install_mixed_fleet(par, 2);

  std::vector<WorkItem> items = mixed_items(800, 0.1);
  (void)run_serial(serial, items);
  (void)run_parallel(par, items);

  obs::Snapshot ss = serial_reg.snapshot();
  obs::Snapshot ps = par_reg.snapshot();
  EXPECT_EQ(filter_deterministic(ss.counters),
            filter_deterministic(ps.counters));
  for (const auto& [name, hist] : filter_deterministic(ss.histograms)) {
    expect_histograms_equal(hist, ps.histograms.at(name), name);
    // Sampling really thinned the distributions: fewer samples than
    // commits.
    if (name.find("instr_per_packet") != std::string::npos) {
      EXPECT_LT(hist.count, 800u);
    }
  }
}

TEST(ParallelDiff, AttachingObsNeverChangesBehaviour) {
  // Instrumentation is attached or detached at runtime only, so a
  // detached engine is the "off" configuration. Attaching may not change
  // a packet result, a core or monitor statistic, or a recovery decision
  // on either engine: every trace must match the detached serial one.
  np::RecoveryConfig config =
      make_recovery_config(np::RecoveryPolicy::ReinstallLastGood);
  np::Mpsoc serial_detached(kCores, np::DispatchPolicy::FlowHash, config);
  np::Mpsoc serial_attached(kCores, np::DispatchPolicy::FlowHash, config);
  np::ParallelMpsoc par_detached(kCores, np::DispatchPolicy::FlowHash,
                                 config, {});
  np::ParallelMpsoc par_attached(kCores, np::DispatchPolicy::FlowHash,
                                 config, {});
  obs::Registry serial_reg;
  obs::Registry par_reg;
  serial_attached.enable_obs(serial_reg);
  par_attached.enable_obs(par_reg);
  install_mixed_fleet(serial_detached, /*vuln_cores=*/2);
  install_mixed_fleet(serial_attached, /*vuln_cores=*/2);
  install_mixed_fleet(par_detached, /*vuln_cores=*/2);
  install_mixed_fleet(par_attached, /*vuln_cores=*/2);

  std::vector<WorkItem> items = mixed_items(1500, 0.12);
  EngineTrace oracle = run_serial(serial_detached, items);
  {
    SCOPED_TRACE("serial, attached");
    expect_identical_and_conserved(
        oracle, run_serial(serial_attached, items), items.size());
  }
  {
    SCOPED_TRACE("parallel, detached");
    expect_identical_and_conserved(
        oracle, run_parallel(par_detached, items, 97), items.size());
  }
  {
    SCOPED_TRACE("parallel, attached");
    expect_identical_and_conserved(
        oracle, run_parallel(par_attached, items, 97), items.size());
  }

  // The run detected overflows and re-imaged cores, and the attached
  // engines really recorded it.
  EXPECT_GT(oracle.stats.attacks_detected, 0u);
  EXPECT_GT(oracle.stats.reinstalls, 0u);
  const std::string dispatched(obs::names::kEngineDispatched);
  const std::string undispatched(obs::names::kEngineUndispatched);
  const std::string reinstalls(obs::names::kEngineReinstalls);
  for (const obs::Registry* reg : {&serial_reg, &par_reg}) {
    obs::Snapshot snap = reg->snapshot();
    EXPECT_EQ(snap.counters.at(dispatched),
              items.size() - oracle.stats.undispatched);
    EXPECT_EQ(snap.counters.at(undispatched), oracle.stats.undispatched);
    EXPECT_EQ(snap.counters.at(reinstalls), oracle.stats.reinstalls);
  }
}

// ---------------------------------------------------------------------
// Inline re-image: a reinstall runs on the core's own shard worker
// ---------------------------------------------------------------------

std::vector<obs::Event> events_of(const obs::Snapshot& snap,
                                  obs::EventKind kind) {
  std::vector<obs::Event> out;
  for (const obs::Event& e : snap.events) {
    if (e.kind == kind) out.push_back(e);
  }
  return out;
}

TEST(ParallelDiff, UnboundedReinstallRunsInlineWithoutEpochs) {
  // ReinstallLastGood that never escalates never changes placement, and
  // every re-image runs inline on the core's shard worker; the Reinstall
  // events still journal in serial order, for every dispatch policy,
  // worker count and window. (The engine has no recovery epochs at all
  // any more; the ID is kept.)
  const np::RecoveryConfig config = make_recovery_config(
      np::RecoveryPolicy::ReinstallLastGood, testsupport::kViolationThreshold,
      testsupport::kWindowPackets, np::kUnboundedReinstalls);
  const std::vector<WorkItem> items = mixed_items(600, 0.15);
  for (np::DispatchPolicy dispatch :
       {np::DispatchPolicy::RoundRobin, np::DispatchPolicy::FlowHash}) {
    for (std::size_t workers : {std::size_t{1}, std::size_t{2},
                                std::size_t{4}}) {
      for (std::size_t batch : {std::size_t{1}, std::size_t{7},
                                std::size_t{256}}) {
        SCOPED_TRACE(std::string(dispatch == np::DispatchPolicy::RoundRobin
                                     ? "round-robin"
                                     : "flow-hash") +
                     " workers=" + std::to_string(workers) +
                     " batch_size=" + std::to_string(batch));
        np::ParallelConfig parallel;
        parallel.workers = workers;
        parallel.batch_size = batch;
        np::Mpsoc serial(kCores, dispatch, config);
        np::ParallelMpsoc par(kCores, dispatch, config, parallel);
        obs::Registry serial_reg;
        obs::Registry par_reg;
        serial.enable_obs(serial_reg);
        par.enable_obs(par_reg);
        install_mixed_fleet(serial, /*vuln_cores=*/2);
        install_mixed_fleet(par, /*vuln_cores=*/2);

        EngineTrace st = run_serial(serial, items);
        EngineTrace pt = run_parallel(par, items, /*chunk=*/97);
        expect_identical_and_conserved(st, pt, items.size());
        EXPECT_GT(st.stats.reinstalls, 0u);
        EXPECT_EQ(st.stats.quarantine_events, 0u);
        EXPECT_EQ(st.stats.undispatched, 0u);

        obs::Snapshot ss = serial_reg.snapshot();
        obs::Snapshot ps = par_reg.snapshot();
        const std::vector<obs::Event> reinstalls =
            events_of(ss, obs::EventKind::Reinstall);
        EXPECT_EQ(reinstalls.size(), st.stats.reinstalls);
        EXPECT_EQ(reinstalls, events_of(ps, obs::EventKind::Reinstall));
        EXPECT_EQ(ss.events, ps.events);
      }
    }
  }
}

}  // namespace
}  // namespace sdmmon
