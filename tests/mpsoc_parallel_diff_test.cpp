// Serial-equivalence differential suite for the parallel MPSoC engine
// (ISSUE 2 tentpole). Every test replays one deterministic seeded
// workload -- benign UDP traffic plus an attack mix that exploits a
// vulnerable handler -- through the serial Mpsoc and the ParallelMpsoc
// and diffs the full golden trace (tests/support/engine_diff.hpp):
//
//  * RoundRobin and FlowHash must be BIT-IDENTICAL -- per-packet
//    outcomes, per-core stats, every recovery decision -- across all
//    three recovery policies, every worker count, every speculation
//    window (batch size), and uniform as well as heavily skewed flow
//    distributions.
//  * LeastLoaded is documented as relaxed (load feedback counts
//    committed instructions plus an estimate for in-flight packets):
//    outcomes stay identical on homogeneous installs, and the
//    conservation/recovery-safety invariants hold always. batch_size=1
//    bounds the flight window to one packet and restores exactness.
#include "np/parallel_mpsoc.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "np/mpsoc.hpp"
#include "obs/names.hpp"
#include "sdmmon/workload.hpp"
#include "support/engine_diff.hpp"
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
  expect_traces_identical(st, pt);
}

// ---------------------------------------------------------------------
// Strict contract: RoundRobin / FlowHash x all three recovery policies
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
  // The speculation window is an implementation detail: windows of 1
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
  // Every recovery policy crossed with a small and a large speculation
  // window: rollback/replay depth varies wildly across these cells, but
  // the trace may not.
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
  // funnels most packets through one core and therefore one shard; the
  // other shards go idle and live off the stealing path while the hot
  // core's turn tickets serialize the elephant flow. The trace must
  // still be bit-identical under every recovery policy.
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
    expect_traces_identical(st, pt);
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
  // Regression for a slot-reuse race: a worker read its slot's turn
  // ticket and recovery action AFTER publishing the slot as Executed, by
  // which time a folder could have freed it and the planner refilled it
  // with another packet. One- and two-slot windows with back-to-back
  // submit() calls make that reuse immediate; under TSan the stale read
  // is a reported race, and without it a wrong ticket stalls or
  // reorders a core's stream.
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
  expect_traces_identical(s1, p1);
  expect_traces_identical(s2, p2);
}

TEST(ParallelDiff, OfflineAndReleaseTransitionsMatch) {
  // Administrative transitions (drain a core, release a quarantined one)
  // are applied at batch boundaries; the subsequent dispatch sequence
  // must match the serial engine exactly.
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
  expect_traces_identical(s1, p1);

  serial.set_core_offline(3, true);
  par.set_core_offline(3, true);
  if (serial.core_health(0) == np::CoreHealth::Quarantined) {
    serial.release_core(0);
    par.release_core(0);
  }

  EngineTrace s2 = run_serial(serial, rest);
  EngineTrace p2 = run_parallel(par, rest);
  expect_traces_identical(s2, p2);
}

TEST(ParallelDiff, AllCoresQuarantinedCountsUndispatched) {
  // Drive every core into quarantine: the tail of the stream must be
  // counted as undispatched identically by both engines.
  np::RecoveryConfig config =
      make_recovery_config(np::RecoveryPolicy::QuarantineAfterK);
  np::Mpsoc serial(2, np::DispatchPolicy::RoundRobin, config);
  np::ParallelMpsoc par(2, np::DispatchPolicy::RoundRobin, config);
  install_all(serial, kVulnApp, 0xDEAD);
  install_all(par, kVulnApp, 0xDEAD);

  std::vector<WorkItem> items = mixed_items(100, 1.0);
  EngineTrace st = run_serial(serial, items);
  EngineTrace pt = run_parallel(par, items);
  expect_traces_identical(st, pt);
  EXPECT_GT(st.stats.undispatched, 0u);
  EXPECT_EQ(st.stats.quarantined_cores, 2u);
}

// ---------------------------------------------------------------------
// Relaxed contract: LeastLoaded
// ---------------------------------------------------------------------

TEST(ParallelDiff, LeastLoadedHomogeneousOutcomesIdentical) {
  // With the same app on every core a packet's outcome is independent of
  // placement, so even the relaxed policy must produce identical
  // per-packet outcomes and aggregate forwarding counts.
  np::RecoveryConfig config =
      make_recovery_config(np::RecoveryPolicy::ResetAndContinue);
  np::Mpsoc serial(kCores, np::DispatchPolicy::LeastLoaded, config);
  np::ParallelMpsoc par(kCores, np::DispatchPolicy::LeastLoaded, config);
  install_all(serial, kEchoApp, 0xB1B1);
  install_all(par, kEchoApp, 0xB1B1);

  std::vector<WorkItem> items = mixed_items(800, 0.10);
  EngineTrace st = run_serial(serial, items);
  EngineTrace pt = run_parallel(par, items);

  ASSERT_EQ(st.outcomes.size(), pt.outcomes.size());
  for (std::size_t i = 0; i < st.outcomes.size(); ++i) {
    EXPECT_EQ(st.outcomes[i], pt.outcomes[i]) << "packet " << i;
    EXPECT_EQ(st.outputs[i], pt.outputs[i]) << "packet " << i;
  }
  EXPECT_EQ(st.stats.forwarded, pt.stats.forwarded);
  EXPECT_EQ(st.stats.attacks_detected, pt.stats.attacks_detected);
  expect_trace_conserved(pt, items.size());
}

TEST(ParallelDiff, LeastLoadedHeterogeneousConservesEveryPacket) {
  // Placement may legitimately diverge on a heterogeneous fleet; the
  // relaxed contract still requires exact packet conservation and
  // internally-consistent recovery bookkeeping at every batch size.
  for (std::size_t batch : {std::size_t{1}, std::size_t{32}}) {
    SCOPED_TRACE("batch_size=" + std::to_string(batch));
    np::ParallelConfig parallel;
    parallel.batch_size = batch;
    np::RecoveryConfig config =
        make_recovery_config(np::RecoveryPolicy::QuarantineAfterK);
    np::ParallelMpsoc par(kCores, np::DispatchPolicy::LeastLoaded, config,
                          parallel);
    install_mixed_fleet(par, 2);

    std::vector<WorkItem> items = mixed_items(700, 0.15);
    EngineTrace pt = run_parallel(par, items);
    expect_trace_conserved(pt, items.size());
  }
}

TEST(ParallelDiff, LeastLoadedBatchOfOneMatchesSerialExactly) {
  // batch_size=1 gives the parallel engine per-packet load feedback --
  // the relaxed policy collapses to the strict contract.
  np::ParallelConfig parallel;
  parallel.batch_size = 1;
  np::RecoveryConfig config =
      make_recovery_config(np::RecoveryPolicy::QuarantineAfterK);
  np::Mpsoc serial(kCores, np::DispatchPolicy::LeastLoaded, config);
  np::ParallelMpsoc par(kCores, np::DispatchPolicy::LeastLoaded, config,
                        parallel);
  install_mixed_fleet(serial, 2);
  install_mixed_fleet(par, 2);

  std::vector<WorkItem> items = mixed_items(500, 0.12);
  EngineTrace st = run_serial(serial, items);
  EngineTrace pt = run_parallel(par, items);
  expect_traces_identical(st, pt);
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

#if SDMMON_OBS_ENABLED
// ---------------------------------------------------------------------
// Observability equivalence: the deterministic subset of the metrics
// snapshot (commit-path counters, value histograms, and the recovery
// journal) must be identical serial-vs-parallel under the strict
// dispatch contract. Excluded as documented in docs/OBSERVABILITY.md:
// wall-clock *_ns histograms, the parallel-only np.parallel.* metrics
// and np.core.snapshot_dirty_pages, and Rollback journal events
// (speculation is invisible to the serial engine).
// ---------------------------------------------------------------------

bool deterministic_metric(const std::string& name) {
  if (name.rfind("np.parallel.", 0) == 0) return false;
  // Parallel-only: pages dirtied per speculative execution. The serial
  // engine never speculates, so it never registers this histogram.
  if (name == "np.core.snapshot_dirty_pages") return false;
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

std::vector<obs::Event> deterministic_events(
    const std::vector<obs::Event>& in) {
  std::vector<obs::Event> out;
  for (const obs::Event& e : in) {
    if (e.kind != obs::EventKind::Rollback) out.push_back(e);
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
    expect_traces_identical(st, pt);

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

    // Identical journal streams (minus speculation internals), down to
    // the commit-cycle timestamps.
    EXPECT_EQ(deterministic_events(ss.events),
              deterministic_events(ps.events));

    // Sanity: the workload actually exercised detection + recovery.
    EXPECT_GT(ss.counters.at(std::string(obs::names::kEngineDispatched)),
              0u);
    if (recovery != np::RecoveryPolicy::ResetAndContinue) {
      EXPECT_FALSE(deterministic_events(ss.events).empty());
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
#endif  // SDMMON_OBS_ENABLED

TEST(ParallelDiff, RollbackTelemetryOnlyWhenPolicyCanAct) {
  // ResetAndContinue never triggers a recovery action, so the snapshot-
  // free fast path must report zero rollbacks even under pure attack;
  // an acting policy under attack must actually exercise the machinery.
  {
    np::ParallelMpsoc par(2, np::DispatchPolicy::RoundRobin,
                          make_recovery_config(
                              np::RecoveryPolicy::ResetAndContinue));
    install_all(par, kVulnApp, 0x70AD);
    std::vector<WorkItem> items = mixed_items(200, 1.0);
    (void)run_parallel(par, items);
    EXPECT_EQ(par.speculation_rollbacks(), 0u);
  }
  {
    np::ParallelMpsoc par(2, np::DispatchPolicy::RoundRobin,
                          make_recovery_config(
                              np::RecoveryPolicy::ReinstallLastGood));
    install_all(par, kVulnApp, 0x70AD);
    std::vector<WorkItem> items = mixed_items(200, 1.0);
    (void)run_parallel(par, items);
    EXPECT_GT(par.speculation_rollbacks(), 0u);
  }
}

}  // namespace
}  // namespace sdmmon
