// Serial-equivalence differential suite for the parallel MPSoC engine.
// Every test replays one deterministic seeded workload -- benign UDP
// traffic plus an attack mix that exploits a vulnerable handler --
// through the serial Mpsoc and the ParallelMpsoc and diffs the full
// golden trace (tests/support/engine_diff.hpp). There is one contract for
// every dispatch policy: the traces are BIT-IDENTICAL -- per-packet
// outcomes, per-core stats, every recovery decision -- across all three
// recovery policies, every worker count, every speculation window (batch
// size), and uniform as well as heavily skewed flow distributions; and
// each side conserves every packet it was handed.
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
  // without it an epoch can be missed or requested for the wrong packet.
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
  expect_identical_and_conserved(s1, p1, first.size());

  serial.set_core_offline(3, true);
  par.set_core_offline(3, true);
  if (serial.core_health(0) == np::CoreHealth::Quarantined) {
    serial.release_core(0);
    par.release_core(0);
  }

  EngineTrace s2 = run_serial(serial, rest);
  EngineTrace p2 = run_parallel(par, rest);
  expect_identical_and_conserved(s2, p2, items.size());
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
  expect_identical_and_conserved(st, pt, items.size());
  EXPECT_GT(st.stats.undispatched, 0u);
  EXPECT_EQ(st.stats.quarantined_cores, 2u);
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
// journal) must be identical serial-vs-parallel. Excluded as documented in docs/OBSERVABILITY.md:
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
  const std::string reinstalls(obs::names::kEngineReinstalls);
  for (const obs::Registry* reg : {&serial_reg, &par_reg}) {
    obs::Snapshot snap = reg->snapshot();
    EXPECT_EQ(snap.counters.at(dispatched), items.size());
    EXPECT_EQ(snap.counters.at(reinstalls), oracle.stats.reinstalls);
  }
}

TEST(ParallelDiff, RollbackTelemetryOnlyWhenPolicyCanQuarantine) {
  // Only a quarantine takes a recovery epoch. ResetAndContinue never
  // acts, and ReinstallLastGood that never escalates re-images inline, so
  // both must run the capture-free path with zero rollbacks even under
  // pure attack; a policy that can quarantine must actually exercise the
  // machinery.
  const std::string dirty_pages(obs::names::kCoreSnapshotDirtyPages);
  for (const np::RecoveryConfig& config :
       {make_recovery_config(np::RecoveryPolicy::ResetAndContinue),
        make_recovery_config(np::RecoveryPolicy::ReinstallLastGood,
                             testsupport::kViolationThreshold,
                             testsupport::kWindowPackets,
                             np::kUnboundedReinstalls)}) {
    SCOPED_TRACE(np::recovery_policy_name(config.policy));
    np::ParallelMpsoc par(2, np::DispatchPolicy::RoundRobin, config);
    obs::Registry reg;
    par.enable_obs(reg);
    install_all(par, kVulnApp, 0x70AD);
    std::vector<WorkItem> items = mixed_items(200, 1.0);
    (void)run_parallel(par, items);
    EXPECT_EQ(par.speculation_rollbacks(), 0u);
    EXPECT_EQ(reg.snapshot().histograms.at(dirty_pages).count, 0u);
  }
  {
    np::ParallelMpsoc par(2, np::DispatchPolicy::RoundRobin,
                          make_recovery_config(
                              np::RecoveryPolicy::ReinstallLastGood));
    obs::Registry reg;
    par.enable_obs(reg);
    install_all(par, kVulnApp, 0x70AD);
    std::vector<WorkItem> items = mixed_items(200, 1.0);
    (void)run_parallel(par, items);
    EXPECT_GT(par.speculation_rollbacks(), 0u);
    EXPECT_EQ(par.speculation_rollbacks(),
              par.aggregate_stats().quarantine_events);
    EXPECT_GT(reg.snapshot().histograms.at(dirty_pages).count, 0u);
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
  // ReinstallLastGood that never escalates cannot change the active set,
  // so every re-image runs inline on the core's shard worker: no capture,
  // no recovery epoch, and the Reinstall events still journal in serial
  // order, for every dispatch policy, worker count and window.
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
        EXPECT_EQ(par.speculation_rollbacks(), 0u);

        obs::Snapshot ss = serial_reg.snapshot();
        obs::Snapshot ps = par_reg.snapshot();
        EXPECT_EQ(ps.counters.at(obs::names::kParallelRollbackBytes), 0u);
        EXPECT_EQ(ps.counters.at(obs::names::kParallelShardEpochs), 0u);
        const std::vector<obs::Event> reinstalls =
            events_of(ss, obs::EventKind::Reinstall);
        EXPECT_EQ(reinstalls.size(), st.stats.reinstalls);
        EXPECT_EQ(reinstalls, events_of(ps, obs::EventKind::Reinstall));
        EXPECT_EQ(deterministic_events(ss.events),
                  deterministic_events(ps.events));
      }
    }
  }
}

// A handler whose packet picks its fate: a nonzero first word spins until
// the watchdog traps (a slow violation), a nonzero second word executes
// `break` (a fast violation), otherwise it returns (a clean drop).
constexpr const char* kFateApp = R"(
main:
    li $t0, 0x30000
    lw $t1, 0($t0)
    bnez $t1, spin
    lw $t2, 4($t0)
    bnez $t2, trap
    jr $ra
spin:
    j spin
trap:
    break
)";

TEST(ParallelDiff, QuarantinePivotRollsBackInlineReimage) {
  // Core 0's first packet spins to the watchdog, so its worker lags while
  // core 1's worker runs ahead. Core 0 then quarantines (the epoch pivot)
  // while core 1 has already re-imaged inline for a YOUNGER packet: the
  // epoch rolls that re-image back, configuration and recovery window
  // included, and re-plans the packet onto another core. Core 1's later
  // packets then slide a violation out of its restored window, so a
  // window not restored exactly makes it re-image where the serial
  // engine does not. Whether core 1 ran ahead is up to the scheduler:
  // retry until the rollback is observed; every attempt must be
  // bit-identical.
  const np::RecoveryConfig config = make_recovery_config(
      np::RecoveryPolicy::ReinstallLastGood, /*threshold=*/2, /*window=*/4,
      /*max_reinstalls=*/1);
  ASSERT_TRUE(config.can_quarantine());

  // Flow keys: k0 lands on core 0; k1_stay on core 1 before and after
  // core 0 leaves the active set; k1_move on core 1 before, elsewhere
  // after.
  const std::vector<std::size_t> all = {0, 1, 2, 3};
  const std::vector<std::size_t> rest = {1, 2, 3};
  auto place = [](const std::vector<std::size_t>& active, std::uint32_t key) {
    std::size_t unused = 0;
    return np::pick_dispatch_core(np::DispatchPolicy::FlowHash, active, key,
                                  unused);
  };
  std::uint32_t k0 = 0, k1_stay = 0, k1_move = 0;
  for (std::uint32_t key = 1; k0 == 0 || k1_stay == 0 || k1_move == 0;
       ++key) {
    if (place(all, key) == 0 && k0 == 0) k0 = key;
    if (place(all, key) == 1 && place(rest, key) == 1 && k1_stay == 0) {
      k1_stay = key;
    }
    if (place(all, key) == 1 && place(rest, key) != 1 && k1_move == 0) {
      k1_move = key;
    }
  }
  auto packet = [](std::uint32_t spin, std::uint32_t trap) {
    util::Bytes p(8);
    util::store_le32(spin, p.data());
    util::store_le32(trap, p.data() + 4);
    return p;
  };
  const util::Bytes slow = packet(1, 0), fault = packet(0, 1),
                    clean = packet(0, 0);
  const std::vector<WorkItem> items = {
      {slow, k0},        // core 0: violation 1 (slow)
      {fault, k1_stay},  // core 1: violation 1
      {fault, k0},       // core 0: violation 2 -> re-image 1
      {clean, k1_stay},  // core 1
      {fault, k0},       // core 0
      {fault, k0},       // core 0: re-image budget spent -> quarantine
      {fault, k1_move},  // core 1 (speculatively): violation 2 -> re-image
      {clean, k1_stay},  //   ... serially this packet went elsewhere
      {clean, k1_stay},
      {fault, k1_stay},  // slides core 1's first violation out
      {clean, k1_stay},
      {fault, k1_stay},
      {fault, k1_stay},
      {clean, k1_move},
  };

  np::Mpsoc serial(kCores, np::DispatchPolicy::FlowHash, config);
  install_all(serial, kFateApp, 0xFA7E);
  const EngineTrace st = run_serial(serial, items);
  ASSERT_EQ(st.stats.quarantine_events, 1u);
  ASSERT_GE(st.stats.reinstalls, 2u);

  np::ParallelConfig parallel;
  parallel.workers = kCores;
  bool observed = false;
  for (int attempt = 0; attempt < 50 && !observed; ++attempt) {
    SCOPED_TRACE("attempt " + std::to_string(attempt));
    np::ParallelMpsoc par(kCores, np::DispatchPolicy::FlowHash, config,
                          parallel);
    obs::Registry reg;
    par.enable_obs(reg);
    install_all(par, kFateApp, 0xFA7E);
    expect_identical_and_conserved(st, run_parallel(par, items),
                                   items.size());
    // Every core is back on the shared install artifacts.
    for (std::size_t c = 1; c < kCores; ++c) {
      EXPECT_EQ(par.core(c).summary(), par.core(0).summary());
      EXPECT_EQ(par.core(c).core().compiled_program(),
                par.core(0).core().compiled_program());
      EXPECT_EQ(par.core(c).monitor().compiled(),
                par.core(0).monitor().compiled());
    }
    // Every packet younger than the pivot was planned onto core 1, which
    // runs them in order: any rollback undid the inline re-image first.
    observed =
        reg.counter(obs::names::kParallelReplayedPackets).value() > 0;
  }
  EXPECT_TRUE(observed) << "core 1 never ran ahead of the quarantine";
}

}  // namespace
}  // namespace sdmmon
