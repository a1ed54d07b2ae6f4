// Golden-trace differential harness: replay one seeded workload through
// the serial Mpsoc and the parallel engine and compare every observable
// -- per-packet outcomes and outputs, per-core CoreStats and monitor
// counters, recovery state (health, window fill, counters), and the
// aggregate MpsocStats. This is
// the DMON-style lockstep oracle the parallel engine is trusted through:
// any divergence in dispatch, stats accounting, or recovery decisions
// shows up as a failed field-level expectation naming the packet or core.
#ifndef SDMMON_TESTS_SUPPORT_ENGINE_DIFF_HPP
#define SDMMON_TESTS_SUPPORT_ENGINE_DIFF_HPP

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "np/mpsoc.hpp"
#include "np/parallel_mpsoc.hpp"
#include "sdmmon/workload.hpp"

namespace sdmmon::testsupport {

/// A core's monitor counters: cumulative stats and the last packet's
/// peak width.
struct MonitorTally {
  monitor::MonitorStats stats;
  std::size_t peak_state_size = 0;
};

/// Everything observable about one engine run.
struct EngineTrace {
  std::vector<np::PacketOutcome> outcomes;      // per packet, input order
  std::vector<std::uint64_t> instructions;      // per packet
  std::vector<util::Bytes> outputs;             // per packet (Forwarded)
  std::vector<np::CoreStats> core_stats;        // per core
  std::vector<np::CoreHealth> health;           // per core
  std::vector<std::size_t> window_violations;   // per core
  std::vector<MonitorTally> monitor;            // per core
  np::MpsocStats stats;
  std::uint64_t reinstall_requests = 0;
};

inline void record_result(EngineTrace& trace, const np::PacketResult& r) {
  trace.outcomes.push_back(r.outcome);
  trace.instructions.push_back(r.instructions);
  trace.outputs.push_back(r.output);
}

template <typename Engine>
void record_engine_state(EngineTrace& trace, const Engine& engine) {
  for (std::size_t c = 0; c < engine.num_cores(); ++c) {
    trace.core_stats.push_back(engine.core(c).stats());
    trace.health.push_back(engine.core_health(c));
    trace.window_violations.push_back(engine.recovery().window_violations(c));
    MonitorTally tally;
    if (engine.core(c).installed()) {
      tally = {engine.core(c).monitor().stats(),
               engine.core(c).monitor().peak_state_size()};
    }
    trace.monitor.push_back(tally);
  }
  trace.stats = engine.aggregate_stats();
  trace.reinstall_requests = engine.recovery().reinstall_requests();
}

/// Replay `items` through the serial engine.
inline EngineTrace run_serial(np::Mpsoc& soc,
                              const std::vector<protocol::WorkItem>& items) {
  EngineTrace trace;
  for (const protocol::WorkItem& item : items) {
    record_result(trace, soc.process_packet(item.packet, item.flow_key));
  }
  record_engine_state(trace, soc);
  return trace;
}

/// Replay `items` through the parallel engine, submitting in chunks of
/// `chunk` packets (0 = one call) to exercise multi-batch ingestion.
inline EngineTrace run_parallel(np::ParallelMpsoc& soc,
                                const std::vector<protocol::WorkItem>& items,
                                std::size_t chunk = 0) {
  EngineTrace trace;
  if (chunk == 0) chunk = items.size() > 0 ? items.size() : 1;
  for (std::size_t off = 0; off < items.size(); off += chunk) {
    const std::size_t n = std::min(chunk, items.size() - off);
    std::vector<np::ParallelMpsoc::Packet> packets(n);
    for (std::size_t i = 0; i < n; ++i) {
      packets[i] = {items[off + i].packet, items[off + i].flow_key};
    }
    for (np::PacketResult& r : soc.process_packets(packets)) {
      record_result(trace, r);
    }
  }
  soc.flush();
  record_engine_state(trace, soc);
  return trace;
}

inline void expect_core_stats_equal(const np::CoreStats& a,
                                    const np::CoreStats& b,
                                    std::size_t core) {
  EXPECT_EQ(a.packets, b.packets) << "core " << core;
  EXPECT_EQ(a.forwarded, b.forwarded) << "core " << core;
  EXPECT_EQ(a.dropped, b.dropped) << "core " << core;
  EXPECT_EQ(a.attacks_detected, b.attacks_detected) << "core " << core;
  EXPECT_EQ(a.traps, b.traps) << "core " << core;
  EXPECT_EQ(a.instructions, b.instructions) << "core " << core;
}

/// Monitor counters are exact too.
inline void expect_monitor_tally_equal(const MonitorTally& a,
                                       const MonitorTally& b,
                                       std::size_t core) {
  EXPECT_EQ(a.stats.instructions_checked, b.stats.instructions_checked)
      << "core " << core;
  EXPECT_EQ(a.stats.mismatches, b.stats.mismatches) << "core " << core;
  EXPECT_EQ(a.stats.packets_monitored, b.stats.packets_monitored)
      << "core " << core;
  EXPECT_EQ(a.stats.state_size_accum, b.stats.state_size_accum)
      << "core " << core;
  EXPECT_EQ(a.peak_state_size, b.peak_state_size) << "core " << core;
}

/// The strict contract, one for every dispatch policy: bit-identical
/// traces.
inline void expect_traces_identical(const EngineTrace& serial,
                                    const EngineTrace& parallel) {
  ASSERT_EQ(serial.outcomes.size(), parallel.outcomes.size());
  for (std::size_t i = 0; i < serial.outcomes.size(); ++i) {
    ASSERT_EQ(serial.outcomes[i], parallel.outcomes[i])
        << "packet " << i << ": serial "
        << np::packet_outcome_name(serial.outcomes[i]) << " vs parallel "
        << np::packet_outcome_name(parallel.outcomes[i]);
    ASSERT_EQ(serial.instructions[i], parallel.instructions[i])
        << "packet " << i;
    ASSERT_EQ(serial.outputs[i], parallel.outputs[i]) << "packet " << i;
  }
  ASSERT_EQ(serial.core_stats.size(), parallel.core_stats.size());
  for (std::size_t c = 0; c < serial.core_stats.size(); ++c) {
    expect_core_stats_equal(serial.core_stats[c], parallel.core_stats[c], c);
    EXPECT_EQ(serial.health[c], parallel.health[c])
        << "core " << c << ": serial "
        << np::core_health_name(serial.health[c]) << " vs parallel "
        << np::core_health_name(parallel.health[c]);
    EXPECT_EQ(serial.window_violations[c], parallel.window_violations[c])
        << "core " << c;
    expect_monitor_tally_equal(serial.monitor[c], parallel.monitor[c], c);
  }
  EXPECT_EQ(serial.stats.packets, parallel.stats.packets);
  EXPECT_EQ(serial.stats.forwarded, parallel.stats.forwarded);
  EXPECT_EQ(serial.stats.dropped, parallel.stats.dropped);
  EXPECT_EQ(serial.stats.attacks_detected, parallel.stats.attacks_detected);
  EXPECT_EQ(serial.stats.traps, parallel.stats.traps);
  EXPECT_EQ(serial.stats.instructions, parallel.stats.instructions);
  EXPECT_EQ(serial.stats.undispatched, parallel.stats.undispatched);
  EXPECT_EQ(serial.stats.violations, parallel.stats.violations);
  EXPECT_EQ(serial.stats.quarantine_events,
            parallel.stats.quarantine_events);
  EXPECT_EQ(serial.stats.reinstalls, parallel.stats.reinstalls);
  EXPECT_EQ(serial.stats.healthy_cores, parallel.stats.healthy_cores);
  EXPECT_EQ(serial.stats.quarantined_cores,
            parallel.stats.quarantined_cores);
  EXPECT_EQ(serial.stats.uninstalled_cores,
            parallel.stats.uninstalled_cores);
  EXPECT_EQ(serial.reinstall_requests, parallel.reinstall_requests);
}

/// Conservation, checked on both sides of every strict comparison: each
/// of the `submitted` packets the engine has been handed over its
/// lifetime (stats are cumulative across runs) is counted exactly once,
/// on one core or as undispatched (forwarded + dropped + attacks + traps
/// + undispatched = packets); each core's packets split exactly
/// into its four outcomes; and the recovery bookkeeping counts exactly
/// the detected attacks and traps as violations.
inline void expect_trace_conserved(const EngineTrace& trace,
                                   std::size_t submitted) {
  EXPECT_LE(trace.outcomes.size(), submitted);
  std::uint64_t per_core_packets = 0;
  for (const np::CoreStats& s : trace.core_stats) {
    EXPECT_EQ(s.packets,
              s.forwarded + s.dropped + s.attacks_detected + s.traps);
    per_core_packets += s.packets;
  }
  EXPECT_EQ(per_core_packets + trace.stats.undispatched, submitted);
  EXPECT_EQ(trace.stats.packets, per_core_packets);
  // Every trap is a violation, like every monitor mismatch.
  EXPECT_EQ(trace.stats.violations,
            trace.stats.attacks_detected + trace.stats.traps);
}

}  // namespace sdmmon::testsupport

#endif  // SDMMON_TESTS_SUPPORT_ENGINE_DIFF_HPP
