// Extension experiment X1c: the two execution tiers of
// docs/EXECUTION.md, end to end. Same packets, same apps, same monitor;
// the only difference is the dispatch granularity -- word-at-a-time
// interpretation (fetch, decode, hash every retired word) or the
// compiled tier (superblocks crossing statically predicted branches,
// retired whole per dispatch from the shared CompiledProgram artifact,
// the monitor fed one precomputed hash slice per dispatch, side-exit
// retraction on misprediction). The interpreter survives as the
// differential oracle, so this bench is also a cheap
// behavioral-equivalence check: both tiers must produce identical packet
// outcomes and instruction counts.
#include <chrono>
#include <cmath>
#include <cstdio>
#include <vector>

#include "bench_util.hpp"
#include "monitor/analysis.hpp"
#include "net/apps.hpp"
#include "net/traffic.hpp"
#include "np/monitored_core.hpp"

namespace {

using namespace sdmmon;
using Clock = std::chrono::steady_clock;

struct AppCase {
  const char* name;
  isa::Program program;
};

// Process every packet and return simulated kpps. The monitored core's
// cumulative stats keep accumulating across calls; callers compare
// deltas, not totals.
double time_packets(np::MonitoredCore& core,
                    const std::vector<util::Bytes>& packets) {
  auto start = Clock::now();
  for (const util::Bytes& packet : packets) (void)core.process_packet(packet);
  const double seconds =
      std::chrono::duration<double>(Clock::now() - start).count();
  return static_cast<double>(packets.size()) / seconds / 1000.0;
}

// Raw-core throughput in million instructions/s: repeatedly soft-reset,
// deliver, and run() one packet -- the tier's unmonitored ceiling.
double time_raw(np::Core& core, const std::vector<util::Bytes>& packets) {
  const std::uint64_t before = core.cycles();
  auto start = Clock::now();
  for (const util::Bytes& packet : packets) {
    core.soft_reset();
    core.deliver_packet(packet);
    (void)core.run();
  }
  const double seconds =
      std::chrono::duration<double>(Clock::now() - start).count();
  return static_cast<double>(core.cycles() - before) / seconds / 1e6;
}

bool same_delta(const np::CoreStats& before, const np::CoreStats& after,
                const np::CoreStats& first) {
  return after.forwarded - before.forwarded == first.forwarded &&
         after.dropped - before.dropped == first.dropped &&
         after.attacks_detected - before.attacks_detected ==
             first.attacks_detected &&
         after.traps - before.traps == first.traps &&
         after.instructions - before.instructions == first.instructions;
}

}  // namespace

int main() {
  bench::heading("X1c: compiled (superblock) vs interpreted execution tier");

  AppCase apps[] = {
      {"ipv4-forward", net::build_ipv4_forward()},
      {"ipv4-cm", net::build_ipv4_cm()},
      {"udp-echo", net::build_udp_echo()},
      {"firewall(8 ports)",
       net::build_firewall({21, 22, 23, 53, 80, 443, 8080, 8443})},
      {"loop-forward", net::build_loop_forward()},
  };

  const int kPackets = bench::scaled(1500, 20);
  const int kReps = bench::scaled(5, 2);

  bench::BenchReport report("core_predecode");
  report.set_meta("packets", kPackets);
  report.set_meta("reps", kReps);

  std::printf("%-18s %9s %9s %8s %9s %7s %9s %9s %8s\n", "app", "int kpps",
              "cmp kpps", "cmp/int", "disp/pkt", "sexit", "raw int",
              "raw cmp", "raw x");
  bench::rule(96);

  bool wired_ok = true;
  bool behavior_ok = true;
  double log_speedup_sum = 0.0;
  for (auto& app : apps) {
    monitor::MerkleTreeHash hash(0xBEEFCAFE);
    auto graph = monitor::extract_graph(app.program, hash);

    np::MonitoredCore core;
    core.install(app.program, graph,
                 std::make_unique<monitor::MerkleTreeHash>(hash));
    wired_ok = wired_ok && core.core().compiled_live() &&
               core.core().compiled_program()->num_traces() > 0;

    net::TrafficGenerator gen;
    std::vector<util::Bytes> packets;
    packets.reserve(static_cast<std::size_t>(kPackets));
    for (int i = 0; i < kPackets; ++i) packets.push_back(gen.next().packet);

    // Warm each tier once, then interleave best-of-N reps: the windows
    // are tens of milliseconds, so keeping each side's best measures
    // engine capability rather than scheduler interference. Oracle check
    // on the warm passes: both tiers process identical packets, so
    // outcome and instruction deltas must be identical. The compiled
    // warm pass also collects dispatch and side-exit telemetry (it does
    // not vary across reps of identical packets).
    core.core().set_tier(np::Tier::Interpret);
    (void)time_packets(core, packets);
    const np::CoreStats interp_stats = core.stats();
    core.core().set_tier(np::Tier::Compiled);
    std::uint64_t dispatches = 0, side_exits = 0;
    for (const util::Bytes& packet : packets) {
      const np::PacketResult r = core.process_packet(packet);
      dispatches += r.trace_dispatches;
      side_exits += r.trace_side_exits;
    }
    const np::CoreStats compiled_stats = core.stats();
    behavior_ok = behavior_ok &&
                  same_delta(interp_stats, compiled_stats, interp_stats) &&
                  dispatches > 0;
    const double side_exit_rate =
        dispatches == 0 ? 0.0
                        : static_cast<double>(side_exits) /
                              static_cast<double>(dispatches);
    const double dispatches_per_packet =
        static_cast<double>(dispatches) / static_cast<double>(kPackets);

    double interp_kpps = 0.0, compiled_kpps = 0.0;
    for (int rep = 0; rep < kReps; ++rep) {
      core.core().set_tier(np::Tier::Interpret);
      interp_kpps = std::max(interp_kpps, time_packets(core, packets));
      core.core().set_tier(np::Tier::Compiled);
      compiled_kpps = std::max(compiled_kpps, time_packets(core, packets));
    }
    const double speedup = compiled_kpps / interp_kpps;
    log_speedup_sum += std::log(speedup);

    // Raw core, no monitor: each tier's unmonitored ceiling.
    np::Core raw;
    raw.load_program(app.program, core.core().compiled_program());
    double raw_interp = 0.0, raw_compiled = 0.0;
    for (np::Tier t : {np::Tier::Interpret, np::Tier::Compiled}) {
      raw.set_tier(t);
      (void)time_raw(raw, packets);
    }
    for (int rep = 0; rep < kReps; ++rep) {
      raw.set_tier(np::Tier::Interpret);
      raw_interp = std::max(raw_interp, time_raw(raw, packets));
      raw.set_tier(np::Tier::Compiled);
      raw_compiled = std::max(raw_compiled, time_raw(raw, packets));
    }

    std::printf("%-18s %9.1f %9.1f %7.2fx %9.2f %6.1f%% %9.1f %9.1f %7.2fx\n",
                app.name, interp_kpps, compiled_kpps, speedup,
                dispatches_per_packet, side_exit_rate * 100.0, raw_interp,
                raw_compiled, raw_compiled / raw_interp);
    report.add_row({{"app", app.name},
                    {"interp_kpps", interp_kpps},
                    {"compiled_kpps", compiled_kpps},
                    {"speedup", speedup},
                    {"dispatches_per_pkt", dispatches_per_packet},
                    {"side_exit_rate", side_exit_rate},
                    {"raw_interp_minstr_s", raw_interp},
                    {"raw_compiled_minstr_s", raw_compiled},
                    {"raw_speedup", raw_compiled / raw_interp}});
  }
  bench::rule(96);
  const double geo_speedup =
      std::exp(log_speedup_sum / static_cast<double>(std::size(apps)));
  report.set_meta("speedup", geo_speedup);
  std::printf("  geometric-mean monitored speedup compiled/interp: %.2fx\n",
              geo_speedup);
  bench::note("kpps columns: full monitored process_packet() path per tier");
  bench::note("(soft reset, MMIO, monitor fed per-op or per-superblock);");
  bench::note("disp/pkt: superblock dispatches per packet; sexit: side exits");
  bench::note("per dispatch (branches resolved off the predicted path);");
  bench::note("raw: unmonitored Core::run(), million instructions/second.");
  report.write();

  if (!wired_ok) {
    std::fprintf(stderr,
                 "FAIL: compiled artifact not attached/live after install\n");
    return 1;
  }
  if (!behavior_ok) {
    std::fprintf(stderr,
                 "FAIL: execution tiers diverged (outcome/instruction "
                 "deltas differ) or no superblocks dispatched\n");
    return 1;
  }
  // Acceptance criterion (full budget only; quick mode is a wiring check
  // on CI-class machines where timing is meaningless).
  if (!bench::quick_mode() && geo_speedup < 6.0) {
    std::fprintf(stderr,
                 "FAIL: compiled speedup %.2fx below the 6x criterion\n",
                 geo_speedup);
    return 1;
  }
  return 0;
}
