// Extension experiment X1: monitoring overhead on packet processing.
// In hardware the monitor runs in parallel with the core (zero cycle
// overhead); what this bench quantifies is (a) the per-packet instruction
// counts of each application, (b) the simulator-level cost of monitoring
// (relevant to anyone using this codebase for research), and (c) the
// monitor's tracked-state ambiguity, which sizes the comparator logic.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <vector>

#include "bench_util.hpp"
#include "monitor/analysis.hpp"
#include "monitor/reference_monitor.hpp"
#include "net/apps.hpp"
#include "net/traffic.hpp"
#include "np/monitored_core.hpp"
#include "util/rng.hpp"

namespace {

using namespace sdmmon;
using Clock = std::chrono::steady_clock;

struct AppCase {
  const char* name;
  isa::Program program;
};

// Pre-generated hashed-report streams: valid random walks over `graph`,
// one vector per packet, so the timed loops below touch nothing but
// on_hashed(). Identical streams feed both walkers.
std::vector<std::vector<std::uint8_t>> make_streams(
    const monitor::MonitoringGraph& graph, std::size_t total_reports,
    util::Rng& rng) {
  std::vector<std::vector<std::uint8_t>> streams;
  std::size_t generated = 0;
  while (generated < total_reports) {
    std::vector<std::uint8_t> stream;
    std::uint32_t at = graph.entry_index();
    for (int i = 0; i < 256; ++i) {
      stream.push_back(graph.node(at).hash);
      const auto& succ = graph.node(at).successors;
      if (succ.empty()) break;
      at = succ[rng.below(static_cast<std::uint32_t>(succ.size()))];
    }
    generated += stream.size();
    streams.push_back(std::move(stream));
  }
  return streams;
}

// Feed every stream (with a per-packet reset) and return million
// reports/s. `Monitor` is HardwareMonitor or ReferenceMonitor.
template <typename Monitor>
double time_walker(Monitor& monitor,
                   const std::vector<std::vector<std::uint8_t>>& streams,
                   std::size_t total_reports) {
  auto start = Clock::now();
  for (const auto& stream : streams) {
    monitor.reset();
    for (std::uint8_t report : stream) (void)monitor.on_hashed(report);
  }
  const double seconds =
      std::chrono::duration<double>(Clock::now() - start).count();
  return static_cast<double>(total_reports) / seconds / 1e6;
}

}  // namespace

int main() {
  bench::heading("X1: per-app packet processing and monitoring cost");

  AppCase apps[] = {
      {"ipv4-forward", net::build_ipv4_forward()},
      {"ipv4-cm", net::build_ipv4_cm()},
      {"udp-echo", net::build_udp_echo()},
      {"firewall(8 ports)",
       net::build_firewall({21, 22, 23, 53, 80, 443, 8080, 8443})},
  };

  const int kPackets = bench::scaled(2000, 20);
  np::CycleModel cycle_model;  // 100 MHz PLASMA-like profile

  bench::BenchReport report("monitor_throughput");
  report.set_meta("packets", kPackets);

  std::printf("%-20s %9s %11s %6s %12s %11s %10s\n", "app", "fwd rate",
              "instrs/pkt", "CPI", "model kpps", "sim kpps", "ambiguity");
  bench::rule(84);

  for (auto& app : apps) {
    monitor::MerkleTreeHash hash(0xBEEFCAFE);
    auto graph = monitor::extract_graph(app.program, hash);

    np::MonitoredCore core;
    core.install(app.program, graph,
                 std::make_unique<monitor::MerkleTreeHash>(hash));
    net::TrafficGenerator gen;

    auto start = Clock::now();
    for (int i = 0; i < kPackets; ++i) {
      (void)core.process_packet(gen.next().packet);
    }
    double sim_seconds =
        std::chrono::duration<double>(Clock::now() - start).count();

    const auto& stats = core.stats();
    const np::InstrMix& mix = core.core().instr_mix();
    const double instr_per_pkt = static_cast<double>(stats.instructions) /
                                 static_cast<double>(stats.packets);
    const double forwarded_frac = static_cast<double>(stats.forwarded) /
                                  static_cast<double>(stats.packets);
    // Modeled throughput of the 100 MHz core on this workload.
    const double modeled_pps =
        static_cast<double>(kPackets) / cycle_model.seconds(mix);

    std::printf("%-20s %8.1f%% %11.0f %6.2f %12.1f %11.1f %10.2f\n",
                app.name, forwarded_frac * 100.0, instr_per_pkt,
                cycle_model.cpi(mix), modeled_pps / 1000.0,
                kPackets / sim_seconds / 1000.0,
                core.monitor().stats().average_ambiguity());
    report.add_row({{"app", app.name},
                    {"forwarded_pct", forwarded_frac * 100.0},
                    {"instr_per_packet", instr_per_pkt},
                    {"cpi", cycle_model.cpi(mix)},
                    {"model_kpps", modeled_pps / 1000.0},
                    {"sim_kpps", kPackets / sim_seconds / 1000.0},
                    {"ambiguity",
                     core.monitor().stats().average_ambiguity()}});
  }
  bench::rule(84);
  bench::note("model kpps: packets/s of the 100 MHz PLASMA-like core under");
  bench::note("the cycle-cost model (1c ALU, 2c load, 2c taken branch, 12c");
  bench::note("mul/div); the hardware monitor adds zero cycles.");
  bench::note("fwd rate: packets committed to output (rest legitimately");
  bench::note("dropped). ambiguity: mean tracked-state-set size -- the NFA");
  bench::note("width the monitor's comparators must support.");

  // ---- compiled hot loop vs the original reference walker --------------
  // Identical pre-generated hashed streams (valid random walks over each
  // app's graph, per-packet resets) through both implementations; the
  // only work timed is on_hashed().
  bench::heading("X1b: compiled monitor vs reference walker (on_hashed)");
  const std::size_t kReports =
      static_cast<std::size_t>(bench::scaled(2'000'000, 5'000));
  report.set_meta("hashed_reports", static_cast<std::uint64_t>(kReports));
  constexpr double kMinSpeedup = 2.0;

  std::printf("%-20s %14s %14s %9s\n", "app", "ref Minstr/s",
              "compiled M/s", "speedup");
  bench::rule(61);
  double worst_speedup = 0.0;
  for (auto& app : apps) {
    monitor::MerkleTreeHash hash(0xBEEFCAFE);
    auto graph = monitor::extract_graph(app.program, hash);
    util::Rng rng(0x57AB1E);
    auto streams = make_streams(graph, kReports, rng);
    std::size_t total = 0;
    for (const auto& s : streams) total += s.size();

    monitor::ReferenceMonitor reference(
        graph, std::make_unique<monitor::MerkleTreeHash>(hash));
    monitor::HardwareMonitor compiled(
        graph, std::make_unique<monitor::MerkleTreeHash>(hash));
    // Warm every walker once so steady-state capacities are in place,
    // then interleave repetitions and keep each walker's best: the
    // timing windows are tens of milliseconds, so best-of-N measures
    // walker capability rather than scheduler interference.
    (void)time_walker(reference, streams, total);
    (void)time_walker(compiled, streams, total);
    double ref_mps = 0.0, compiled_mps = 0.0;
    for (int rep = 0; rep < bench::scaled(5, 2); ++rep) {
      ref_mps = std::max(ref_mps, time_walker(reference, streams, total));
      compiled_mps =
          std::max(compiled_mps, time_walker(compiled, streams, total));
    }
    const double speedup = compiled_mps / ref_mps;
    worst_speedup = worst_speedup == 0.0 ? speedup
                                         : std::min(worst_speedup, speedup);

    std::printf("%-20s %14.1f %14.1f %8.2fx\n", app.name, ref_mps,
                compiled_mps, speedup);
    report.add_row({{"app", app.name},
                    {"ref_minstr_s", ref_mps},
                    {"compiled_minstr_s", compiled_mps},
                    {"speedup", speedup}});
  }
  bench::rule(61);
  bench::note("same streams, same per-packet resets; speedup is the gain");
  bench::note("of the compiled on_hashed() path (install-time determinised");
  bench::note("transition table: one load per report) over the filter/sort");
  bench::note("walker.");
  const bool speedup_ok = worst_speedup >= kMinSpeedup;
  std::printf("\nworst compiled/reference speedup: %.2fx -- %s (criterion: "
              ">= %.0fx)\n",
              worst_speedup, speedup_ok ? "PASS" : "FAIL", kMinSpeedup);
  report.write();
  // Quick mode (bench-smoke CI) validates wiring and JSON schema on a
  // tiny budget; the speedup criterion only gates full runs.
  if (!speedup_ok && bench::quick_mode()) {
    bench::note("quick mode: speedup criterion not enforced");
  }
  return (speedup_ok || bench::quick_mode()) ? 0 : 1;
}
