// Extension experiment X2: parallel MPSoC engine scaling. The serial
// Mpsoc processes one packet at a time regardless of core count; the
// ParallelMpsoc shards cores over worker threads with flow affinity.
// Each shard has one FIFO ring, and its worker is the only thread that
// runs its cores' packets, the way each NP core of the MPSoC runs its
// own packet stream; results fold in global order through a reorder
// buffer, so RoundRobin / FlowHash traces stay bit-identical to the
// serial engine (verified by tests/mpsoc_parallel_diff_test.cpp). This
// bench measures the price and the payoff: packets/sec of the serial
// baseline vs the parallel engine at 1, 2, 4, and 8 workers on the
// same 8-core fleet and workload.
//
// Pass criterion: >= 3x serial throughput at 8 workers on a host with at
// least 8 hardware threads; elsewhere the 8-worker run must keep >= 0.7x
// serial (overhead parity). Only full-budget runs gate: quick mode
// exits 0 either way.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "isa/assembler.hpp"
#include "monitor/analysis.hpp"
#include "np/mpsoc.hpp"
#include "np/parallel_mpsoc.hpp"
#include "sdmmon/workload.hpp"

namespace {

using namespace sdmmon;
using Clock = std::chrono::steady_clock;

constexpr std::size_t kCores = 8;
const std::uint64_t kPackets =
    static_cast<std::uint64_t>(bench::scaled(200'000, 2'000));

// Echo app: copy the packet to the output buffer and commit. Heavy
// enough (a few hundred instructions per packet) that worker threads,
// not the planner/fold path, dominate the critical path.
constexpr const char* kEchoApp = R"(
main:
    li $t0, 0xFFFF0000
    lw $t1, 0($t0)
    beqz $t1, drop
    li $t2, 0x30000
    li $t3, 0x40000
    move $t4, $zero
copy:
    addu $t5, $t2, $t4
    lbu $t6, 0($t5)
    addu $t5, $t3, $t4
    sb $t6, 0($t5)
    addiu $t4, $t4, 1
    bne $t4, $t1, copy
    li $t0, 0xFFFF0004
    sw $t1, 0($t0)
drop:
    jr $ra
)";

template <typename Soc>
void install_echo(Soc& soc) {
  isa::Program p = isa::assemble(kEchoApp);
  monitor::MerkleTreeHash hash(0x5CA1E);
  soc.install_all(p, monitor::extract_graph(p, hash), hash);
}

std::vector<protocol::WorkItem> make_items() {
  protocol::MixedWorkloadConfig config;
  config.seed = 0x5CA11;
  config.min_payload = 16;
  config.max_payload = 48;
  return protocol::MixedWorkload(config).generate(0, kPackets);
}

double run_serial(const std::vector<protocol::WorkItem>& items) {
  np::Mpsoc soc(kCores, np::DispatchPolicy::RoundRobin);
  install_echo(soc);
  auto start = Clock::now();
  for (const auto& item : items) {
    (void)soc.process_packet(item.packet, item.flow_key);
  }
  double seconds = std::chrono::duration<double>(Clock::now() - start).count();
  if (soc.aggregate_stats().forwarded != items.size()) {
    std::fprintf(stderr, "serial engine dropped packets unexpectedly\n");
    std::exit(1);
  }
  return static_cast<double>(items.size()) / seconds;
}

double run_parallel(const std::vector<protocol::WorkItem>& items,
                    std::size_t workers) {
  np::ParallelConfig parallel;
  parallel.workers = workers;
  np::ParallelMpsoc soc(kCores, np::DispatchPolicy::RoundRobin, {}, parallel);
  install_echo(soc);
  auto start = Clock::now();
  for (const auto& item : items) {
    soc.submit(item.packet, item.flow_key);
  }
  soc.flush();
  double seconds = std::chrono::duration<double>(Clock::now() - start).count();
  if (soc.aggregate_stats().forwarded != items.size()) {
    std::fprintf(stderr, "parallel engine dropped packets unexpectedly\n");
    std::exit(1);
  }
  return static_cast<double>(items.size()) / seconds;
}

}  // namespace

int main() {
  bench::heading("X2: parallel MPSoC engine scaling (8-core fleet)");

  const unsigned hw = std::thread::hardware_concurrency();
  std::vector<protocol::WorkItem> items = make_items();
  bench::note("workload: " + std::to_string(kPackets) +
              " UDP packets, udp-echo on all 8 cores, RoundRobin");
  bench::note("host hardware threads: " + std::to_string(hw));

  bench::BenchReport report("mpsoc_parallel_scaling");
  report.set_meta("cores", kCores);
  report.set_meta("packets", kPackets);
  report.set_meta("hardware_threads", hw);

  const double serial_pps = run_serial(items);
  std::printf("\n%-16s %14s %10s\n", "engine", "packets/sec", "speedup");
  bench::rule(44);
  std::printf("%-16s %14.0f %9.2fx\n", "serial", serial_pps, 1.0);
  report.add_row(
      {{"engine", "serial"}, {"workers", 0}, {"pps", serial_pps},
       {"speedup", 1.0}});

  double pps8 = 0.0;
  for (std::size_t workers : {std::size_t{1}, std::size_t{2}, std::size_t{4},
                              std::size_t{8}}) {
    const double pps = run_parallel(items, workers);
    if (workers == 8) pps8 = pps;
    std::printf("parallel x%-5zu %15.0f %9.2fx\n", workers, pps,
                pps / serial_pps);
    report.add_row({{"engine", "parallel"},
                    {"workers", workers},
                    {"pps", pps},
                    {"speedup", pps / serial_pps}});
  }
  bench::rule(44);

  const double speedup = pps8 / serial_pps;
  bool scaling_ok;
  if (hw >= 8) {
    // The >= 3x acceptance criterion applies on an 8-core host.
    scaling_ok = speedup >= 3.0;
    std::printf("\n8-worker speedup over serial: %.2fx -- %s (criterion: "
                ">= 3x on an 8-core host)\n",
                speedup, scaling_ok ? "PASS" : "FAIL");
  } else {
    // Fewer hardware threads than workers: speedup is capped near hw,
    // so the >= 3x criterion is not measurable. What IS measurable --
    // and what this host verifies -- is engine overhead: with more
    // workers than hardware threads, the plan + shard-ring + fold path
    // and the oversubscribed workers (each idling on its own ring, none
    // waiting on another's packets) must not cost meaningful throughput
    // vs the serial loop.
    std::printf("\n8-worker speedup over serial: %.2fx (host has only %u "
                "hardware thread%s;\nthe >= 3x criterion applies on an "
                "8-core host)\n",
                speedup, hw, hw == 1 ? "" : "s");
    scaling_ok = speedup >= 0.7;
    std::printf("overhead parity check (parallel >= 0.7x serial on a "
                "saturated host): %s\n",
                scaling_ok ? "PASS" : "FAIL");
  }
  bench::note("identical per-packet results to the serial engine; see");
  bench::note("tests/mpsoc_parallel_diff_test.cpp for the differential");
  bench::note("proof and docs/ARCHITECTURE.md for the sharded "
              "reorder-buffer design.");

  report.write();

  // Quick mode (bench-smoke CI) validates wiring and JSON schema on a
  // tiny budget; the perf criterion only gates full runs.
  return (scaling_ok || bench::quick_mode()) ? 0 : 1;
}
