// Extension experiment X2: recovery latency and graceful degradation.
//
// The paper's recovery model (Section 2.1) is drop-packet + reset-core:
// one attack packet costs exactly that packet. This bench quantifies the
// system-level cost of the three recovery policies on an 8-core MPSoC as
// the injected attack rate rises: how much throughput survives, how many
// packets a core needs to recover after a detection, and how quickly
// quarantine trades residual capacity for containment.
#include <chrono>
#include <cstdio>
#include <vector>

#include "attack/attack.hpp"
#include "bench_util.hpp"
#include "monitor/analysis.hpp"
#include "net/apps.hpp"
#include "np/mpsoc.hpp"
#include "util/rng.hpp"

namespace {

using namespace sdmmon;

constexpr std::size_t kCores = 8;
const int kPackets = bench::scaled(4000, 200);

struct RunResult {
  double forwarded_frac = 0;     // of all offered packets
  double benign_forwarded = 0;   // of benign packets only
  double undispatched_frac = 0;
  std::uint64_t detected = 0;
  std::size_t quarantined = 0;
  std::uint64_t reinstalls = 0;
  double pkts_to_recover = 0;    // mean packets on a core from detection
                                 // to its next successful forward
};

RunResult run(np::RecoveryPolicy policy, double attack_rate) {
  np::RecoveryConfig config;
  config.policy = policy;
  config.violation_threshold = 3;
  config.window_packets = 64;

  np::Mpsoc soc(kCores, np::DispatchPolicy::RoundRobin, config);
  isa::Program app = net::build_ipv4_cm();
  monitor::MerkleTreeHash hash(0xBEEFCAFE);
  soc.install_all(app, monitor::extract_graph(app, hash), hash);

  util::Rng rng(0x5EC0DE ^ static_cast<std::uint64_t>(attack_rate * 1e6) ^
                (static_cast<std::uint64_t>(policy) << 32));
  auto attack = attack::craft_cm_overflow(attack::marker_shellcode());

  // Recovery latency bookkeeping: per core, packets seen since the last
  // detection that have not yet ended in a forward.
  std::vector<std::int64_t> since_detect(kCores, -1);  // -1 = not recovering
  std::uint64_t recover_pkts = 0, recoveries = 0;
  std::uint64_t benign = 0, benign_fwd = 0;

  std::vector<std::uint64_t> pkts_before(kCores);
  for (int i = 0; i < kPackets; ++i) {
    bool hostile = rng.chance(attack_rate);
    util::Bytes packet = hostile
        ? attack.packet
        : attack::benign_cm_packet(static_cast<std::uint8_t>(rng.below(100)));
    if (!hostile) ++benign;

    for (std::size_t c = 0; c < kCores; ++c)
      pkts_before[c] = soc.core(c).stats().packets;
    np::PacketResult r =
        soc.process_packet(packet, static_cast<std::uint32_t>(rng.next()));
    // Which core took it? (8-way scan; fine at bench scale.)
    std::size_t who = kCores;
    for (std::size_t c = 0; c < kCores; ++c)
      if (soc.core(c).stats().packets != pkts_before[c]) who = c;

    if (!hostile && r.outcome == np::PacketOutcome::Forwarded) ++benign_fwd;
    if (who == kCores) continue;  // undispatched
    if (since_detect[who] >= 0) {
      ++since_detect[who];
      if (r.outcome == np::PacketOutcome::Forwarded) {
        recover_pkts += static_cast<std::uint64_t>(since_detect[who]);
        ++recoveries;
        since_detect[who] = -1;
      }
    }
    if (r.outcome == np::PacketOutcome::AttackDetected)
      since_detect[who] = 0;
  }

  np::MpsocStats stats = soc.aggregate_stats();
  RunResult out;
  out.forwarded_frac =
      static_cast<double>(stats.forwarded) / static_cast<double>(kPackets);
  out.benign_forwarded =
      benign == 0 ? 0 : static_cast<double>(benign_fwd) / benign;
  out.undispatched_frac =
      static_cast<double>(stats.undispatched) / static_cast<double>(kPackets);
  out.detected = stats.attacks_detected;
  out.quarantined = stats.quarantined_cores;
  out.reinstalls = stats.reinstalls;
  out.pkts_to_recover =
      recoveries == 0 ? 0
                      : static_cast<double>(recover_pkts) /
                            static_cast<double>(recoveries);
  return out;
}

}  // namespace

int main() {
  bench::heading("X2: recovery latency vs injected attack rate (8-core MPSoC)");

  const double rates[] = {0.0, 0.01, 0.05, 0.10, 0.20};
  const np::RecoveryPolicy policies[] = {
      np::RecoveryPolicy::ResetAndContinue,
      np::RecoveryPolicy::QuarantineAfterK,
      np::RecoveryPolicy::ReinstallLastGood,
  };

  bench::BenchReport report("recovery_latency");
  report.set_meta("cores", kCores);
  report.set_meta("packets", kPackets);

  std::printf("%-20s %6s %8s %10s %8s %6s %6s %9s\n", "policy", "atk%",
              "fwd%", "benign-fwd%", "undisp%", "det", "quar", "pkts/rec");
  bench::rule(84);
  for (auto policy : policies) {
    for (double rate : rates) {
      RunResult r = run(policy, rate);
      std::printf("%-20s %5.0f%% %7.1f%% %10.1f%% %7.1f%% %6llu %6zu %9.2f\n",
                  np::recovery_policy_name(policy), rate * 100.0,
                  r.forwarded_frac * 100.0, r.benign_forwarded * 100.0,
                  r.undispatched_frac * 100.0,
                  static_cast<unsigned long long>(r.detected), r.quarantined,
                  r.pkts_to_recover);
      report.add_row({{"policy", np::recovery_policy_name(policy)},
                      {"attack_rate_pct", rate * 100.0},
                      {"forwarded_pct", r.forwarded_frac * 100.0},
                      {"benign_forwarded_pct", r.benign_forwarded * 100.0},
                      {"undispatched_pct", r.undispatched_frac * 100.0},
                      {"detected", r.detected},
                      {"quarantined_cores", r.quarantined},
                      {"reinstalls", r.reinstalls},
                      {"packets_to_recover", r.pkts_to_recover}});
    }
    bench::rule(84);
  }
  bench::note("ipv4-cm on all 8 cores, round-robin dispatch, 4000 packets,");
  bench::note("hostile packets are the CM heap overflow with marker shellcode.");
  bench::note("pkts/rec: mean packets a core processes between an attack");
  bench::note("detection and its next successful forward (paper model: the");
  bench::note("reset costs only the attack packet, so ~1 for reset-and-");
  bench::note("continue). benign-fwd%: goodput -- benign packets that still");
  bench::note("made it out; under quarantine it shows capacity traded for");
  bench::note("containment (undisp% = packets dropped unrun: no placeable");
  bench::note("core, or a core quarantined within the placement lag).");

  // ---- X2b: re-image cost, shared artifact vs per-reinstall recompile --
  // reinstall_core re-images a core from LastGoodConfig. Before the
  // compiled-graph pipeline that meant deep-copying the wire-format
  // graph and rebuilding the monitor's tables on every quarantine
  // recovery; now it swaps the shared immutable artifact back in. Both
  // paths are timed here on a bare core so the before/after lives in
  // the BENCH JSON next to the policy sweeps above.
  bench::heading("X2b: core re-image latency (last-good reinstall path)");
  {
    using BClock = std::chrono::steady_clock;
    isa::Program app = net::build_ipv4_cm();
    monitor::MerkleTreeHash hash(0xBEEFCAFE);
    monitor::MonitoringGraph graph = monitor::extract_graph(app, hash);
    std::shared_ptr<const monitor::CompiledGraph> artifact =
        monitor::CompiledGraph::compile(graph);
    const int reps = bench::scaled(2000, 20);

    np::MonitoredCore core;
    // Warm both paths once (first install sizes core memory etc.).
    core.install(app, artifact, std::make_unique<monitor::MerkleTreeHash>(hash));

    auto start = BClock::now();
    for (int i = 0; i < reps; ++i) {
      core.install(app, artifact,
                   std::make_unique<monitor::MerkleTreeHash>(hash));
    }
    const double shared_ns =
        std::chrono::duration<double, std::nano>(BClock::now() - start)
            .count() / reps;

    start = BClock::now();
    for (int i = 0; i < reps; ++i) {
      // The pre-refactor reinstall: copy the wire graph, recompile it.
      monitor::MonitoringGraph copy = graph;
      core.install(app, std::move(copy),
                   std::make_unique<monitor::MerkleTreeHash>(hash));
    }
    const double recompile_ns =
        std::chrono::duration<double, std::nano>(BClock::now() - start)
            .count() / reps;

    std::printf("%-34s %12.0f ns/reinstall\n",
                "shared compiled artifact (now)", shared_ns);
    std::printf("%-34s %12.0f ns/reinstall\n",
                "graph copy + recompile (before)", recompile_ns);
    std::printf("%-34s %11.2fx\n", "reinstall speedup", recompile_ns / shared_ns);
    report.add_row({{"reinstall_path", "shared_artifact"},
                    {"reinstall_ns", shared_ns}});
    report.add_row({{"reinstall_path", "recompile_copy"},
                    {"reinstall_ns", recompile_ns}});
    report.set_meta("reinstall_speedup", recompile_ns / shared_ns);
    bench::note("ipv4-cm config; shared path is what reinstall_core now");
    bench::note("does (pointer swap into the core's monitor), recompile");
    bench::note("path replays the old per-reinstall deep copy + compile.");
  }
  report.write();
  return 0;
}
