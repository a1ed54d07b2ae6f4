// Observability overhead micro-bench: the cost of the instrumentation
// the obs layer hangs on the packet hot path. Measures ns/packet of a
// 4-core serial Mpsoc running ipv4-cm in three configurations:
//
//   detached       engine built, enable_obs() never called -- the cost
//                  everyone pays (a null-pointer test per site).
//   attached s=1   full instrumentation, every packet recorded.
//   attached s=64  counters exact, histograms sampled 1/64.
//
// Populates the overhead table in docs/OBSERVABILITY.md; the acceptance
// bar for the detached configuration is "within noise" (< 2%) of the
// seed build's monitor_throughput numbers.
#include <chrono>
#include <cstdio>
#include <vector>

#include "bench_util.hpp"
#include "monitor/analysis.hpp"
#include "net/apps.hpp"
#include "net/traffic.hpp"
#include "np/mpsoc.hpp"
#include "obs/obs.hpp"

namespace {

using namespace sdmmon;
using Clock = std::chrono::steady_clock;

constexpr std::size_t kCores = 4;
const int kPackets = bench::scaled(20000, 500);
const int kReps = bench::scaled(3, 1);

struct Workload {
  std::vector<util::Bytes> packets;
};

Workload make_workload() {
  net::TrafficGenerator gen;
  Workload w;
  w.packets.reserve(kPackets);
  for (int i = 0; i < kPackets; ++i) w.packets.push_back(gen.next().packet);
  return w;
}

/// Best-of-kReps ns/packet for one configuration. `sample_period` == 0
/// means "do not attach obs at all".
double measure(const Workload& load, std::uint32_t sample_period,
               obs::Registry* registry) {
  double best = 0;
  for (int rep = 0; rep < kReps; ++rep) {
    np::Mpsoc soc(kCores);
    isa::Program app = net::build_ipv4_cm();
    monitor::MerkleTreeHash hash(0xBEEFCAFE);
    soc.install_all(app, monitor::extract_graph(app, hash), hash);
    if (sample_period != 0) soc.enable_obs(*registry, 0, sample_period);

    auto start = Clock::now();
    std::uint32_t flow = 0;
    for (const util::Bytes& packet : load.packets) {
      (void)soc.process_packet(packet, flow++);
    }
    const double ns =
        std::chrono::duration<double, std::nano>(Clock::now() - start)
            .count() /
        static_cast<double>(kPackets);
    if (rep == 0 || ns < best) best = ns;
  }
  return best;
}

}  // namespace

int main() {
  bench::heading("obs overhead: packet-path cost of the metrics layer");

  const Workload load = make_workload();
  obs::Registry reg_full;
  obs::Registry reg_sampled;

  const double detached = measure(load, 0, nullptr);
  const double full = measure(load, 1, &reg_full);
  const double sampled = measure(load, 64, &reg_sampled);

  bench::BenchReport report("obs_overhead");
  report.set_meta("cores", kCores);
  report.set_meta("packets", kPackets);
  report.set_meta("reps", kReps);

  std::printf("\n%-22s %12s %10s\n", "configuration", "ns/packet",
              "vs detached");
  bench::rule(48);
  std::printf("%-22s %12.1f %9.2f%%\n", "detached", detached, 0.0);
  std::printf("%-22s %12.1f %+9.2f%%\n", "attached (sample=1)", full,
              (full / detached - 1.0) * 100.0);
  std::printf("%-22s %12.1f %+9.2f%%\n", "attached (sample=64)", sampled,
              (sampled / detached - 1.0) * 100.0);
  bench::rule(48);
  report.add_row({{"config", "detached"}, {"ns_per_packet", detached},
                  {"overhead_pct", 0.0}});
  report.add_row({{"config", "attached-sample-1"}, {"ns_per_packet", full},
                  {"overhead_pct", (full / detached - 1.0) * 100.0}});
  report.add_row({{"config", "attached-sample-64"},
                  {"ns_per_packet", sampled},
                  {"overhead_pct", (sampled / detached - 1.0) * 100.0}});

  bench::note("4-core serial Mpsoc, ipv4-cm, generated traffic; best of 3");
  bench::note("runs.");
  report.write();
  return 0;
}
