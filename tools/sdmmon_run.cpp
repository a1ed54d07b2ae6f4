// sdmmon-run: execute a program image on a monitored NP core against a
// packet trace (or a one-off hex packet) and report outcomes.
//
//   sdmmon-run prog.img --trace t.bin [--param 0xC0FFEE]
//   sdmmon-run prog.img --hex 45000014...
//   sdmmon-run prog.img --gen 100          # 100 generated UDP packets
//   sdmmon-run prog.img --gen 100 --metrics-out metrics.json
//
// --metrics-out dumps the obs-layer snapshot (counters, histograms,
// event journal) as JSON after the replay; schema in
// docs/OBSERVABILITY.md.
#include <cstdio>
#include <memory>

#include "monitor/analysis.hpp"
#include "net/trace.hpp"
#include "np/monitored_core.hpp"
#include "obs/obs.hpp"
#include "tool_util.hpp"

int main(int argc, char** argv) {
  using namespace sdmmon;
  try {
    tools::Args args = tools::Args::parse(argc, argv);
    if (args.positional.size() != 1) {
      std::fprintf(stderr,
                   "usage: sdmmon-run <image> (--trace F | --hex H | --gen N)"
                   " [--param P]\n");
      return 2;
    }
    isa::Program program =
        isa::Program::deserialize(tools::read_file(args.positional[0]));

    const std::uint32_t param = static_cast<std::uint32_t>(
        std::stoul(args.get_or("param", "0xC0FFEE"), nullptr, 0));
    monitor::MerkleTreeHash hash(param);
    np::MonitoredCore core;
    core.install(program, monitor::extract_graph(program, hash),
                 std::make_unique<monitor::MerkleTreeHash>(hash));

    obs::Registry registry;
    np::CoreObs core_obs;
    if (args.has("metrics-out")) {
      core_obs = np::CoreObs::create(registry, /*core_id=*/0);
      core.attach_obs(&core_obs);
    }
    std::printf("installed '%s' (%zu instrs) with hash %s\n",
                program.name.c_str(), program.text.size(),
                hash.name().c_str());

    net::Trace trace;
    if (args.has("trace")) {
      trace = net::Trace::load(args.get("trace"));
    } else if (args.has("hex")) {
      net::TraceRecord record;
      record.packet = util::from_hex(args.get("hex"));
      trace.add(std::move(record));
    } else if (args.has("gen")) {
      net::TrafficGenerator gen;
      trace = net::Trace::capture(
          gen, static_cast<std::size_t>(std::stoul(args.get("gen"))));
    } else {
      std::fprintf(stderr, "need one of --trace / --hex / --gen\n");
      return 2;
    }

    net::ReplayStats stats = net::replay(trace, core);
    std::printf(
        "packets %llu | forwarded %llu | dropped %llu | attacks %llu |"
        " traps %llu | instrs %llu\n",
        (unsigned long long)stats.packets,
        (unsigned long long)stats.forwarded,
        (unsigned long long)stats.dropped,
        (unsigned long long)stats.attacks_detected,
        (unsigned long long)stats.trapped,
        (unsigned long long)stats.instructions);
    if (stats.packets == 1 && stats.forwarded == 1) {
      std::printf("output: %s (port %u)\n",
                  util::to_hex(core.core().output()).c_str(),
                  core.core().output_port());
    }
    if (args.has("metrics-out")) {
      const std::string path = args.get("metrics-out");
      std::FILE* file = std::fopen(path.c_str(), "w");
      if (file == nullptr) {
        std::fprintf(stderr, "sdmmon-run: cannot write %s\n", path.c_str());
        return 1;
      }
      const std::string json = registry.snapshot_json();
      std::fwrite(json.data(), 1, json.size(), file);
      std::fputc('\n', file);
      std::fclose(file);
      std::printf("metrics: %s\n", path.c_str());
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "sdmmon-run: %s\n", e.what());
    return 1;
  }
}
