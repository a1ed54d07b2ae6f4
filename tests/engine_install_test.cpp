// Transactional install on both MPSoC engines. The install, last-good and
// journal bookkeeping live once in np::CoreArray; this suite pins its
// contract through the serial Mpsoc and the ParallelMpsoc alike: a
// configuration that cannot be staged throws before any core is touched,
// leaves every core (and its last-good re-image source) on the previous
// application, and moves no install metric or journal event.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <vector>

#include "isa/assembler.hpp"
#include "monitor/analysis.hpp"
#include "np/mpsoc.hpp"
#include "np/parallel_mpsoc.hpp"
#include "obs/obs.hpp"
#include "support/test_params.hpp"

namespace sdmmon {
namespace {

constexpr std::size_t kCores = 2;
constexpr std::uint8_t kTrapMarker = 0xEE;

// Echo app that executes `break` when the first payload byte is the
// marker: a deterministic per-packet violation that drives
// RecoveryPolicy::ReinstallLastGood without relying on hash collisions.
constexpr const char* kTrapEchoApp = R"(
main:
    li $t0, 0xFFFF0000
    lw $t1, 0($t0)        # len
    beqz $t1, drop
    li $t2, 0x30000       # src
    lbu $t6, 0($t2)
    li $t5, 0xEE
    bne $t6, $t5, echo
    break
echo:
    li $t3, 0x40000       # dst
    move $t4, $zero       # i
copy:
    addu $t5, $t2, $t4
    lbu $t6, 0($t5)
    addu $t5, $t3, $t4
    sb $t6, 0($t5)
    addiu $t4, $t4, 1
    bne $t4, $t1, copy
    li $t0, 0xFFFF0004    # commit
    sw $t1, 0($t0)
drop:
    jr $ra
)";

std::vector<np::PacketResult> run(np::Mpsoc& soc,
                                  const std::vector<util::Bytes>& packets) {
  std::vector<np::PacketResult> results;
  for (const util::Bytes& p : packets) results.push_back(soc.process_packet(p));
  return results;
}

std::vector<np::PacketResult> run(np::ParallelMpsoc& soc,
                                  const std::vector<util::Bytes>& packets) {
  std::vector<np::ParallelMpsoc::Packet> items;
  for (const util::Bytes& p : packets) items.push_back({p, 0});
  return soc.process_packets(items);
}

std::size_t install_events(const obs::Registry& registry) {
  std::size_t n = 0;
  for (const obs::Event& e : registry.journal().events()) {
    if (e.kind == obs::EventKind::Install) ++n;
  }
  return n;
}

template <typename Engine>
class EngineInstall : public ::testing::Test {
 protected:
  EngineInstall()
      : engine_(kCores, np::DispatchPolicy::RoundRobin,
                testsupport::make_recovery_config(
                    np::RecoveryPolicy::ReinstallLastGood, /*threshold=*/1,
                    /*window=*/8, /*max_reinstalls=*/100)),
        good_(isa::assemble(kTrapEchoApp)),
        hash_(0x600D) {
    engine_.enable_obs(registry_);
    good_graph_ = monitor::extract_graph(good_, hash_);
    artifacts_ = np::validate_install_config(good_, good_graph_, hash_);
    engine_.install_all(good_, artifacts_, hash_);
    // Same text, but a data segment outside the memory map: compiles,
    // cannot be staged.
    bad_ = good_;
    bad_.name = "unstageable";
    bad_.data = util::Bytes(64, 0xAB);
    bad_.data_base = 0xFFFF'FF00;
    bad_graph_ = monitor::extract_graph(bad_, hash_);
    bad_artifacts_ = {monitor::CompiledGraph::compile(bad_graph_),
                      np::CompiledProgram::compile(bad_, hash_)};
  }

  std::uint64_t installs() {
    return registry_.counter(obs::names::kEngineInstalls).value();
  }

  /// Every core runs exactly the previous application's shared artifacts.
  void expect_previous_app() {
    for (std::size_t c = 0; c < kCores; ++c) {
      EXPECT_EQ(engine_.core(c).core().compiled_program(), artifacts_.code)
          << "core " << c;
      EXPECT_EQ(engine_.core(c).monitor().compiled(), artifacts_.graph)
          << "core " << c;
      EXPECT_EQ(engine_.core(c).summary(), artifacts_.summary)
          << "core " << c;
    }
  }

  /// Two benign packets per core come back echoed.
  void expect_forwarding() {
    std::vector<util::Bytes> packets;
    for (std::size_t i = 0; i < 2 * kCores; ++i) {
      packets.push_back({static_cast<std::uint8_t>(i + 1), 0x22, 0x33});
    }
    const std::vector<np::PacketResult> results = run(engine_, packets);
    ASSERT_EQ(results.size(), packets.size());
    for (std::size_t i = 0; i < packets.size(); ++i) {
      EXPECT_EQ(results[i].outcome, np::PacketOutcome::Forwarded)
          << "packet " << i;
      EXPECT_EQ(results[i].output, packets[i]) << "packet " << i;
    }
  }

  obs::Registry registry_;
  Engine engine_;
  isa::Program good_;
  isa::Program bad_;
  monitor::MerkleTreeHash hash_;
  monitor::MonitoringGraph good_graph_;
  monitor::MonitoringGraph bad_graph_;
  np::InstallArtifacts artifacts_;
  np::InstallArtifacts bad_artifacts_;
};

using Engines = ::testing::Types<np::Mpsoc, np::ParallelMpsoc>;
TYPED_TEST_SUITE(EngineInstall, Engines);

TYPED_TEST(EngineInstall, UnstageableInstallLeavesPreviousAppEverywhere) {
  auto& engine = this->engine_;
  const isa::Program& bad = this->bad_;
  const std::uint64_t installs_before = this->installs();
  const std::size_t events_before = install_events(this->registry_);
  EXPECT_THROW(engine.install_all(bad, this->bad_graph_, this->hash_),
               std::out_of_range);
  EXPECT_THROW(engine.install_all(bad, this->bad_artifacts_, this->hash_),
               std::out_of_range);
  for (std::size_t c = 0; c < kCores; ++c) {
    EXPECT_THROW(engine.install(c, bad, this->bad_graph_, this->hash_.clone()),
                 std::out_of_range);
    EXPECT_THROW(
        engine.install(c, bad, this->bad_artifacts_, this->hash_.clone()),
        std::out_of_range);
  }
  EXPECT_EQ(this->installs(), installs_before);
  EXPECT_EQ(install_events(this->registry_), events_before);
  this->expect_previous_app();
  this->expect_forwarding();

  // A violation on every core re-images it from its last-good
  // configuration: still the previous app, never the rejected one.
  const std::vector<np::PacketResult> trapped = run(
      engine,
      std::vector<util::Bytes>(kCores, util::Bytes{kTrapMarker, 0x01}));
  for (const np::PacketResult& r : trapped) {
    EXPECT_EQ(r.outcome, np::PacketOutcome::Trapped);
  }
  const np::MpsocStats stats = engine.aggregate_stats();
  EXPECT_EQ(stats.reinstalls, kCores);
  EXPECT_EQ(stats.healthy_cores, kCores);
  EXPECT_EQ(this->installs(), installs_before) << "re-images are not installs";
  EXPECT_EQ(install_events(this->registry_), events_before);
  this->expect_previous_app();
  this->expect_forwarding();
}

TYPED_TEST(EngineInstall, NullArtifactIsTypedRejection) {
  const np::InstallArtifacts no_code{this->artifacts_.graph, nullptr};
  const np::InstallArtifacts no_graph{nullptr, this->artifacts_.code};
  EXPECT_THROW(np::validate_install_config(this->good_, no_code, this->hash_),
               std::invalid_argument);
  EXPECT_THROW(np::validate_install_config(this->good_, no_graph, this->hash_),
               std::invalid_argument);
  // The wire-graph overloads compile both artifacts, so only the
  // artifact overloads can see a null one.
  for (const np::InstallArtifacts* bad : {&no_code, &no_graph}) {
    const std::uint64_t installs_before = this->installs();
    EXPECT_THROW(this->engine_.install_all(this->good_, *bad, this->hash_),
                 std::invalid_argument);
    for (std::size_t c = 0; c < kCores; ++c) {
      EXPECT_THROW(
          this->engine_.install(c, this->good_, *bad, this->hash_.clone()),
          std::invalid_argument);
    }
    EXPECT_EQ(this->installs(), installs_before);
  }
  this->expect_previous_app();
  this->expect_forwarding();
}

// What a rejected install must leave untouched on one core: its text and
// data bytes, cycle counter, packet tallies and monitor statistics.
struct CoreImage {
  util::Bytes text;
  util::Bytes data;
  std::uint64_t cycles = 0;
  np::CoreStats stats;
  monitor::MonitorStats monitor;

  static CoreImage of(const np::MonitoredCore& core,
                      const isa::Program& program) {
    return {core.core().memory().read_block(program.text_base,
                                            program.text.size() * 4),
            core.core().memory().read_block(program.data_base,
                                            program.data.size()),
            core.core().cycles(), core.stats(), core.monitor().stats()};
  }
  bool operator==(const CoreImage& rhs) const {
    return text == rhs.text && data == rhs.data && cycles == rhs.cycles &&
           stats.packets == rhs.stats.packets &&
           stats.forwarded == rhs.stats.forwarded &&
           stats.instructions == rhs.stats.instructions &&
           monitor.instructions_checked == rhs.monitor.instructions_checked &&
           monitor.packets_monitored == rhs.monitor.packets_monitored &&
           monitor.state_size_accum == rhs.monitor.state_size_accum;
  }
};

// A summary indexes one graph's states along one program's lane. One
// built from another (graph, code) pair -- here an equal-content pair
// compiled separately, so only provenance is wrong -- is rejected as a
// typed error by every artifact install path, before any core, last-good
// snapshot or metric moves.
TYPED_TEST(EngineInstall, ForeignSummaryIsTypedRejectionThatChangesNothing) {
  auto& engine = this->engine_;
  const np::InstallArtifacts twin =
      np::validate_install_config(this->good_, this->good_graph_, this->hash_);
  const np::InstallArtifacts foreign{this->artifacts_.graph,
                                     this->artifacts_.code, twin.summary};
  this->expect_forwarding();
  std::vector<CoreImage> before;
  for (std::size_t c = 0; c < kCores; ++c) {
    before.push_back(CoreImage::of(engine.core(c), this->good_));
  }
  const std::uint64_t installs_before = this->installs();
  const std::size_t events_before = install_events(this->registry_);
  const np::MpsocStats stats_before = engine.aggregate_stats();

  EXPECT_THROW(np::validate_install_config(this->good_, foreign, this->hash_),
               std::invalid_argument);
  EXPECT_THROW(engine.install_all(this->good_, foreign, this->hash_),
               std::invalid_argument);
  for (std::size_t c = 0; c < kCores; ++c) {
    EXPECT_THROW(
        engine.install(c, this->good_, foreign, this->hash_.clone()),
        std::invalid_argument);
  }
  for (std::size_t c = 0; c < kCores; ++c) {
    EXPECT_TRUE(CoreImage::of(engine.core(c), this->good_) == before[c])
        << "core " << c;
  }
  EXPECT_EQ(this->installs(), installs_before);
  EXPECT_EQ(install_events(this->registry_), events_before);
  EXPECT_EQ(this->registry_.gauge(obs::names::kEngineMonitorSummaryBytes)
                .value(),
            static_cast<std::int64_t>(
                this->artifacts_.summary->footprint_bytes()));
  const np::MpsocStats stats_after = engine.aggregate_stats();
  EXPECT_EQ(stats_after.packets, stats_before.packets);
  EXPECT_EQ(stats_after.reinstalls, stats_before.reinstalls);
  this->expect_previous_app();

  // The last-good snapshots still hold the original triple: a re-image
  // swaps the very same summary pointer back in.
  (void)run(engine,
            std::vector<util::Bytes>(kCores, util::Bytes{kTrapMarker, 0x01}));
  EXPECT_EQ(engine.aggregate_stats().reinstalls,
            stats_before.reinstalls + kCores);
  this->expect_previous_app();
  this->expect_forwarding();
}

// The application's graph plus an unreachable gadget: a fork into two
// all-hash-0 cycles of coprime lengths 7 and 11. Its 77 reachable matched
// pairs need more subset states than the graph has nodes, so the graph
// does not fit the monitor's table.
monitor::MonitoringGraph over_bound(const monitor::MonitoringGraph& base) {
  std::vector<monitor::GraphNode> nodes = base.nodes();
  const auto fork = static_cast<std::uint32_t>(nodes.size());
  const std::uint32_t p = 7, q = 11;
  nodes.push_back({0, false, {fork + 1, fork + 1 + p}});
  for (std::uint32_t i = 0; i < p; ++i) {
    nodes.push_back({0, false, {fork + 1 + (i + 1) % p}});
  }
  for (std::uint32_t j = 0; j < q; ++j) {
    nodes.push_back({0, false, {fork + 1 + p + (j + 1) % q}});
  }
  return monitor::MonitoringGraph(base.hash_width(), base.text_base(),
                                  base.entry_index(), std::move(nodes));
}

// A graph the subset construction cannot close is rejected by compile()
// inside every wire-graph install path, as a typed error, before any
// core, last-good snapshot, metric or journal event moves.
TYPED_TEST(EngineInstall, OverBoundGraphIsTypedRejectionThatChangesNothing) {
  auto& engine = this->engine_;
  const monitor::MonitoringGraph graph = over_bound(this->good_graph_);
  this->expect_forwarding();
  std::vector<CoreImage> before;
  for (std::size_t c = 0; c < kCores; ++c) {
    before.push_back(CoreImage::of(engine.core(c), this->good_));
  }
  const np::MpsocStats stats_before = engine.aggregate_stats();
  obs::Registry& registry = this->registry_;
  const auto gauges = [&registry] {
    std::vector<std::int64_t> values;
    for (const char* name : {obs::names::kEngineCompiledGraphNodes,
                             obs::names::kEngineCompiledGraphEdges,
                             obs::names::kEngineCompiledGraphBytes,
                             obs::names::kEngineCompiledProgramOps,
                             obs::names::kEngineMonitorSummaryBytes}) {
      values.push_back(registry.gauge(name).value());
    }
    return values;
  };
  const auto samples = [&registry] {
    return std::vector<std::uint64_t>{
        registry.histogram(obs::names::kEngineGraphCompileNs, {}).count(),
        registry.histogram(obs::names::kCorePredecodeNs, {}).count()};
  };
  const std::vector<std::int64_t> gauges_before = gauges();
  const std::vector<std::uint64_t> samples_before = samples();
  const std::uint64_t installs_before = this->installs();
  const std::size_t events_before = install_events(registry);
  const std::size_t journal_before = registry.journal().events().size();

  EXPECT_THROW((void)np::validate_install_config(this->good_, graph,
                                                 this->hash_),
               std::invalid_argument);
  EXPECT_THROW(engine.install_all(this->good_, graph, this->hash_),
               std::invalid_argument);
  for (std::size_t c = 0; c < kCores; ++c) {
    EXPECT_THROW(engine.install(c, this->good_, graph, this->hash_.clone()),
                 std::invalid_argument);
  }
  for (std::size_t c = 0; c < kCores; ++c) {
    EXPECT_TRUE(CoreImage::of(engine.core(c), this->good_) == before[c])
        << "core " << c;
  }
  this->expect_previous_app();
  EXPECT_EQ(this->installs(), installs_before);
  EXPECT_EQ(install_events(registry), events_before);
  EXPECT_EQ(registry.journal().events().size(), journal_before);
  EXPECT_EQ(gauges(), gauges_before);
  EXPECT_EQ(samples(), samples_before);
  const np::MpsocStats stats_after = engine.aggregate_stats();
  EXPECT_EQ(stats_after.packets, stats_before.packets);
  EXPECT_EQ(stats_after.reinstalls, stats_before.reinstalls);

  // The last-good snapshots still hold the original triple: a re-image
  // swaps the very same artifacts back in.
  (void)run(engine,
            std::vector<util::Bytes>(kCores, util::Bytes{kTrapMarker, 0x01}));
  EXPECT_EQ(engine.aggregate_stats().reinstalls,
            stats_before.reinstalls + kCores);
  this->expect_previous_app();
  this->expect_forwarding();
}

// One summary per install, shared by pointer: install_all hands every
// core the summary it was given, builds one (once) when handed only the
// pair, and a last-good re-image never rebuilds it.
TYPED_TEST(EngineInstall, EveryCoreAndReimageShareOneSummary) {
  auto& engine = this->engine_;
  this->expect_previous_app();
  const np::InstallArtifacts pair{this->artifacts_.graph,
                                  this->artifacts_.code};
  engine.install_all(this->good_, pair, this->hash_);
  const std::shared_ptr<const np::MonitorSummary> built =
      engine.core(0).summary();
  ASSERT_NE(built, nullptr);
  EXPECT_NE(built, this->artifacts_.summary);
  EXPECT_TRUE(built->built_from(this->artifacts_.graph.get(),
                                this->artifacts_.code.get()));
  for (std::size_t c = 0; c < kCores; ++c) {
    EXPECT_EQ(engine.core(c).summary(), built) << "core " << c;
  }
  EXPECT_EQ(this->registry_.gauge(obs::names::kEngineMonitorSummaryBytes)
                .value(),
            static_cast<std::int64_t>(built->footprint_bytes()));
  (void)run(engine,
            std::vector<util::Bytes>(kCores, util::Bytes{kTrapMarker, 0x01}));
  EXPECT_EQ(engine.aggregate_stats().reinstalls, kCores);
  for (std::size_t c = 0; c < kCores; ++c) {
    EXPECT_EQ(engine.core(c).summary(), built) << "re-imaged core " << c;
  }
}

}  // namespace
}  // namespace sdmmon
