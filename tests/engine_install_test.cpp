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

}  // namespace
}  // namespace sdmmon
