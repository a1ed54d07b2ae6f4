// Shared packet-handler fixtures for the MPSoC test suites: a benign echo
// app, a deliberately vulnerable app that executes packet-carried
// instructions, and the attack payload that exploits it. Install helpers
// are templated so the serial Mpsoc and ParallelMpsoc (identical install
// API) share one set of fixtures.
#ifndef SDMMON_TESTS_SUPPORT_TEST_APPS_HPP
#define SDMMON_TESTS_SUPPORT_TEST_APPS_HPP

#include <cstddef>
#include <cstdint>
#include <memory>

#include "isa/assembler.hpp"
#include "monitor/analysis.hpp"
#include "np/monitored_core.hpp"
#include "util/bytes.hpp"

namespace sdmmon::testsupport {

// Echo app: copy the packet to the output buffer and commit.
inline constexpr const char* kEchoApp = R"(
main:
    li $t0, 0xFFFF0000
    lw $t1, 0($t0)        # len
    beqz $t1, drop
    li $t2, 0x30000       # src
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

// An app that jumps into the packet buffer: packet-carried instructions
// execute and the monitor flags the first foreign one with P=15/16.
inline constexpr const char* kVulnApp = R"(
main:
    li $t0, 0x30000
    jr $t0
)";

// A packet carrying foreign instructions; on kVulnApp they execute and
// trip the monitor, on kEchoApp they are just payload bytes.
inline util::Bytes attack_packet() {
  isa::Program payload = isa::assemble(R"(
    addiu $t0, $t0, 1
    addiu $t0, $t0, 2
    addiu $t0, $t0, 3
    addiu $t0, $t0, 4
    addiu $t0, $t0, 5
    addiu $t0, $t0, 6
    jr $ra
  )");
  util::Bytes pkt(payload.text.size() * 4);
  for (std::size_t i = 0; i < payload.text.size(); ++i) {
    util::store_le32(payload.text[i], pkt.data() + 4 * i);
  }
  return pkt;
}

/// Install `src` on every core of `soc` (Mpsoc or ParallelMpsoc).
template <typename Soc>
void install_all(Soc& soc, const char* src, std::uint32_t param) {
  isa::Program p = isa::assemble(src);
  monitor::MerkleTreeHash hash(param);
  soc.install_all(p, monitor::extract_graph(p, hash), hash);
}

/// Install `src` on one core of `soc` (Mpsoc or ParallelMpsoc).
template <typename Soc>
void install_one(Soc& soc, std::size_t core, const char* src,
                 std::uint32_t param) {
  isa::Program p = isa::assemble(src);
  monitor::MerkleTreeHash hash(param);
  soc.install(core, p,
              np::validate_install_config(p, monitor::extract_graph(p, hash),
                                          hash),
              std::make_unique<monitor::MerkleTreeHash>(hash));
}

}  // namespace sdmmon::testsupport

#endif  // SDMMON_TESTS_SUPPORT_TEST_APPS_HPP
