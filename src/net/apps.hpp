// Packet-processing applications for the NP core, written in the MIPS
// subset and assembled by isa::assemble. These are the workloads the
// paper's system installs and monitors:
//
//  * ipv4-forward  -- header validation, TTL decrement, checksum rewrite.
//  * ipv4-cm       -- the paper's "IPv4+CM" (congestion management): adds
//                     ECN congestion marking and a CM state option parser
//                     with a DELIBERATE unchecked copy into a fixed stack
//                     buffer. A crafted option overwrites the saved return
//                     address -- the data-plane code-injection attack of
//                     Chasaki & Wolf that the hardware monitor catches.
//  * udp-echo      -- swaps addresses/ports and echoes the datagram.
//  * firewall      -- drops UDP packets whose destination port is in a
//                     configured block list, forwards everything else.
//
// All apps read the packet at np::kPktInBase, write output at
// np::kPktOutBase, and commit/drop through the MMIO registers.
#ifndef SDMMON_NET_APPS_HPP
#define SDMMON_NET_APPS_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "isa/program.hpp"

namespace sdmmon::net {

/// Assembly source of each app (exposed for docs, tests, and examples).
std::string ipv4_forward_source();
std::string ipv4_cm_source();
std::string udp_echo_source();
std::string firewall_source(const std::vector<std::uint16_t>& blocked_ports);
std::string flow_stats_source();
std::string loop_forward_source();

isa::Program build_ipv4_forward();
isa::Program build_ipv4_cm();
isa::Program build_udp_echo();
isa::Program build_firewall(const std::vector<std::uint16_t>& blocked_ports);

/// loop-forward: the branchiest workload in the mix -- a minimal
/// forwarder whose entire runtime is a 6-instruction byte-copy loop
/// (load, store, bump, backward bne) plus a short commit tail. The
/// compiled tier's superblocks unroll the predicted-taken loop to the
/// 255-op cap and side-exit once per packet at loop exit
/// (bench/core_predecode X1c).
isa::Program build_loop_forward();

/// flow-stats: forwards like ipv4-forward, additionally counting packets
/// per flow in a 256-bucket table in data RAM (persistent across packets;
/// wiped by attack-recovery full resets). Symbols `total_count` and
/// `flow_table` locate the counters for host-side readout.
isa::Program build_flow_stats();

/// Bucket index the flow-stats app computes for a src/dst pair
/// (xor-folded to 8 bits) -- the host-side oracle for tests.
std::uint8_t flow_stats_bucket(std::uint32_t src, std::uint32_t dst);

std::string ipip_encap_source(std::uint32_t tunnel_src,
                              std::uint32_t tunnel_dst);
std::string ipip_decap_source();

/// ipip-encap: wraps every valid IPv4 packet in an outer IPv4 header
/// (protocol 4, RFC 2003) addressed tunnel_src -> tunnel_dst, with a
/// correct outer checksum. The inner packet is carried unmodified.
isa::Program build_ipip_encap(std::uint32_t tunnel_src,
                              std::uint32_t tunnel_dst);

/// ipip-decap: strips the outer header of protocol-4 packets and emits
/// the inner packet; non-tunnel traffic is forwarded unchanged (with TTL
/// decrement and checksum rewrite).
isa::Program build_ipip_decap();

/// IPv4 option type the ipv4-cm app treats as "congestion state".
constexpr std::uint8_t kCmOptionType = 0x88;

/// Byte offset of the vulnerable handler's stack buffer to its saved $ra:
/// option data bytes [kCmRaOffset, kCmRaOffset+4) overwrite the return
/// address. Used by the attack crafter.
constexpr std::size_t kCmRaOffset = 28;

}  // namespace sdmmon::net

#endif  // SDMMON_NET_APPS_HPP
