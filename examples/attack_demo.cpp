// Data-plane attack demonstration: a single malformed packet hijacks the
// vulnerable IPv4+CM application via a stack smash -- and the hardware
// monitor catches it. Shows the unprotected outcome, the protected
// outcome, and the fleet-wide view that motivates hash diversity (SR2).
#include <cstdio>

#include "attack/attack.hpp"
#include "attack/fleet.hpp"
#include "monitor/analysis.hpp"
#include "net/apps.hpp"
#include "net/packet.hpp"
#include "np/monitored_core.hpp"

int main() {
  using namespace sdmmon;
  using monitor::MerkleTreeHash;

  isa::Program app = net::build_ipv4_cm();
  std::printf("victim application: %s (%zu instructions)\n", app.name.c_str(),
              app.text.size());

  // The malicious packet: IHL=15 header whose CM option overflows the
  // 16-byte option buffer and overwrites the saved return address with a
  // pointer into the packet payload, where the shellcode lives.
  auto attack =
      attack::craft_cm_overflow(attack::inject_output_shellcode(0x66, 48));
  std::printf("attack packet: %zu bytes, shellcode lands at 0x%08x\n\n",
              attack.packet.size(), attack.shellcode_addr);

  MerkleTreeHash hash(0x5EC12E7 ^ 0xA5A5A5A5);
  auto graph = monitor::extract_graph(app, hash);

  std::printf("--- Unprotected core (no hardware monitor) ---\n");
  {
    np::Core core;
    core.load_program(app);
    core.deliver_packet(attack.packet);
    const bool sent = core.run().event == np::StepEvent::PacketOut;
    std::printf("outcome: %s\n", sent ? "forwarded" : "no output");
    if (sent) {
      const util::Bytes& out = core.output();
      std::printf("HIJACKED: the shellcode injected its own %zu-byte packet"
                  " onto the wire (first byte 0x%02x)\n",
                  out.size(), out.empty() ? 0 : out[0]);
    }
  }

  std::printf("\n--- Protected core (hardware monitor active) ---\n");
  {
    np::MonitoredCore core;
    core.install(app, graph, std::make_unique<MerkleTreeHash>(hash));
    np::PacketResult r = core.process_packet(attack.packet);
    std::printf("outcome: %s after %llu instructions\n",
                np::packet_outcome_name(r.outcome),
                static_cast<unsigned long long>(r.instructions));

    // Recovery: honest traffic continues to flow.
    util::Bytes good = net::make_udp_packet(net::ip(10, 0, 0, 1),
                                            net::ip(10, 9, 9, 9), 7, 8,
                                            util::bytes_of("post-attack"));
    np::PacketResult after = core.process_packet(good);
    std::printf("next honest packet: %s (drop-and-reset recovery)\n",
                np::packet_outcome_name(after.outcome));
    std::printf("core stats: %llu packets, %llu attacks detected\n",
                static_cast<unsigned long long>(core.stats().packets),
                static_cast<unsigned long long>(
                    core.stats().attacks_detected));
  }

  std::printf("\n--- Benign CM traffic is unaffected ---\n");
  {
    np::MonitoredCore core;
    core.install(app, graph, std::make_unique<MerkleTreeHash>(hash));
    np::PacketResult r = core.process_packet(attack::benign_cm_packet(200));
    auto out = net::Ipv4Packet::parse(r.output);
    std::printf("benign CM packet: %s, ECN-CE mark %s\n",
                np::packet_outcome_name(r.outcome),
                (out && (out->tos & 0x3) == 0x3) ? "set" : "clear");
  }

  std::printf("\n--- Fleet view (why per-router hash parameters matter) ---\n");
  {
    attack::FleetConfig config;
    config.num_routers = 500;
    config.attack_len = 4;
    config.diversified = false;
    auto homogeneous = attack::simulate_fleet(config);
    config.diversified = true;
    auto diverse = attack::simulate_fleet(config);
    std::printf("homogeneous fleet: %zu/500 routers fall to one crafted"
                " attack\n",
                homogeneous.compromised);
    std::printf("diversified fleet (S-box compression): %zu/500\n",
                diverse.compromised);
  }
  return 0;
}
