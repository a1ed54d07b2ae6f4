// Cross-cutting edge cases and failure injection: assembler corner
// syntax, wire-format truncation at every prefix length, monitor
// re-arming, MMIO corner addresses, and packet-boundary conditions.
#include <gtest/gtest.h>

#include "isa/assembler.hpp"
#include "monitor/analysis.hpp"
#include "net/apps.hpp"
#include "net/packet.hpp"
#include "np/monitored_core.hpp"
#include "sdmmon/entities.hpp"

namespace sdmmon {
namespace {

// ---------------- assembler corners ----------------

TEST(AsmEdge, MultipleLabelsOnOneAddress) {
  isa::Program p = isa::assemble(R"(
a: b: c:
    nop
d:  e:  jr $ra
  )");
  EXPECT_EQ(p.symbol("a"), 0u);
  EXPECT_EQ(p.symbol("b"), 0u);
  EXPECT_EQ(p.symbol("c"), 0u);
  EXPECT_EQ(p.symbol("d"), 4u);
  EXPECT_EQ(p.symbol("e"), 4u);
}

TEST(AsmEdge, LabelAtEndOfFile) {
  isa::Program p = isa::assemble("main:\n nop\nend:\n");
  EXPECT_EQ(p.symbol("end"), 4u);
}

TEST(AsmEdge, WordDirectiveInTextSection) {
  isa::Program p = isa::assemble(R"(
main:
    jr $ra
table:
    .word 0xDEADBEEF, 42
  )");
  ASSERT_EQ(p.text.size(), 3u);
  EXPECT_EQ(p.text[1], 0xDEADBEEFu);
  EXPECT_EQ(p.text[2], 42u);
  EXPECT_EQ(p.symbol("table"), 4u);
}

TEST(AsmEdge, NegativeAndHexImmediates) {
  isa::Program p = isa::assemble(R"(
    addiu $t0, $zero, -32768
    addiu $t1, $zero, 0x7F
    ori $t2, $zero, 0xFFFF
  )");
  EXPECT_EQ(isa::decode(p.text[0]).imm, -32768);
  EXPECT_EQ(isa::decode(p.text[1]).imm, 0x7F);
  EXPECT_EQ(isa::decode(p.text[2]).imm & 0xFFFF, 0xFFFF);
}

TEST(AsmEdge, SectionsCanInterleave) {
  isa::Program p = isa::assemble(R"(
.data
x: .word 1
.text
main:
    jr $ra
.data
y: .word 2
  )");
  EXPECT_EQ(p.symbol("x"), 0x10000u);
  EXPECT_EQ(p.symbol("y"), 0x10004u);
  EXPECT_EQ(p.symbol("main"), 0u);
}

TEST(AsmEdge, JalrSingleAndTwoOperandForms) {
  isa::Program p = isa::assemble("jalr $t0\njalr $s0, $t1\n");
  isa::Instr one = isa::decode(p.text[0]);
  EXPECT_EQ(one.rd, 31);  // defaults to $ra
  EXPECT_EQ(one.rs, 8);
  isa::Instr two = isa::decode(p.text[1]);
  EXPECT_EQ(two.rd, 16);
  EXPECT_EQ(two.rs, 9);
}

TEST(AsmEdge, CommentOnlyAndWhitespaceOnlyLines) {
  isa::Program p = isa::assemble("  \n\t\n# c\n ; c2\nnop\n");
  EXPECT_EQ(p.text.size(), 1u);
}

TEST(AsmEdge, HashInsideStringLiteralIsNotComment) {
  isa::Program p = isa::assemble(".data\ns: .asciiz \"a#b\"\n");
  EXPECT_EQ(p.data[0], 'a');
  EXPECT_EQ(p.data[1], '#');
  EXPECT_EQ(p.data[2], 'b');
  EXPECT_EQ(p.data[3], 0);
}

// ---------------- wire-format truncation sweep ----------------

TEST(WireEdge, EveryTruncationOfPackageRejected) {
  // Failure injection: no prefix of a valid wire package may crash or be
  // accepted; deserialize must throw DecodeError.
  using namespace sdmmon::protocol;
  Manufacturer manufacturer("m", 1024, crypto::Drbg("edge-man"));
  NetworkOperator op("o", 1024, crypto::Drbg("edge-op"));
  op.accept_certificate(manufacturer.certify_operator(
      "o", op.public_key(), 0, 4'000'000'000ull));
  auto device = manufacturer.provision_device("edge-dev", 1);
  WirePackage wire =
      op.program_device(net::build_ipv4_forward(), device->public_key());
  util::Bytes bytes = wire.serialize();

  for (std::size_t len : {std::size_t{0}, std::size_t{1}, std::size_t{3},
                          bytes.size() / 4, bytes.size() / 2,
                          bytes.size() - 1}) {
    util::Bytes cut(bytes.begin(),
                    bytes.begin() + static_cast<std::ptrdiff_t>(len));
    EXPECT_THROW(WirePackage::deserialize(cut), util::DecodeError)
        << "prefix " << len;
  }
}

TEST(WireEdge, ProgramTruncationRejected) {
  isa::Program p = net::build_udp_echo();
  util::Bytes bytes = p.serialize();
  for (std::size_t len : {std::size_t{2}, bytes.size() / 3,
                          bytes.size() - 2}) {
    util::Bytes cut(bytes.begin(),
                    bytes.begin() + static_cast<std::ptrdiff_t>(len));
    EXPECT_THROW(isa::Program::deserialize(cut), util::DecodeError);
  }
}

// ---------------- monitored core corners ----------------

TEST(CoreEdge, ZeroLengthPacketHandled) {
  np::MonitoredCore core;
  isa::Program app = net::build_ipv4_forward();
  monitor::MerkleTreeHash hash(1);
  core.install(app, monitor::extract_graph(app, hash),
               std::make_unique<monitor::MerkleTreeHash>(hash));
  np::PacketResult r = core.process_packet(util::Bytes{});
  EXPECT_EQ(r.outcome, np::PacketOutcome::Dropped);
}

TEST(CoreEdge, OversizedPacketTruncatedToRxBuffer) {
  np::MonitoredCore core;
  isa::Program app = net::build_ipv4_forward();
  monitor::MerkleTreeHash hash(2);
  core.install(app, monitor::extract_graph(app, hash),
               std::make_unique<monitor::MerkleTreeHash>(hash));
  // 4 KiB packet into a 2 KiB buffer: no crash; app sees a consistent
  // (truncated) view and the IPv4 total-length check drops it... or the
  // header claims more than present. Either way: graceful drop/forward.
  util::Bytes huge = net::make_udp_packet(net::ip(1, 1, 1, 1),
                                          net::ip(2, 2, 2, 2), 1, 2,
                                          util::Bytes(1900, 0x33));
  huge.resize(4096, 0xEE);
  np::PacketResult r = core.process_packet(huge);
  EXPECT_TRUE(r.outcome == np::PacketOutcome::Dropped ||
              r.outcome == np::PacketOutcome::Forwarded);
}

TEST(CoreEdge, StoreToUnknownMmioTraps) {
  np::Core core;
  core.load_program(isa::assemble(R"(
main:
    li $t0, 0xFFFF0100
    sw $zero, 0($t0)
    jr $ra
  )"));
  np::StepInfo last = core.run();
  EXPECT_EQ(last.event, np::StepEvent::Trapped);
  EXPECT_EQ(last.trap, np::Trap::MemFault);
}

TEST(CoreEdge, OutputPortLatchSurvivesUntilCommit) {
  np::Core core;
  core.load_program(isa::assemble(R"(
main:
    li $t0, 0xFFFF0014    # PKT_OUT_PORT
    li $t1, 9
    sw $t1, 0($t0)
    li $t2, 0x40000
    li $t3, 0x5A
    sb $t3, 0($t2)
    li $t0, 0xFFFF0004    # commit 1 byte
    li $t1, 1
    sw $t1, 0($t0)
  )"));
  np::StepInfo last = core.run();
  ASSERT_EQ(last.event, np::StepEvent::PacketOut);
  EXPECT_EQ(core.output_port(), 9u);
  EXPECT_EQ(core.output(), (util::Bytes{0x5A}));
}

TEST(CoreEdge, SoftResetKeepsDataFullResetDoesNot) {
  np::Core core;
  core.load_program(isa::assemble(R"(
main:
    li $t0, 0x10000
    li $t1, 123
    sw $t1, 0($t0)
    jr $ra
.data
    .word 7
  )"));
  (void)core.run();
  ASSERT_EQ(core.memory().load32(0x10000).value(), 123u);
  core.soft_reset();
  EXPECT_EQ(core.memory().load32(0x10000).value(), 123u);  // data persists
  core.reset();
  EXPECT_EQ(core.memory().load32(0x10000).value(), 7u);    // re-imaged
}

// ---------------- monitor corners ----------------

TEST(MonitorEdge, EmptyGraphFlagsAnyInstruction) {
  monitor::MonitoringGraph empty;
  monitor::HardwareMonitor m(empty,
                             std::make_unique<monitor::MerkleTreeHash>(1));
  EXPECT_EQ(m.on_instruction(0x24080001), monitor::Verdict::Mismatch);
}

TEST(MonitorEdge, SingleInstructionProgram) {
  isa::Program p = isa::assemble("main:\n jr $ra\n");
  monitor::MerkleTreeHash hash(0xE);
  monitor::HardwareMonitor m(monitor::extract_graph(p, hash),
                             std::make_unique<monitor::MerkleTreeHash>(hash));
  EXPECT_EQ(m.on_instruction(p.text[0]), monitor::Verdict::Ok);
  EXPECT_TRUE(m.exit_allowed());
}

TEST(MonitorEdge, ResetMidStreamReArms) {
  isa::Program p = isa::assemble(
      "main:\n addiu $t0, $t0, 1\n addiu $t0, $t0, 2\n jr $ra\n");
  monitor::MerkleTreeHash hash(0x2222);
  monitor::HardwareMonitor m(monitor::extract_graph(p, hash),
                             std::make_unique<monitor::MerkleTreeHash>(hash));
  m.on_instruction(p.text[0]);
  m.reset();
  // After re-arm the monitor expects the entry again.
  EXPECT_EQ(m.on_instruction(p.text[0]), monitor::Verdict::Ok);
  EXPECT_EQ(m.on_instruction(p.text[1]), monitor::Verdict::Ok);
}

TEST(CoreEdge, SelfModifyingCodeDetectedByMonitor) {
  // A further attack class: code that rewrites its own text. The core
  // allows the store (no W^X, like the real soft cores); the monitor sees
  // the modified instruction's hash diverge from the graph.
  const char* src = R"(
main:
    la $t0, target        # address of the instruction to overwrite
    li $t1, 0x01294821    # addu $t1, $t1, $t1 -- a different real word
    sw $t1, 0($t0)
    nop
target:
    addiu $t2, $t2, 1     # gets overwritten before execution
    jr $ra
)";
  isa::Program p = isa::assemble(src);
  int detected = 0;
  const int trials = 64;
  for (int t = 0; t < trials; ++t) {
    monitor::MerkleTreeHash hash(0x5E1F + static_cast<std::uint32_t>(t) * 97);
    np::MonitoredCore core;
    core.install(p, monitor::extract_graph(p, hash),
                 std::make_unique<monitor::MerkleTreeHash>(hash));
    if (core.process_packet(util::Bytes{1}).outcome ==
        np::PacketOutcome::AttackDetected) {
      ++detected;
    }
  }
  // One substituted instruction: detection rate ~ 15/16.
  EXPECT_GT(detected, trials * 3 / 4);
}

TEST(CoreEdge, SelfModifyingCodeRunsUnmonitored) {
  // Sanity: on a bare core, with no monitor, the self-modified
  // instruction executes -- also with the compiled artifact attached,
  // whose text the store dirties.
  isa::Program p = isa::assemble(R"(
main:
    la $t0, target
    li $t1, 0x01294821    # addu $t1, $t1, $t1
    sw $t1, 0($t0)
    nop
target:
    addiu $t2, $t2, 1
    jr $ra
)");
  np::Core core;
  core.load_program(
      p, np::CompiledProgram::compile(p, monitor::MerkleTreeHash(0x5E1F)));
  ASSERT_TRUE(core.compiled_live());
  core.deliver_packet(util::Bytes{1});
  (void)core.run();
  EXPECT_TRUE(core.text_dirty());
  EXPECT_FALSE(core.compiled_live());
  // $t2 unchanged (the addiu was replaced); $t1 doubled by the new addu.
  EXPECT_EQ(core.reg(10), 0u);                            // $t2
  EXPECT_EQ(core.reg(9), 2u * 0x01294821 % (1ull << 32));  // $t1+$t1
}

// ---------------- packet parsing corners ----------------

TEST(PacketEdge, NopAndEolOptionsParse) {
  // Hand-build a header with NOP, NOP, a TLV, then EOL padding.
  util::Bytes wire = net::make_udp_packet(net::ip(1, 1, 1, 1),
                                          net::ip(2, 2, 2, 2), 1, 2,
                                          util::bytes_of("x"));
  net::Ipv4Packet base = *net::Ipv4Packet::parse(wire);
  // 28-byte header: 20 + [NOP NOP type=0x07 len=4 data data EOL EOL]
  util::Bytes raw(28 + base.payload.size());
  std::copy(wire.begin(), wire.begin() + 20, raw.begin());
  raw[0] = 0x47;  // IHL 7
  raw[20] = 1;    // NOP
  raw[21] = 1;    // NOP
  raw[22] = 0x07;
  raw[23] = 4;
  raw[24] = 0xAB;
  raw[25] = 0xCD;
  raw[26] = 0;  // EOL
  raw[27] = 0;
  util::store_be16(static_cast<std::uint16_t>(raw.size()), raw.data() + 2);
  std::copy(base.payload.begin(), base.payload.end(), raw.begin() + 28);
  auto parsed = net::Ipv4Packet::parse(raw);
  ASSERT_TRUE(parsed.has_value());
  ASSERT_EQ(parsed->options.size(), 1u);
  EXPECT_EQ(parsed->options[0].type, 0x07);
  EXPECT_EQ(parsed->options[0].data, (util::Bytes{0xAB, 0xCD}));
}

TEST(PacketEdge, MalformedOptionLengthRejected) {
  util::Bytes raw(24, 0);
  raw[0] = 0x46;  // IHL 6 (one option word)
  util::store_be16(24, raw.data() + 2);
  raw[20] = 0x07;
  raw[21] = 1;  // TLV length < 2: malformed
  EXPECT_FALSE(net::Ipv4Packet::parse(raw).has_value());
}

}  // namespace
}  // namespace sdmmon
