// Property: disassembling any program and re-assembling the listing
// yields the identical instruction stream (for the label-free subset the
// disassembler emits: absolute branch/jump targets as hex addresses are
// re-parsed as numbers... branches print absolute targets, so we verify
// word-level equality via a target-rewriting pass instead).
//
// Practical round-trip: for every app binary and for random generated
// programs, each instruction word must survive
// encode(decode(word)) == word, and the disassembly must be re-assemblable
// instruction by instruction for the formats that are position-free.
#include <gtest/gtest.h>

#include "isa/assembler.hpp"
#include "isa/disassembler.hpp"
#include "monitor/hash.hpp"
#include "np/compiled_program.hpp"
#include "np/core.hpp"
#include "net/apps.hpp"
#include "net/packet.hpp"
#include "net/routing.hpp"
#include "util/rng.hpp"

namespace sdmmon::isa {
namespace {

std::vector<isa::Program> all_apps() {
  net::RoutingTable table;
  table.add_route(net::ip(10, 0, 0, 0), 8, 1);
  std::vector<isa::Program> apps;
  apps.push_back(net::build_ipv4_forward());
  apps.push_back(net::build_ipv4_cm());
  apps.push_back(net::build_udp_echo());
  apps.push_back(net::build_firewall({53, 80}));
  apps.push_back(net::build_flow_stats());
  apps.push_back(net::build_ipv4_router(table));
  return apps;
}

TEST(AsmRoundTrip, EveryAppWordSurvivesEncodeDecode) {
  for (const auto& app : all_apps()) {
    for (std::size_t i = 0; i < app.text.size(); ++i) {
      auto decoded = try_decode(app.text[i]);
      ASSERT_TRUE(decoded.has_value()) << app.name << " word " << i;
      EXPECT_EQ(encode(*decoded), app.text[i]) << app.name << " word " << i;
    }
  }
}

TEST(AsmRoundTrip, PositionFreeInstructionsReassemble) {
  // Every non-control-flow instruction's disassembly is valid assembler
  // input producing the same word.
  for (const auto& app : all_apps()) {
    for (std::size_t i = 0; i < app.text.size(); ++i) {
      Instr instr = decode(app.text[i]);
      OpClass cls = op_class(instr.op);
      if (cls == OpClass::Branch || cls == OpClass::Jump ||
          cls == OpClass::JumpLink) {
        continue;  // these print absolute targets, covered below
      }
      std::string line = disassemble(app.text[i], 0);
      Program re = assemble(line + "\n");
      ASSERT_EQ(re.text.size(), 1u) << line;
      EXPECT_EQ(re.text[0], app.text[i]) << app.name << ": " << line;
    }
  }
}

TEST(AsmRoundTrip, BranchesReassembleAtTheirOwnAddress) {
  // A branch disassembled at pc P prints its absolute target; assembling
  // it back at the same address must reproduce the offset. Emulate by
  // padding with nops up to the branch's position.
  for (const auto& app : all_apps()) {
    int checked = 0;
    for (std::size_t i = 0; i < app.text.size() && checked < 10; ++i) {
      Instr instr = decode(app.text[i]);
      if (op_class(instr.op) != OpClass::Branch) continue;
      const std::uint32_t pc = app.text_base + static_cast<std::uint32_t>(i) * 4;
      const std::int64_t target =
          static_cast<std::int64_t>(pc) + 4 + instr.imm * 4;
      if (target < static_cast<std::int64_t>(pc)) continue;  // fwd only here
      std::string src;
      for (std::size_t k = 0; k < i; ++k) src += "nop\n";
      src += disassemble(app.text[i], pc) + "\n";
      for (std::int64_t k = pc + 4; k <= target; k += 4) src += "nop\n";
      Program re = assemble(src);
      EXPECT_EQ(re.text[i], app.text[i])
          << app.name << " @" << pc << ": " << disassemble(app.text[i], pc);
      ++checked;
    }
  }
}

TEST(AsmRoundTrip, RandomEncodingsFuzzedThroughDecoder) {
  // Any 32-bit word either fails to decode or round-trips EXACTLY:
  // decode captures every field bit of its format, so encode(decode(w))
  // reproduces w bit-for-bit. (This is what lets the predecoded
  // CompiledProgram store the decoded Instr and the raw word side by
  // side as interchangeable views of the same instruction.)
  util::Rng rng(0xF422);
  int decodable = 0;
  for (int i = 0; i < 200'000; ++i) {
    std::uint32_t word = rng.next_u32();
    auto decoded = try_decode(word);
    if (!decoded) continue;
    ++decodable;
    ASSERT_EQ(encode(*decoded), word)
        << std::hex << word << " decoded lossily";
  }
  // Roughly a third of random words decode (the subset covers ~22 of 64
  // primary opcodes plus R-type functs).
  EXPECT_GT(decodable, 50'000);
}

TEST(AsmRoundTrip, SweptOpcodeSpaceRoundTripsExactly) {
  // Directed sweep of the whole encoding space rather than uniform
  // fuzz: every primary opcode 0..63 with random field bits, plus the
  // full funct space 0..63 for primary 0 (R-type). Every word that
  // decodes must survive encode() unchanged; every word that does not
  // must throw from decode() (and nothing else).
  util::Rng rng(0x09C0DE5);
  int decodable = 0;
  for (unsigned primary = 0; primary < 64; ++primary) {
    for (int trial = 0; trial < 2'000; ++trial) {
      const std::uint32_t word =
          (primary << 26) | (rng.next_u32() & 0x03FF'FFFF);
      auto decoded = try_decode(word);
      if (decoded) {
        ++decodable;
        ASSERT_EQ(encode(*decoded), word)
            << "primary " << primary << " word " << std::hex << word;
      } else {
        EXPECT_THROW((void)decode(word), IsaError);
      }
    }
  }
  for (unsigned funct = 0; funct < 64; ++funct) {
    for (int trial = 0; trial < 500; ++trial) {
      const std::uint32_t word = (rng.next_u32() & 0x03FF'FFC0) | funct;
      auto decoded = try_decode(word);
      if (decoded) {
        ASSERT_EQ(encode(*decoded), word)
            << "funct " << funct << " word " << std::hex << word;
      } else {
        EXPECT_THROW((void)decode(word), IsaError);
      }
    }
  }
  EXPECT_GT(decodable, 20'000);
}

TEST(AsmRoundTrip, RandomDecodableWordsDisassembleAndReassemble) {
  // disassemble() output for position-free formats is valid assembler
  // input reproducing the identical word -- over the whole decodable
  // space, not just the instruction forms the app binaries happen to
  // use.
  util::Rng rng(0xD15A53);
  int checked = 0;
  for (int i = 0; i < 60'000 && checked < 8'000; ++i) {
    const std::uint32_t word = rng.next_u32();
    auto decoded = try_decode(word);
    if (!decoded) continue;
    const OpClass cls = op_class(decoded->op);
    if (cls == OpClass::Branch || cls == OpClass::Jump ||
        cls == OpClass::JumpLink) {
      continue;  // position-dependent: covered at fixed pcs above
    }
    const std::string line = disassemble(word, 0);
    Program re = assemble(line + "\n");
    ASSERT_EQ(re.text.size(), 1u) << line;
    ASSERT_EQ(re.text[0], word) << std::hex << word << ": " << line;
    ++checked;
  }
  EXPECT_GE(checked, 8'000);
}

TEST(AsmRoundTrip, UndecodableWordsPredecodeToTrappingOps) {
  // The install-time predecoder must map every undecodable word to a
  // non-executable (trapping) PreOp -- executing one raises DecodeFault
  // exactly like the interpreter, never undefined behavior from a
  // default-constructed instruction.
  util::Rng rng(0xBAD09);
  int undecodable = 0;
  for (int trial = 0; trial < 400; ++trial) {
    isa::Program p;
    p.name = "undecodable";
    p.text_base = 0;
    p.entry = 0;
    for (int i = 0; i < 16; ++i) p.text.push_back(rng.next_u32());
    auto compiled =
        np::CompiledProgram::compile(p, monitor::MerkleTreeHash(0xBAD));
    ASSERT_EQ(compiled->num_ops(), p.text.size());
    for (std::size_t i = 0; i < p.text.size(); ++i) {
      const auto& op = compiled->ops_data()[i];
      EXPECT_EQ(op.word, p.text[i]);
      const bool decodes = try_decode(p.text[i]).has_value();
      EXPECT_EQ((op.flags & np::CompiledProgram::kDecoded) != 0, decodes)
          << "word " << i;
      if (!decodes) ++undecodable;
    }
    // Executing the program must trap identically on both paths the
    // moment an undecodable word is reached (if one is reachable).
    np::Core fast, oracle;
    oracle.set_tier(np::Tier::Interpret);
    fast.load_program(p, compiled);
    oracle.load_program(p, compiled);
    for (int s = 0; s < 32 && oracle.runnable(); ++s) {
      const np::StepInfo a = fast.step();
      const np::StepInfo b = oracle.step();
      ASSERT_EQ(static_cast<int>(a.event), static_cast<int>(b.event));
      ASSERT_EQ(static_cast<int>(a.trap), static_cast<int>(b.trap));
      ASSERT_EQ(a.pc, b.pc);
      ASSERT_EQ(a.word, b.word);
    }
  }
  EXPECT_GT(undecodable, 1'000);  // random words are mostly undecodable
}

}  // namespace
}  // namespace sdmmon::isa
