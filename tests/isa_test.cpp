#include "isa/isa.hpp"

#include <gtest/gtest.h>

#include <array>

#include "util/rng.hpp"

namespace sdmmon::isa {
namespace {

TEST(Encode, RTypeMatchesMipsReference) {
  // add $t0, $t1, $t2 => 0x012A4020
  Instr i = make_rtype(Op::Add, 8, 9, 10);
  EXPECT_EQ(encode(i), 0x012A4020u);
}

TEST(Encode, ShiftMatchesMipsReference) {
  // sll $t0, $t1, 4 => 0x00094100
  Instr i = make_shift(Op::Sll, 8, 9, 4);
  EXPECT_EQ(encode(i), 0x00094100u);
}

TEST(Encode, ITypeMatchesMipsReference) {
  // addiu $t0, $t1, -1 => 0x2528FFFF
  Instr i = make_itype(Op::Addiu, 8, 9, -1);
  EXPECT_EQ(encode(i), 0x2528FFFFu);
  // lw $t0, 8($sp) => 0x8FA80008
  Instr lw = make_itype(Op::Lw, 8, 29, 8);
  EXPECT_EQ(encode(lw), 0x8FA80008u);
}

TEST(Encode, BranchMatchesMipsReference) {
  // beq $t0, $t1, +3 words => 0x11090003
  Instr i = make_branch(Op::Beq, 8, 9, 3);
  EXPECT_EQ(encode(i), 0x11090003u);
}

TEST(Encode, JumpMatchesMipsReference) {
  // j word-index 0x100 => 0x08000100
  Instr i = make_jump(Op::J, 0x100);
  EXPECT_EQ(encode(i), 0x08000100u);
}

TEST(Encode, NopIsAllZero) {
  EXPECT_EQ(encode(make_nop()), 0u);
}

TEST(Decode, RoundTripEveryOpcode) {
  // Canonical encodings only: decode rejects words with junk in fields
  // an instruction does not use, so each form populates exactly the
  // fields its format defines (what the builders and assembler emit).
  for (int opi = 0; opi < kNumOps; ++opi) {
    Op op = static_cast<Op>(opi);
    Instr i;
    i.op = op;
    switch (op) {
      case Op::J: case Op::Jal:
        i.target = 0x123456;
        break;
      case Op::Sll: case Op::Srl: case Op::Sra:
        i.rt = 7; i.rd = 12; i.shamt = 5;
        break;
      case Op::Jr:
        i.rs = 3;
        break;
      case Op::Jalr:
        i.rs = 3; i.rd = 12;
        break;
      case Op::Syscall: case Op::Break:
        break;
      case Op::Mfhi: case Op::Mflo:
        i.rd = 12;
        break;
      case Op::Mult: case Op::Multu: case Op::Div: case Op::Divu:
        i.rs = 3; i.rt = 7;
        break;
      case Op::Lui:
        i.rt = 7; i.imm = -42 & 0xFFFF;
        break;
      case Op::Blez: case Op::Bgtz:
        i.rs = 3; i.imm = -42;
        break;
      default:
        if (op <= Op::Sltu) {  // remaining R-type: sllv..srav, add..sltu
          i.rs = 3; i.rt = 7; i.rd = 12;
        } else {               // remaining I-type: alu-imm, branches, mem
          i.rs = 3; i.rt = 7; i.imm = -42;
        }
        break;
    }
    std::uint32_t word = encode(i);
    Instr back = decode(word);
    EXPECT_EQ(back.op, op) << op_name(op);
    EXPECT_EQ(encode(back), word) << op_name(op);
    EXPECT_EQ(back.rs, i.rs) << op_name(op);
    EXPECT_EQ(back.rt, i.rt) << op_name(op);
  }
}

TEST(Decode, NonCanonicalEncodingsRejected) {
  // Junk in a dead field must fail to decode, not silently alias the
  // canonical instruction (the monitor hashes raw words; two encodings
  // of "the same" instruction would otherwise be distinct to the hash
  // but identical to the core).
  const std::uint32_t sll = encode(make_shift(Op::Sll, 4, 5, 6));
  EXPECT_TRUE(try_decode(sll).has_value());
  EXPECT_FALSE(try_decode(sll | (3u << 21)).has_value());  // rs junk
  const std::uint32_t jr = encode(make_rtype(Op::Jr, 0, 31, 0));
  EXPECT_TRUE(try_decode(jr).has_value());
  EXPECT_FALSE(try_decode(jr | (9u << 11)).has_value());   // rd junk
  const std::uint32_t addu = encode(make_rtype(Op::Addu, 1, 2, 3));
  EXPECT_TRUE(try_decode(addu).has_value());
  EXPECT_FALSE(try_decode(addu | (5u << 6)).has_value());  // shamt junk
  const std::uint32_t lui = encode(make_itype(Op::Lui, 7, 0, 0x1234));
  EXPECT_TRUE(try_decode(lui).has_value());
  EXPECT_FALSE(try_decode(lui | (2u << 21)).has_value());  // rs junk
}

TEST(Decode, SignExtendsImmediates) {
  Instr i = decode(encode(make_itype(Op::Addi, 1, 2, -30000)));
  EXPECT_EQ(i.imm, -30000);
  Instr j = decode(encode(make_itype(Op::Addi, 1, 2, 30000)));
  EXPECT_EQ(j.imm, 30000);
}

TEST(Decode, UnknownEncodingReturnsNullopt) {
  // Primary opcode 0x3F is unused in our subset.
  EXPECT_FALSE(try_decode(0xFC000000u).has_value());
  // R-type with unused funct 0x3F.
  EXPECT_FALSE(try_decode(0x0000003Fu).has_value());
  EXPECT_THROW(decode(0xFC000000u), IsaError);
}

TEST(OpClassify, ControlFlowClasses) {
  EXPECT_EQ(op_class(Op::Beq), OpClass::Branch);
  EXPECT_EQ(op_class(Op::Bne), OpClass::Branch);
  EXPECT_EQ(op_class(Op::J), OpClass::Jump);
  EXPECT_EQ(op_class(Op::Jal), OpClass::JumpLink);
  EXPECT_EQ(op_class(Op::Jr), OpClass::JumpReg);
  EXPECT_EQ(op_class(Op::Jalr), OpClass::JumpReg);
  EXPECT_EQ(op_class(Op::Lw), OpClass::Load);
  EXPECT_EQ(op_class(Op::Sw), OpClass::Store);
  EXPECT_EQ(op_class(Op::Addu), OpClass::Alu);
  EXPECT_EQ(op_class(Op::Syscall), OpClass::Trap);
}

TEST(Registers, NamesRoundTrip) {
  for (int r = 0; r < 32; ++r) {
    std::string token = "$" + std::string(reg_name(r));
    EXPECT_EQ(parse_reg(token), r);
  }
}

TEST(Registers, NumericForms) {
  EXPECT_EQ(parse_reg("$0"), 0);
  EXPECT_EQ(parse_reg("$31"), 31);
  EXPECT_EQ(parse_reg("$sp"), 29);
  EXPECT_EQ(parse_reg("$ra"), 31);
}

TEST(Registers, BadNamesThrow) {
  EXPECT_THROW(parse_reg("t0"), IsaError);    // missing $
  EXPECT_THROW(parse_reg("$32"), IsaError);   // out of range
  EXPECT_THROW(parse_reg("$xx"), IsaError);   // unknown name
  EXPECT_THROW(parse_reg(""), IsaError);
  EXPECT_THROW(reg_name(32), IsaError);
}

// The decoder as it was before its opcode tables: a linear scan of the op
// list, with the canonical-field rules of src/isa/isa.cpp.
struct LinearEntry {
  Op op;
  OpClass cls;
  int primary;
  int funct;
};
constexpr std::array<LinearEntry, kNumOps> kLinearTable = {{
#define SDMMON_LINEAR_ENTRY(name, mnemonic, cls, primary, funct) \
  {Op::name, OpClass::cls, primary, funct},
    SDMMON_ISA_OPS(SDMMON_LINEAR_ENTRY)
#undef SDMMON_LINEAR_ENTRY
}};

bool linear_canonical_fields(const Instr& in, int primary) {
  switch (in.op) {
    case Op::Sll: case Op::Srl: case Op::Sra:
      return in.rs == 0;
    case Op::Sllv: case Op::Srlv: case Op::Srav:
      return in.shamt == 0;
    case Op::Jr:
      return in.rt == 0 && in.rd == 0 && in.shamt == 0;
    case Op::Jalr:
      return in.rt == 0 && in.shamt == 0;
    case Op::Syscall: case Op::Break:
      return in.rs == 0 && in.rt == 0 && in.rd == 0 && in.shamt == 0;
    case Op::Mfhi: case Op::Mflo:
      return in.rs == 0 && in.rt == 0 && in.shamt == 0;
    case Op::Mult: case Op::Multu: case Op::Div: case Op::Divu:
      return in.rd == 0 && in.shamt == 0;
    case Op::Lui:
      return in.rs == 0;
    case Op::Blez: case Op::Bgtz:
      return in.rt == 0;
    default:
      return primary != 0 || in.shamt == 0;
  }
}

std::optional<Instr> linear_decode(std::uint32_t word) {
  const int primary = static_cast<int>(word >> 26);
  Instr out;
  if (primary == 0) {
    const int funct = static_cast<int>(word & 0x3F);
    for (const auto& entry : kLinearTable) {
      if (entry.primary == 0 && entry.funct == funct) {
        out.op = entry.op;
        out.rs = static_cast<std::uint8_t>((word >> 21) & 31);
        out.rt = static_cast<std::uint8_t>((word >> 16) & 31);
        out.rd = static_cast<std::uint8_t>((word >> 11) & 31);
        out.shamt = static_cast<std::uint8_t>((word >> 6) & 31);
        if (!linear_canonical_fields(out, 0)) return std::nullopt;
        return out;
      }
    }
    return std::nullopt;
  }
  for (const auto& entry : kLinearTable) {
    if (entry.primary != primary || entry.funct != -1) continue;
    out.op = entry.op;
    if (entry.cls == OpClass::Jump || entry.cls == OpClass::JumpLink) {
      out.target = word & 0x03FFFFFFu;
      return out;
    }
    out.rs = static_cast<std::uint8_t>((word >> 21) & 31);
    out.rt = static_cast<std::uint8_t>((word >> 16) & 31);
    out.imm =
        static_cast<std::int32_t>(static_cast<std::int16_t>(word & 0xFFFF));
    if (!linear_canonical_fields(out, primary)) return std::nullopt;
    return out;
  }
  return std::nullopt;
}

// The table decoder against the linear scan on every (primary, funct)
// pair, with the 20 bits between them all clear, all set, one field at a
// time set, and random.
TEST(Decode, OpcodeTablesMatchTheLinearScan) {
  std::vector<std::uint32_t> middles = {0, 0x03FF'FFC0u};
  for (const int shift : {6, 11, 16, 21}) middles.push_back(31u << shift);
  util::Rng rng(0xDEC0DE);
  for (int r = 0; r < 48; ++r) middles.push_back(rng.next_u32() & 0x03FF'FFC0u);
  std::size_t decoded = 0;
  for (std::uint32_t primary = 0; primary < 64; ++primary) {
    for (std::uint32_t funct = 0; funct < 64; ++funct) {
      for (const std::uint32_t middle : middles) {
        const std::uint32_t word = primary << 26 | middle | funct;
        const std::optional<Instr> want = linear_decode(word);
        ASSERT_EQ(try_decode(word), want) << std::hex << word;
        if (want) ++decoded;
      }
    }
  }
  EXPECT_GT(decoded, 0u);
}

}  // namespace
}  // namespace sdmmon::isa
