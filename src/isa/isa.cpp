#include "isa/isa.hpp"

#include <array>

namespace sdmmon::isa {

namespace {

struct OpInfo {
  Op op;
  std::string_view name;
  OpClass cls;
  int primary;  // top-6-bit opcode field; 0 for R-type
  int funct;    // funct field for R-type, -1 otherwise
};

constexpr std::array<OpInfo, kNumOps> kOpTable = {{
#define SDMMON_ISA_INFO(name, mnemonic, cls, primary, funct) \
  {Op::name, mnemonic, OpClass::cls, primary, funct},
    SDMMON_ISA_OPS(SDMMON_ISA_INFO)
#undef SDMMON_ISA_INFO
}};

const OpInfo& info(Op op) { return kOpTable[static_cast<std::size_t>(op)]; }

// try_decode's tables, generated from kOpTable: the op of each primary
// opcode (I- and J-type) and of each SPECIAL funct (R-type, primary 0),
// or kNoOp.
constexpr std::uint8_t kNoOp = 0xFF;
struct DecodeTables {
  std::array<std::uint8_t, 64> primary{};
  std::array<std::uint8_t, 64> funct{};
};
constexpr DecodeTables make_decode_tables() {
  DecodeTables t;
  t.primary.fill(kNoOp);
  t.funct.fill(kNoOp);
  for (const OpInfo& entry : kOpTable) {
    auto& slot = entry.primary == 0 ? t.funct[entry.funct]
                                    : t.primary[entry.primary];
    // Not a constant expression, so two ops on one encoding fail to build.
    if (slot != kNoOp) throw IsaError("two ops share an encoding");
    slot = static_cast<std::uint8_t>(entry.op);
  }
  return t;
}
constexpr DecodeTables kDecode = make_decode_tables();

constexpr std::array<std::string_view, 32> kRegNames = {
    "zero", "at", "v0", "v1", "a0", "a1", "a2", "a3",
    "t0",   "t1", "t2", "t3", "t4", "t5", "t6", "t7",
    "s0",   "s1", "s2", "s3", "s4", "s5", "s6", "s7",
    "t8",   "t9", "k0", "k1", "gp", "sp", "fp", "ra"};

}  // namespace

std::string_view op_name(Op op) { return info(op).name; }

std::string_view reg_name(int reg) {
  if (reg < 0 || reg > 31) throw IsaError("register out of range");
  return kRegNames[static_cast<std::size_t>(reg)];
}

int parse_reg(std::string_view token) {
  if (token.empty() || token[0] != '$') {
    throw IsaError("register must start with '$': " + std::string(token));
  }
  std::string_view body = token.substr(1);
  // Numeric form $0..$31.
  if (!body.empty() && body[0] >= '0' && body[0] <= '9') {
    int value = 0;
    for (char c : body) {
      if (c < '0' || c > '9') throw IsaError("bad register: " + std::string(token));
      value = value * 10 + (c - '0');
    }
    if (value > 31) throw IsaError("register out of range: " + std::string(token));
    return value;
  }
  for (int i = 0; i < 32; ++i) {
    if (kRegNames[static_cast<std::size_t>(i)] == body) return i;
  }
  throw IsaError("unknown register: " + std::string(token));
}

std::uint32_t encode(const Instr& instr) {
  const OpInfo& op_info = info(instr.op);
  switch (op_info.cls) {
    case OpClass::Jump:
    case OpClass::JumpLink:
      return static_cast<std::uint32_t>(op_info.primary) << 26 |
             (instr.target & 0x03FFFFFFu);
    default:
      break;
  }
  if (op_info.primary == 0) {
    // R-type.
    return static_cast<std::uint32_t>(instr.rs & 31) << 21 |
           static_cast<std::uint32_t>(instr.rt & 31) << 16 |
           static_cast<std::uint32_t>(instr.rd & 31) << 11 |
           static_cast<std::uint32_t>(instr.shamt & 31) << 6 |
           static_cast<std::uint32_t>(op_info.funct);
  }
  // I-type.
  return static_cast<std::uint32_t>(op_info.primary) << 26 |
         static_cast<std::uint32_t>(instr.rs & 31) << 21 |
         static_cast<std::uint32_t>(instr.rt & 31) << 16 |
         (static_cast<std::uint32_t>(instr.imm) & 0xFFFFu);
}

namespace {

// Canonical-form check: fields an instruction does not use must be zero.
// A lenient decoder would accept e.g. `srl` with junk in the rs bits --
// an encoding no assembler emits, whose disassembly is lossy (the
// syntax has no slot for the dead field) and which would alias a valid
// instruction under the monitor's per-word hash. Rejecting it keeps
// decode exactly the inverse of encode over encode's image, so every
// decodable word round-trips through encode AND disassemble/assemble.
bool canonical_fields(const Instr& in) {
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
      // Three-register ALU forms use rs/rt/rd; shamt must be clear.
      // I-type and J-type forms use every bit of their formats.
      return info(in.op).primary != 0 || in.shamt == 0;
  }
}

}  // namespace

std::optional<Instr> try_decode(std::uint32_t word) {
  const std::uint32_t primary = word >> 26;
  const std::uint8_t op =
      primary == 0 ? kDecode.funct[word & 0x3F] : kDecode.primary[primary];
  if (op == kNoOp) return std::nullopt;
  Instr out;
  out.op = static_cast<Op>(op);
  const OpClass cls = kOpTable[op].cls;
  if (cls == OpClass::Jump || cls == OpClass::JumpLink) {
    out.target = word & 0x03FFFFFFu;
    return out;
  }
  out.rs = static_cast<std::uint8_t>((word >> 21) & 31);
  out.rt = static_cast<std::uint8_t>((word >> 16) & 31);
  if (primary == 0) {
    out.rd = static_cast<std::uint8_t>((word >> 11) & 31);
    out.shamt = static_cast<std::uint8_t>((word >> 6) & 31);
  } else {
    out.imm = static_cast<std::int32_t>(static_cast<std::int16_t>(word & 0xFFFF));
  }
  if (!canonical_fields(out)) return std::nullopt;
  return out;
}

Instr decode(std::uint32_t word) {
  auto decoded = try_decode(word);
  if (!decoded) throw IsaError("cannot decode instruction word");
  return *decoded;
}

Instr make_rtype(Op op, int rd, int rs, int rt) {
  Instr i;
  i.op = op;
  i.rd = static_cast<std::uint8_t>(rd);
  i.rs = static_cast<std::uint8_t>(rs);
  i.rt = static_cast<std::uint8_t>(rt);
  return i;
}

Instr make_shift(Op op, int rd, int rt, int shamt) {
  Instr i;
  i.op = op;
  i.rd = static_cast<std::uint8_t>(rd);
  i.rt = static_cast<std::uint8_t>(rt);
  i.shamt = static_cast<std::uint8_t>(shamt & 31);
  return i;
}

Instr make_itype(Op op, int rt, int rs, std::int32_t imm) {
  Instr i;
  i.op = op;
  i.rt = static_cast<std::uint8_t>(rt);
  i.rs = static_cast<std::uint8_t>(rs);
  i.imm = imm;
  return i;
}

Instr make_branch(Op op, int rs, int rt, std::int32_t offset_words) {
  Instr i;
  i.op = op;
  i.rs = static_cast<std::uint8_t>(rs);
  i.rt = static_cast<std::uint8_t>(rt);
  i.imm = offset_words;
  return i;
}

Instr make_jump(Op op, std::uint32_t target_word_index) {
  Instr i;
  i.op = op;
  i.target = target_word_index & 0x03FFFFFFu;
  return i;
}

Instr make_nop() { return make_shift(Op::Sll, 0, 0, 0); }

}  // namespace sdmmon::isa
