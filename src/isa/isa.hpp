// MIPS-I-subset instruction set matching the paper's PLASMA network
// processor core: 32-bit fixed-width instructions, 32 general registers,
// R/I/J formats. The hardware monitor hashes the raw 32-bit instruction
// word, so encode/decode here is bit-exact MIPS encoding.
//
// Simplification vs. real MIPS: the simulator has no branch delay slots
// (branches take effect immediately). This only changes pipeline timing,
// not the monitoring contract (the stream of executed instruction words).
#ifndef SDMMON_ISA_ISA_HPP
#define SDMMON_ISA_ISA_HPP

#include <cstddef>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>

namespace sdmmon::isa {

class IsaError : public std::runtime_error {
 public:
  explicit IsaError(const std::string& what) : std::runtime_error(what) {}
};

/// Every op the core executes, in Op order: X(name, mnemonic, OpClass,
/// primary opcode field (0 for R-type), funct field (-1 unless R-type)).
/// Op, kNumOps, the encode/decode table and Core::exec_trace's handler
/// table are all expanded from this one list, so their orders cannot
/// drift apart.
#define SDMMON_ISA_OPS(X)               \
  /* R-type (opcode 0, by funct) */     \
  X(Sll, "sll", Alu, 0, 0)              \
  X(Srl, "srl", Alu, 0, 2)              \
  X(Sra, "sra", Alu, 0, 3)              \
  X(Sllv, "sllv", Alu, 0, 4)            \
  X(Srlv, "srlv", Alu, 0, 6)            \
  X(Srav, "srav", Alu, 0, 7)            \
  X(Jr, "jr", JumpReg, 0, 8)            \
  X(Jalr, "jalr", JumpReg, 0, 9)        \
  X(Syscall, "syscall", Trap, 0, 12)    \
  X(Break, "break", Trap, 0, 13)        \
  X(Mfhi, "mfhi", Alu, 0, 16)           \
  X(Mflo, "mflo", Alu, 0, 18)           \
  X(Mult, "mult", Alu, 0, 24)           \
  X(Multu, "multu", Alu, 0, 25)         \
  X(Div, "div", Alu, 0, 26)             \
  X(Divu, "divu", Alu, 0, 27)           \
  X(Add, "add", Alu, 0, 32)             \
  X(Addu, "addu", Alu, 0, 33)           \
  X(Sub, "sub", Alu, 0, 34)             \
  X(Subu, "subu", Alu, 0, 35)           \
  X(And, "and", Alu, 0, 36)             \
  X(Or, "or", Alu, 0, 37)               \
  X(Xor, "xor", Alu, 0, 38)             \
  X(Nor, "nor", Alu, 0, 39)             \
  X(Slt, "slt", Alu, 0, 42)             \
  X(Sltu, "sltu", Alu, 0, 43)           \
  /* I-type */                          \
  X(Beq, "beq", Branch, 4, -1)          \
  X(Bne, "bne", Branch, 5, -1)          \
  X(Blez, "blez", Branch, 6, -1)        \
  X(Bgtz, "bgtz", Branch, 7, -1)        \
  X(Addi, "addi", Alu, 8, -1)           \
  X(Addiu, "addiu", Alu, 9, -1)         \
  X(Slti, "slti", Alu, 10, -1)          \
  X(Sltiu, "sltiu", Alu, 11, -1)        \
  X(Andi, "andi", Alu, 12, -1)          \
  X(Ori, "ori", Alu, 13, -1)            \
  X(Xori, "xori", Alu, 14, -1)          \
  X(Lui, "lui", Alu, 15, -1)            \
  X(Lb, "lb", Load, 32, -1)             \
  X(Lh, "lh", Load, 33, -1)             \
  X(Lw, "lw", Load, 35, -1)             \
  X(Lbu, "lbu", Load, 36, -1)           \
  X(Lhu, "lhu", Load, 37, -1)           \
  X(Sb, "sb", Store, 40, -1)            \
  X(Sh, "sh", Store, 41, -1)            \
  X(Sw, "sw", Store, 43, -1)            \
  /* J-type */                          \
  X(J, "j", Jump, 2, -1)                \
  X(Jal, "jal", JumpLink, 3, -1)

/// Mnemonic-level opcode covering every instruction the core executes.
enum class Op : std::uint8_t {
#define SDMMON_ISA_ENUM(name, ...) name,
  SDMMON_ISA_OPS(SDMMON_ISA_ENUM)
#undef SDMMON_ISA_ENUM
};

constexpr int kNumOps = 0
#define SDMMON_ISA_COUNT(...) +1
    SDMMON_ISA_OPS(SDMMON_ISA_COUNT)
#undef SDMMON_ISA_COUNT
    ;

/// Instruction classes relevant to control-flow analysis.
enum class OpClass {
  Alu,          // falls through to pc+4
  Load,
  Store,
  Branch,       // conditional: successors {target, pc+4}
  Jump,         // unconditional direct: successor {target}
  JumpLink,     // jal: successor {target}, writes ra
  JumpReg,      // jr/jalr: indirect, successors from offline analysis
  Trap,         // syscall/break
};

constexpr OpClass op_class(Op op) {
  constexpr OpClass kClass[] = {
#define SDMMON_ISA_CLASS(name, mnemonic, cls, ...) OpClass::cls,
      SDMMON_ISA_OPS(SDMMON_ISA_CLASS)
#undef SDMMON_ISA_CLASS
  };
  return kClass[static_cast<std::size_t>(op)];
}
std::string_view op_name(Op op);

/// Decoded instruction. Fields are valid per format:
///  R-type: rs, rt, rd, shamt;  I-type: rs, rt, imm;  J-type: target.
struct Instr {
  Op op = Op::Sll;
  std::uint8_t rs = 0;
  std::uint8_t rt = 0;
  std::uint8_t rd = 0;
  std::uint8_t shamt = 0;
  std::int32_t imm = 0;        // sign-extended 16-bit immediate (I-type)
  std::uint32_t target = 0;    // 26-bit word index (J-type)

  bool operator==(const Instr& rhs) const = default;
};

/// Encode to the raw 32-bit word the monitor hashes.
std::uint32_t encode(const Instr& instr);

/// Decode a raw word; throws IsaError on an unknown opcode/funct.
Instr decode(std::uint32_t word);

/// Decode without throwing; nullopt on unknown encodings.
std::optional<Instr> try_decode(std::uint32_t word);

/// Register ABI names ($zero, $at, $v0, ... $ra).
std::string_view reg_name(int reg);

/// Parse "$t0", "$5", "$zero" etc.; throws IsaError on bad names.
int parse_reg(std::string_view token);

// Instruction-word builders used by app code and tests.
Instr make_rtype(Op op, int rd, int rs, int rt);
Instr make_shift(Op op, int rd, int rt, int shamt);
Instr make_itype(Op op, int rt, int rs, std::int32_t imm);
Instr make_branch(Op op, int rs, int rt, std::int32_t offset_words);
Instr make_jump(Op op, std::uint32_t target_word_index);
Instr make_nop();

}  // namespace sdmmon::isa

#endif  // SDMMON_ISA_ISA_HPP
