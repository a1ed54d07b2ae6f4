// The one definition of every op's architectural result. Both executors
// expand these tables: Core::exec() (the interpreter oracle and the
// per-op path) into the cases of its switch, and Core::exec_trace() (the
// compiled superblock tier) into the direct-threaded handlers its label
// table dispatches to.
// An executor decides only what happens *around* a result -- where it is
// written, and whether a trap ends the step (exec) or stops the batch
// before the op retires (exec_trace) -- never the result itself, so the
// two tiers cannot drift apart op by op.
//
// Each table is an X-macro over the ops of one shape. Expressions read
//   a, b    the rs and rt register values (std::uint32_t), read before
//           the op writes anything;
//   in      the decoded isa::Instr;
//   hi, lo  the multiply/divide registers (std::uint32_t);
// plus the helpers below. The load and store tables give only a width:
// both executors access memory through the one ops::load (a fault bit
// plus an out-parameter) and ops::store below.
#ifndef SDMMON_NP_OP_TABLE_HPP
#define SDMMON_NP_OP_TABLE_HPP

#include <cstdint>
#include <limits>

#include "isa/isa.hpp"
#include "np/cycle_model.hpp"
#include "np/memory.hpp"

namespace sdmmon::np::ops {

inline std::uint32_t simm(const isa::Instr& in) {
  return static_cast<std::uint32_t>(in.imm);
}
inline std::uint32_t zimm(const isa::Instr& in) {
  return static_cast<std::uint32_t>(in.imm) & 0xFFFFu;
}
inline std::int32_t s32(std::uint32_t v) {
  return static_cast<std::int32_t>(v);
}
inline std::uint32_t u32(std::int32_t v) {
  return static_cast<std::uint32_t>(v);
}

/// Signed overflow of a + b = r (operands share a sign the result lacks).
inline bool add_overflows(std::uint32_t a, std::uint32_t b, std::uint32_t r) {
  return (~(a ^ b) & (a ^ r) & 0x8000'0000u) != 0;
}
/// Signed overflow of a - b = r (operands differ in sign, result flips a's).
inline bool sub_overflows(std::uint32_t a, std::uint32_t b, std::uint32_t r) {
  return ((a ^ b) & (a ^ r) & 0x8000'0000u) != 0;
}

/// hi:lo packed as one 64-bit value (hi in the upper word).
inline std::uint64_t hilo(std::uint32_t hi, std::uint32_t lo) {
  return (static_cast<std::uint64_t>(hi) << 32) | lo;
}
/// Signed divide for b != 0. INT_MIN / -1 overflows in C++; the guest
/// gets the two's-complement wrap (lo = INT_MIN, hi = 0) instead of
/// crashing the host.
inline std::uint64_t sdivmod(std::uint32_t a, std::uint32_t b) {
  if (s32(a) == std::numeric_limits<std::int32_t>::min() && s32(b) == -1) {
    return hilo(0, a);
  }
  return hilo(u32(s32(a) % s32(b)), u32(s32(a) / s32(b)));
}

inline std::uint32_t branch_target(std::uint32_t pc, const isa::Instr& in) {
  return pc + 4 + simm(in) * 4;
}
inline std::uint32_t jump_target(const isa::Instr& in) { return in.target * 4; }

// ALU ops writing rd: X(op, value)
#define SDMMON_OPS_ALU_RD(X)                          \
  X(Sll, b << in.shamt)                               \
  X(Srl, b >> in.shamt)                               \
  X(Sra, ops::u32(ops::s32(b) >> in.shamt))           \
  X(Sllv, b << (a & 31))                              \
  X(Srlv, b >> (a & 31))                              \
  X(Srav, ops::u32(ops::s32(b) >> (a & 31)))          \
  X(Mfhi, hi)                                         \
  X(Mflo, lo)                                         \
  X(Addu, a + b)                                      \
  X(Subu, a - b)                                      \
  X(And, a & b)                                       \
  X(Or, a | b)                                        \
  X(Xor, a ^ b)                                       \
  X(Nor, ~(a | b))                                    \
  X(Slt, ops::s32(a) < ops::s32(b) ? 1u : 0u)         \
  X(Sltu, a < b ? 1u : 0u)

// ALU ops writing rt: X(op, value)
#define SDMMON_OPS_ALU_RT(X)                          \
  X(Addiu, a + ops::simm(in))                         \
  X(Slti, ops::s32(a) < in.imm ? 1u : 0u)             \
  X(Sltiu, a < ops::simm(in) ? 1u : 0u)               \
  X(Andi, a & ops::zimm(in))                          \
  X(Ori, a | ops::zimm(in))                           \
  X(Xori, a ^ ops::zimm(in))                          \
  X(Lui, ops::zimm(in) << 16)

// ALU ops that trap on signed overflow: X(op, dest field, value r,
// overflow predicate over a, b, r). The op retires only when the
// predicate is false.
#define SDMMON_OPS_ALU_OVF(X)                                 \
  X(Add, rd, a + b, ops::add_overflows(a, b, r))              \
  X(Sub, rd, a - b, ops::sub_overflows(a, b, r))              \
  X(Addi, rt, a + ops::simm(in), ops::add_overflows(a, ops::simm(in), r))

// Multiply/divide: X(op, guard, new hi:lo). hi/lo keep their values
// when the guard is false (divide by zero).
#define SDMMON_OPS_MULDIV(X)                                                 \
  X(Mult, true,                                                              \
    static_cast<std::uint64_t>(static_cast<std::int64_t>(ops::s32(a)) *      \
                               ops::s32(b)))                                 \
  X(Multu, true, static_cast<std::uint64_t>(a) * b)                          \
  X(Div, b != 0, ops::sdivmod(a, b))                                         \
  X(Divu, b != 0, ops::hilo(a % b, a / b))

// Conditional branches: X(op, taken condition). Target: branch_target().
#define SDMMON_OPS_BRANCH(X)      \
  X(Beq, a == b)                  \
  X(Bne, a != b)                  \
  X(Blez, ops::s32(a) <= 0)       \
  X(Bgtz, ops::s32(a) > 0)

// Loads: X(op, width in bits, sign-extending). Address: a + simm(in).
#define SDMMON_OPS_LOAD(X) \
  X(Lb, 8, true)           \
  X(Lbu, 8, false)         \
  X(Lh, 16, true)          \
  X(Lhu, 16, false)        \
  X(Lw, 32, false)

// Stores of the low `width` bits of b: X(op, width in bits).
#define SDMMON_OPS_STORE(X) \
  X(Sb, 8)                  \
  X(Sh, 16)                 \
  X(Sw, 32)

/// Width-generic data access for the load/store tables. A load is false
/// when it faults (unaligned or unmapped); otherwise it writes the
/// zero-extended value to `out`. Both executors load through it: a bool
/// and an out-parameter rather than a std::optional, so the value stays
/// in a register.
template <int kWidth>
inline bool load(const Memory& mem, std::uint32_t addr, std::uint32_t& out) {
  if constexpr (kWidth == 8) {
    return mem.load<std::uint8_t>(addr, out);
  } else if constexpr (kWidth == 16) {
    return mem.load<std::uint16_t>(addr, out);
  } else {
    return mem.load<std::uint32_t>(addr, out);
  }
}

template <int kWidth>
MemFault store(Memory& mem, std::uint32_t addr, std::uint32_t value) {
  if constexpr (kWidth == 8) {
    return mem.store8(addr, static_cast<std::uint8_t>(value));
  } else if constexpr (kWidth == 16) {
    return mem.store16(addr, static_cast<std::uint16_t>(value));
  } else {
    return mem.store32(addr, value);
  }
}

template <int kWidth, bool kSigned>
std::uint32_t extend(std::uint32_t v) {
  if constexpr (kSigned && kWidth == 8) {
    return u32(static_cast<std::int8_t>(v));
  } else if constexpr (kSigned && kWidth == 16) {
    return u32(static_cast<std::int16_t>(v));
  } else {
    return v;
  }
}

/// The retired-mix counter an op lands in (`taken` only matters for
/// branches; callers reclassify a branch once it resolves).
inline std::uint64_t& mix_counter(InstrMix& mix, isa::Op op, bool taken) {
  switch (isa::op_class(op)) {
    case isa::OpClass::Alu:
      return op == isa::Op::Mult || op == isa::Op::Multu ||
                     op == isa::Op::Div || op == isa::Op::Divu
                 ? mix.muldiv
                 : mix.alu;
    case isa::OpClass::Load: return mix.load;
    case isa::OpClass::Store: return mix.store;
    case isa::OpClass::Branch:
      return taken ? mix.branch_taken : mix.branch_not_taken;
    case isa::OpClass::Jump:
    case isa::OpClass::JumpLink:
    case isa::OpClass::JumpReg: return mix.jump;
    case isa::OpClass::Trap: break;
  }
  return mix.trap;
}

}  // namespace sdmmon::np::ops

#endif  // SDMMON_NP_OP_TABLE_HPP
