// Decoded instruction representation. The simulator executes these
// directly (pre-decoded); the encoder/decoder round-trips them through
// the 32-bit wire format for fidelity tests and memory images.
#pragma once

#include "common/bitops.hpp"
#include "riscv/opcode.hpp"
#include "riscv/reg.hpp"

namespace hwst::riscv {

using common::i64;
using common::u32;
using common::u64;
using common::u8;

struct Instruction {
    Opcode op{Opcode::ADDI};
    Reg rd{Reg::zero};
    Reg rs1{Reg::zero};
    Reg rs2{Reg::zero};
    i64 imm{0};   ///< sign-extended immediate (branch/jump: byte offset)
    u32 csr{0};   ///< CSR address for Zicsr ops; zimm in rs1 for CsrI

    friend bool operator==(const Instruction&, const Instruction&) = default;
};

// ---- factory helpers (used heavily by codegen and tests) --------------

inline Instruction rtype(Opcode op, Reg rd, Reg rs1, Reg rs2)
{
    return Instruction{op, rd, rs1, rs2, 0, 0};
}

inline Instruction itype(Opcode op, Reg rd, Reg rs1, i64 imm)
{
    return Instruction{op, rd, rs1, Reg::zero, imm, 0};
}

inline Instruction stype(Opcode op, Reg rs1, Reg rs2, i64 imm)
{
    return Instruction{op, Reg::zero, rs1, rs2, imm, 0};
}

inline Instruction btype(Opcode op, Reg rs1, Reg rs2, i64 offset)
{
    return Instruction{op, Reg::zero, rs1, rs2, offset, 0};
}

inline Instruction utype(Opcode op, Reg rd, i64 imm)
{
    return Instruction{op, rd, Reg::zero, Reg::zero, imm, 0};
}

inline Instruction jal(Reg rd, i64 offset)
{
    return Instruction{Opcode::JAL, rd, Reg::zero, Reg::zero, offset, 0};
}

inline Instruction csr_op(Opcode op, Reg rd, Reg rs1, u32 csr)
{
    return Instruction{op, rd, rs1, Reg::zero, 0, csr};
}

inline Instruction csri_op(Opcode op, Reg rd, u32 zimm5, u32 csr)
{
    Instruction in{op, rd, Reg::zero, Reg::zero, 0, csr};
    in.imm = zimm5 & 0x1F;
    return in;
}

// Common pseudo-instructions.
inline Instruction nop() { return itype(Opcode::ADDI, Reg::zero, Reg::zero, 0); }
inline Instruction mv(Reg rd, Reg rs) { return itype(Opcode::ADDI, rd, rs, 0); }

} // namespace hwst::riscv
