// Opcode catalogue: RV64IM + Zicsr subset plus the HWST128 memory-safety
// extension. The X-macro table keeps the encoder, decoder, disassembler
// and executor in sync from a single definition.
//
// HWST128 extension (paper §3.2-3.3, Fig. 1/3):
//   custom-0 (0x0B) R-type  : metadata bind / shadow move / checks
//   custom-1 (0x2B) I-type  : checked loads (spatial check fused, SCU)
//   custom-2 (0x5B) S-type  : checked stores (spatial check fused, SCU)
#pragma once

#include <cstdint>
#include <iterator>
#include <string_view>

namespace hwst::riscv {

/// Instruction encoding format.
enum class Format : std::uint8_t {
    R,      ///< rd, rs1, rs2; funct3+funct7
    I,      ///< rd, rs1, imm12
    ShiftI, ///< rd, rs1, shamt (6-bit, RV64)
    ShiftIW,///< rd, rs1, shamt (5-bit, *W shifts)
    S,      ///< rs1, rs2, imm12 (split)
    B,      ///< rs1, rs2, imm13 (branch)
    U,      ///< rd, imm20<<12
    J,      ///< rd, imm21 (jal)
    Csr,    ///< rd, rs1, csr
    CsrI,   ///< rd, zimm5, csr
    Sys,    ///< ecall/ebreak/fence
};

// Name, Format, major opcode, funct3, funct7.
// clang-format off
#define HWST_OPCODE_LIST(X) \
    /* ---- RV64I ---- */ \
    X(LUI,    U,       0x37, 0, 0)  \
    X(AUIPC,  U,       0x17, 0, 0)  \
    X(JAL,    J,       0x6F, 0, 0)  \
    X(JALR,   I,       0x67, 0, 0)  \
    X(BEQ,    B,       0x63, 0, 0)  \
    X(BNE,    B,       0x63, 1, 0)  \
    X(BLT,    B,       0x63, 4, 0)  \
    X(BGE,    B,       0x63, 5, 0)  \
    X(BLTU,   B,       0x63, 6, 0)  \
    X(BGEU,   B,       0x63, 7, 0)  \
    X(LB,     I,       0x03, 0, 0)  \
    X(LH,     I,       0x03, 1, 0)  \
    X(LW,     I,       0x03, 2, 0)  \
    X(LD,     I,       0x03, 3, 0)  \
    X(LBU,    I,       0x03, 4, 0)  \
    X(LHU,    I,       0x03, 5, 0)  \
    X(LWU,    I,       0x03, 6, 0)  \
    X(SB,     S,       0x23, 0, 0)  \
    X(SH,     S,       0x23, 1, 0)  \
    X(SW,     S,       0x23, 2, 0)  \
    X(SD,     S,       0x23, 3, 0)  \
    X(ADDI,   I,       0x13, 0, 0)  \
    X(SLTI,   I,       0x13, 2, 0)  \
    X(SLTIU,  I,       0x13, 3, 0)  \
    X(XORI,   I,       0x13, 4, 0)  \
    X(ORI,    I,       0x13, 6, 0)  \
    X(ANDI,   I,       0x13, 7, 0)  \
    X(SLLI,   ShiftI,  0x13, 1, 0x00) \
    X(SRLI,   ShiftI,  0x13, 5, 0x00) \
    X(SRAI,   ShiftI,  0x13, 5, 0x20) \
    X(ADD,    R,       0x33, 0, 0x00) \
    X(SUB,    R,       0x33, 0, 0x20) \
    X(SLL,    R,       0x33, 1, 0x00) \
    X(SLT,    R,       0x33, 2, 0x00) \
    X(SLTU,   R,       0x33, 3, 0x00) \
    X(XOR,    R,       0x33, 4, 0x00) \
    X(SRL,    R,       0x33, 5, 0x00) \
    X(SRA,    R,       0x33, 5, 0x20) \
    X(OR,     R,       0x33, 6, 0x00) \
    X(AND,    R,       0x33, 7, 0x00) \
    X(ADDIW,  I,       0x1B, 0, 0)    \
    X(SLLIW,  ShiftIW, 0x1B, 1, 0x00) \
    X(SRLIW,  ShiftIW, 0x1B, 5, 0x00) \
    X(SRAIW,  ShiftIW, 0x1B, 5, 0x20) \
    X(ADDW,   R,       0x3B, 0, 0x00) \
    X(SUBW,   R,       0x3B, 0, 0x20) \
    X(SLLW,   R,       0x3B, 1, 0x00) \
    X(SRLW,   R,       0x3B, 5, 0x00) \
    X(SRAW,   R,       0x3B, 5, 0x20) \
    X(FENCE,  Sys,     0x0F, 0, 0)    \
    X(ECALL,  Sys,     0x73, 0, 0x00) \
    X(EBREAK, Sys,     0x73, 0, 0x01) \
    /* ---- RV64M ---- */ \
    X(MUL,    R,       0x33, 0, 0x01) \
    X(MULH,   R,       0x33, 1, 0x01) \
    X(MULHSU, R,       0x33, 2, 0x01) \
    X(MULHU,  R,       0x33, 3, 0x01) \
    X(DIV,    R,       0x33, 4, 0x01) \
    X(DIVU,   R,       0x33, 5, 0x01) \
    X(REM,    R,       0x33, 6, 0x01) \
    X(REMU,   R,       0x33, 7, 0x01) \
    X(MULW,   R,       0x3B, 0, 0x01) \
    X(DIVW,   R,       0x3B, 4, 0x01) \
    X(DIVUW,  R,       0x3B, 5, 0x01) \
    X(REMW,   R,       0x3B, 6, 0x01) \
    X(REMUW,  R,       0x3B, 7, 0x01) \
    /* ---- Zicsr ---- */ \
    X(CSRRW,  Csr,     0x73, 1, 0)  \
    X(CSRRS,  Csr,     0x73, 2, 0)  \
    X(CSRRC,  Csr,     0x73, 3, 0)  \
    X(CSRRWI, CsrI,    0x73, 5, 0)  \
    X(CSRRSI, CsrI,    0x73, 6, 0)  \
    X(CSRRCI, CsrI,    0x73, 7, 0)  \
    /* ---- HWST128 custom-0: metadata bind/move/check ---- */ \
    X(BNDRS,  R,       0x0B, 0, 0x00) /* SRF[rd].spatial  = comp(rs1=base, rs2=bound) */ \
    X(BNDRT,  R,       0x0B, 0, 0x01) /* SRF[rd].temporal = comp(rs1=key,  rs2=lock)  */ \
    X(SBDL,   S,       0x5B, 4, 0x00) /* S.Mem[smac(rs1+imm)].lo = SRF[rs2].lo        */ \
    X(SBDU,   S,       0x5B, 5, 0x00) /* S.Mem[smac(rs1+imm)].hi = SRF[rs2].hi        */ \
    X(LBDLS,  I,       0x7B, 0, 0x00) /* SRF[rd].lo = S.Mem[smac(rs1+imm)].lo         */ \
    X(LBDUS,  I,       0x7B, 1, 0x00) /* SRF[rd].hi = S.Mem[smac(rs1+imm)].hi         */ \
    X(LBAS,   R,       0x0B, 3, 0x00) /* rd = decompressed base  of S.Mem[smac(rs1)]  */ \
    X(LBND,   R,       0x0B, 3, 0x01) /* rd = decompressed bound of S.Mem[smac(rs1)]  */ \
    X(LKEY,   R,       0x0B, 3, 0x02) /* rd = decompressed key   of S.Mem[smac(rs1)]  */ \
    X(LLOC,   R,       0x0B, 3, 0x03) /* rd = decompressed lock  of S.Mem[smac(rs1)]  */ \
    X(TCHK,   R,       0x0B, 4, 0x00) /* temporal check of SRF[rs1] via keybuffer/TCU */ \
    X(KBFLUSH,R,       0x0B, 4, 0x01) /* flush keybuffer (issued by free wrapper)     */ \
    X(SRFMV,  R,       0x0B, 5, 0x00) /* SRF[rd] = SRF[rs1] (explicit, for wrappers)  */ \
    X(SRFCLR, R,       0x0B, 5, 0x01) /* invalidate SRF[rd]                           */ \
    /* ---- HWST128 custom-1: checked loads (SCU fused) ---- */ \
    X(CLB,    I,       0x2B, 0, 0)  \
    X(CLH,    I,       0x2B, 1, 0)  \
    X(CLW,    I,       0x2B, 2, 0)  \
    X(CLD,    I,       0x2B, 3, 0)  \
    X(CLBU,   I,       0x2B, 4, 0)  \
    X(CLHU,   I,       0x2B, 5, 0)  \
    X(CLWU,   I,       0x2B, 6, 0)  \
    /* ---- HWST128 custom-2: checked stores (SCU fused) ---- */ \
    X(CSB,    S,       0x5B, 0, 0)  \
    X(CSH,    S,       0x5B, 1, 0)  \
    X(CSW,    S,       0x5B, 2, 0)  \
    X(CSD,    S,       0x5B, 3, 0)
// clang-format on

enum class Opcode : std::uint8_t {
#define HWST_ENUM(name, fmt, major, f3, f7) name,
    HWST_OPCODE_LIST(HWST_ENUM)
#undef HWST_ENUM
};

inline constexpr unsigned kNumOpcodes = 0
#define HWST_COUNT(name, fmt, major, f3, f7) +1
    HWST_OPCODE_LIST(HWST_COUNT)
#undef HWST_COUNT
    ;

struct OpInfo {
    std::string_view name;
    Format format;
    std::uint8_t major;
    std::uint8_t funct3;
    std::uint8_t funct7;
};

/// Indexed by Opcode. Kept at namespace scope: GCC materialises a
/// function-local constexpr array on the stack on every call, and the
/// Machine constructor calls op_info twice per static instruction.
inline constexpr OpInfo kOpInfoTable[] = {
#define HWST_INFO(name, fmt, major, f3, f7) \
    OpInfo{#name, Format::fmt, major, f3, f7},
    HWST_OPCODE_LIST(HWST_INFO)
#undef HWST_INFO
};
static_assert(std::size(kOpInfoTable) == kNumOpcodes);

constexpr OpInfo op_info(Opcode op)
{
    return kOpInfoTable[static_cast<unsigned>(op)];
}

constexpr std::string_view op_name(Opcode op) { return op_info(op).name; }
constexpr Format op_format(Opcode op) { return op_info(op).format; }

/// True for every instruction that reads user memory (timing: D-cache).
constexpr bool is_load(Opcode op)
{
    switch (op) {
    case Opcode::LB: case Opcode::LH: case Opcode::LW: case Opcode::LD:
    case Opcode::LBU: case Opcode::LHU: case Opcode::LWU:
    case Opcode::CLB: case Opcode::CLH: case Opcode::CLW: case Opcode::CLD:
    case Opcode::CLBU: case Opcode::CLHU: case Opcode::CLWU:
        return true;
    default:
        return false;
    }
}

/// True for every instruction that writes user memory.
constexpr bool is_store(Opcode op)
{
    switch (op) {
    case Opcode::SB: case Opcode::SH: case Opcode::SW: case Opcode::SD:
    case Opcode::CSB: case Opcode::CSH: case Opcode::CSW: case Opcode::CSD:
        return true;
    default:
        return false;
    }
}

/// True for the checked (SCU-fused) memory ops of the HWST128 extension.
constexpr bool is_checked_mem(Opcode op)
{
    switch (op) {
    case Opcode::CLB: case Opcode::CLH: case Opcode::CLW: case Opcode::CLD:
    case Opcode::CLBU: case Opcode::CLHU: case Opcode::CLWU:
    case Opcode::CSB: case Opcode::CSH: case Opcode::CSW: case Opcode::CSD:
        return true;
    default:
        return false;
    }
}

/// Access width in bytes for loads/stores (checked or not).
constexpr unsigned mem_width(Opcode op)
{
    switch (op) {
    case Opcode::LB: case Opcode::LBU: case Opcode::SB:
    case Opcode::CLB: case Opcode::CLBU: case Opcode::CSB:
        return 1;
    case Opcode::LH: case Opcode::LHU: case Opcode::SH:
    case Opcode::CLH: case Opcode::CLHU: case Opcode::CSH:
        return 2;
    case Opcode::LW: case Opcode::LWU: case Opcode::SW:
    case Opcode::CLW: case Opcode::CLWU: case Opcode::CSW:
        return 4;
    case Opcode::LD: case Opcode::SD: case Opcode::CLD: case Opcode::CSD:
        return 8;
    default:
        return 0;
    }
}

/// True for branch/jump instructions (control transfer).
constexpr bool is_branch(Opcode op)
{
    switch (op) {
    case Opcode::BEQ: case Opcode::BNE: case Opcode::BLT: case Opcode::BGE:
    case Opcode::BLTU: case Opcode::BGEU:
        return true;
    default:
        return false;
    }
}

/// True for instructions in the HWST128 custom extension.
constexpr bool is_hwst(Opcode op)
{
    const auto major = op_info(op).major;
    return major == 0x0B || major == 0x2B || major == 0x5B ||
           major == 0x7B;
}

} // namespace hwst::riscv
