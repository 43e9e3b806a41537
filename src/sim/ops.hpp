// One definition of each op (docs/performance.md "One op table"). Both
// execution tiers are built from this file:
//
//  * the op tables below give every Opcode exactly one row: its value
//    expression (RV64IM, branches), access width (loads, stores), SRF
//    rule, functional unit, InstrMix bucket and superblock executor
//    kind. Machine::exec/exec_hwst expand their cases from the rows,
//    the dispatcher (dispatch_impl.hpp) its executor bodies, and translation
//    (superblock.cpp) reads kind, rd == x0 fold and static cycles from
//    kOpTraits. An Opcode without a row does not compile;
//  * the memory and HWST metadata ops are Machine members templated on
//    `Hooked`. The interpreter and the probe-hooked dispatcher copy run
//    them with Hooked = true: each probe point calls the hook from its
//    quiet point on, and the csr.bitw decode goes through
//    active_compression(), which bypasses its memo while CompCsrWidths
//    is live. The hook-free dispatcher copy runs Hooked = false: no
//    probes, the decode memo read directly.
//
// Accounting is not defined here: the interpreter counts per step in
// retire_one(), the dispatcher batches per block; the tables only say
// what each op charges (Fu) and where it is counted (InstrMix bucket).
//
// Adding an op: one row in the table of its shape. A HWST metadata op
// that is neither a checked access nor one of the ops with a dedicated
// executor kind gets its case in Machine::exec_hwst (the dispatcher
// reaches it through SbKind::Hwst); its semantics live there only.
#pragma once

#include <algorithm>
#include <array>
#include <limits>

#include "sim/machine.hpp"

namespace hwst::sim {

using common::i32;
using hwst::Trap;
using hwst::TrapKind;
using riscv::Opcode;

/// Functional-unit cycles an op pays on top of its issue cycle, every
/// time it retires (static: translation folds them into the block).
enum class Fu : u8 {
    None,
    Mul,  ///< TimingConfig::mul_extra
    Div,  ///< TimingConfig::div_extra
    Jump, ///< TimingConfig::branch_taken_penalty (jal/jalr always jump)
};

constexpr unsigned fu_cycles(Fu fu, const TimingConfig& t)
{
    switch (fu) {
    case Fu::Mul: return t.mul_extra;
    case Fu::Div: return t.div_extra;
    case Fu::Jump: return t.branch_taken_penalty;
    case Fu::None: break;
    }
    return 0;
}

/// In-pipeline metadata propagation (paper Fig. 1-b): what a retiring
/// writer does to its destination's shadow register. Hardbound-style
/// rules — a register move or pointer arithmetic carries the source's
/// shadow register to the destination with no instruction overhead.
enum class SrfRule : u8 {
    Clear, ///< any other writer invalidates rd's metadata
    Addi,  ///< pointer arithmetic: rd inherits rs1's
    Add,   ///< rd inherits the one operand's that has metadata, else is
           ///< cleared — unguarded, so rd = x0 clears SRF entry 0
    Sub,   ///< rd inherits rs1's if rs2 has none, else is cleared (ditto)
};

/// Translation folds a writer with rd == x0 to a Nop when its rule
/// leaves SRF entry 0 alone: the write is suppressed, so the op has no
/// effect beyond its static cycles and mix count. ADD/SUB end in an
/// unguarded clear(rd), so they never fold.
constexpr bool folds_rd_zero(SrfRule r)
{
    return r == SrfRule::Clear || r == SrfRule::Addi;
}

// ---- op tables -----------------------------------------------------------
// clang-format off

/// RV64IM computational ops: name, executor kind, functional unit, SRF
/// rule, value of (rs1, rs2, imm), imm being the sign-extended
/// immediate. Rows are in dispatch order (HWST_SB_KIND_LIST).
#define HWST_ALU_OPS(X) \
    X(ADDI,   Addi,   None, Addi,  rs1 + imm) \
    X(SLTI,   Slti,   None, Clear, static_cast<i64>(rs1) < static_cast<i64>(imm)) \
    X(SLTIU,  Sltiu,  None, Clear, rs1 < imm) \
    X(XORI,   Xori,   None, Clear, rs1 ^ imm) \
    X(ORI,    Ori,    None, Clear, rs1 | imm) \
    X(ANDI,   Andi,   None, Clear, rs1 & imm) \
    X(SLLI,   Slli,   None, Clear, rs1 << (imm & 63)) \
    X(SRLI,   Srli,   None, Clear, rs1 >> (imm & 63)) \
    X(SRAI,   Srai,   None, Clear, sra64(rs1, imm & 63)) \
    X(ADDIW,  Addiw,  None, Clear, sext32(rs1 + imm)) \
    X(SLLIW,  Slliw,  None, Clear, sext32(rs1 << (imm & 31))) \
    X(SRLIW,  Srliw,  None, Clear, sext32(static_cast<u32>(rs1) >> (imm & 31))) \
    X(SRAIW,  Sraiw,  None, Clear, sra32(rs1, imm & 31)) \
    X(ADD,    Add,    None, Add,   rs1 + rs2) \
    X(SUB,    Sub,    None, Sub,   rs1 - rs2) \
    X(SLL,    Sll,    None, Clear, rs1 << (rs2 & 63)) \
    X(SLT,    Slt,    None, Clear, static_cast<i64>(rs1) < static_cast<i64>(rs2)) \
    X(SLTU,   Sltu,   None, Clear, rs1 < rs2) \
    X(XOR,    Xor,    None, Clear, rs1 ^ rs2) \
    X(SRL,    Srl,    None, Clear, rs1 >> (rs2 & 63)) \
    X(SRA,    Sra,    None, Clear, sra64(rs1, rs2 & 63)) \
    X(OR,     Or,     None, Clear, rs1 | rs2) \
    X(AND,    And,    None, Clear, rs1 & rs2) \
    X(ADDW,   Addw,   None, Clear, sext32(rs1 + rs2)) \
    X(SUBW,   Subw,   None, Clear, sext32(rs1 - rs2)) \
    X(SLLW,   Sllw,   None, Clear, sext32(rs1 << (rs2 & 31))) \
    X(SRLW,   Srlw,   None, Clear, sext32(static_cast<u32>(rs1) >> (rs2 & 31))) \
    X(SRAW,   Sraw,   None, Clear, sra32(rs1, rs2 & 31)) \
    X(MUL,    Mul,    Mul,  Clear, rs1 * rs2) \
    X(MULH,   Mulh,   Mul,  Clear, mulh(rs1, rs2)) \
    X(MULHSU, Mulhsu, Mul,  Clear, mulhsu(rs1, rs2)) \
    X(MULHU,  Mulhu,  Mul,  Clear, mulhu(rs1, rs2)) \
    X(DIV,    Div,    Div,  Clear, div64(rs1, rs2)) \
    X(DIVU,   Divu,   Div,  Clear, rs2 == 0 ? ~u64{0} : rs1 / rs2) \
    X(REM,    Rem,    Div,  Clear, rem64(rs1, rs2)) \
    X(REMU,   Remu,   Div,  Clear, rs2 == 0 ? rs1 : rs1 % rs2) \
    X(MULW,   Mulw,   Mul,  Clear, sext32(rs1 * rs2)) \
    X(DIVW,   Divw,   Div,  Clear, div32(rs1, rs2)) \
    X(DIVUW,  Divuw,  Div,  Clear, divu32(rs1, rs2)) \
    X(REMW,   Remw,   Div,  Clear, rem32(rs1, rs2)) \
    X(REMUW,  Remuw,  Div,  Clear, remu32(rs1, rs2))

/// Upper-immediate ops (executor kind Const, SRF rule Clear): name,
/// value of (imm, pc). Translation precomputes the value.
#define HWST_CONST_OPS(X) \
    X(LUI,   imm) \
    X(AUIPC, pc + imm)

/// Plain loads (SRF rule Clear): name, executor kind, width, sign.
#define HWST_LOAD_OPS(X) \
    X(LB,  Lb,  1, true)  \
    X(LH,  Lh,  2, true)  \
    X(LW,  Lw,  4, true)  \
    X(LD,  Ld,  8, true)  \
    X(LBU, Lbu, 1, false) \
    X(LHU, Lhu, 2, false) \
    X(LWU, Lwu, 4, false)

/// Plain stores: name, executor kind, width.
#define HWST_STORE_OPS(X) \
    X(SB, Sb, 1) \
    X(SH, Sh, 2) \
    X(SW, Sw, 4) \
    X(SD, Sd, 8)

/// SCU-fused checked loads (kind CheckedLoad): name, width, sign.
#define HWST_CHECKED_LOAD_OPS(X) \
    X(CLB,  1, true)  \
    X(CLH,  2, true)  \
    X(CLW,  4, true)  \
    X(CLD,  8, true)  \
    X(CLBU, 1, false) \
    X(CLHU, 2, false) \
    X(CLWU, 4, false)

/// SCU-fused checked stores (kind CheckedStore): name, width.
#define HWST_CHECKED_STORE_OPS(X) \
    X(CSB, 1) \
    X(CSH, 2) \
    X(CSW, 4) \
    X(CSD, 8)

/// Conditional branches: name, executor kind, taken condition.
#define HWST_BRANCH_OPS(X) \
    X(BEQ,  Beq,  rs1 == rs2) \
    X(BNE,  Bne,  rs1 != rs2) \
    X(BLT,  Blt,  static_cast<i64>(rs1) < static_cast<i64>(rs2)) \
    X(BGE,  Bge,  static_cast<i64>(rs1) >= static_cast<i64>(rs2)) \
    X(BLTU, Bltu, rs1 < rs2) \
    X(BGEU, Bgeu, rs1 >= rs2)

/// Every other op, executed by its Machine::exec/exec_hwst case or a
/// Machine member below: name, executor kind, functional unit,
/// InstrMix bucket. InterpOne ops can observe cycle/instret or reach
/// the proxy kernel, so they end a block and run through exec().
#define HWST_OTHER_OPS(X) \
    X(JAL,     Jal,       Jump, jumps)      \
    X(JALR,    Jalr,      Jump, jumps)      \
    X(FENCE,   Nop,       None, other)      \
    X(ECALL,   InterpOne, None, ecalls)     \
    X(EBREAK,  InterpOne, None, other)      \
    X(CSRRW,   InterpOne, None, alu)        \
    X(CSRRS,   InterpOne, None, alu)        \
    X(CSRRC,   InterpOne, None, alu)        \
    X(CSRRWI,  InterpOne, None, alu)        \
    X(CSRRSI,  InterpOne, None, alu)        \
    X(CSRRCI,  InterpOne, None, alu)        \
    X(BNDRS,   Bndr,      None, binds)      \
    X(BNDRT,   Bndr,      None, binds)      \
    X(SBDL,    SbdStore,  None, meta_moves) \
    X(SBDU,    SbdStore,  None, meta_moves) \
    X(LBDLS,   LbdLoad,   None, meta_moves) \
    X(LBDUS,   LbdLoad,   None, meta_moves) \
    X(LBAS,    Hwst,      None, meta_moves) \
    X(LBND,    Hwst,      None, meta_moves) \
    X(LKEY,    Hwst,      None, meta_moves) \
    X(LLOC,    Hwst,      None, meta_moves) \
    X(TCHK,    Tchk,      None, tchk)       \
    X(KBFLUSH, Hwst,      None, other)      \
    X(SRFMV,   Hwst,      None, other)      \
    X(SRFCLR,  Hwst,      None, other)

/// Superblock executor kinds in dispatch order: X(kind) for the kinds
/// several ops share, ROW(name, kind, ...) for the table rows that have
/// a kind of their own. One computed-goto label per kind; no second
/// list to keep in step.
#define HWST_SB_KIND_LIST(X, ROW) \
    X(Nop) X(Const) \
    HWST_ALU_OPS(ROW) HWST_LOAD_OPS(ROW) HWST_STORE_OPS(ROW) \
    X(CheckedLoad) X(CheckedStore) X(SbdStore) X(LbdLoad) X(Tchk) X(Bndr) \
    X(Hwst) \
    HWST_BRANCH_OPS(ROW) \
    X(Jal) X(Jalr) X(InterpOne) X(EndFall)

// clang-format on

enum class SbKind : u8 {
#define HWST_SB_ENUM(kind) kind,
#define HWST_SB_ENUM_ROW(name, kind, ...) kind,
    HWST_SB_KIND_LIST(HWST_SB_ENUM, HWST_SB_ENUM_ROW)
#undef HWST_SB_ENUM
#undef HWST_SB_ENUM_ROW
};

/// EndFall is the list's last kind.
inline constexpr unsigned kNumSbKinds =
    static_cast<unsigned>(SbKind::EndFall) + 1;

// ---- value expressions ---------------------------------------------------

namespace ops {

constexpr u64 sext32(u64 v)
{
    return static_cast<u64>(static_cast<i64>(static_cast<i32>(v)));
}
constexpr u64 sra64(u64 v, u64 sh)
{
    return static_cast<u64>(static_cast<i64>(v) >> sh);
}
constexpr u64 sra32(u64 v, u64 sh)
{
    return sext32(static_cast<u64>(static_cast<i32>(v) >> sh));
}
constexpr u64 mulh(u64 a, u64 b)
{
    return static_cast<u64>((static_cast<__int128>(static_cast<i64>(a)) *
                             static_cast<i64>(b)) >>
                            64);
}
constexpr u64 mulhsu(u64 a, u64 b)
{
    return static_cast<u64>((static_cast<__int128>(static_cast<i64>(a)) *
                             static_cast<unsigned __int128>(b)) >>
                            64);
}
constexpr u64 mulhu(u64 a, u64 b)
{
    return static_cast<u64>((static_cast<unsigned __int128>(a) *
                             static_cast<unsigned __int128>(b)) >>
                            64);
}
constexpr u64 div64(u64 rs1, u64 rs2)
{
    const i64 a = static_cast<i64>(rs1), b = static_cast<i64>(rs2);
    if (b == 0) return ~u64{0};
    if (a == std::numeric_limits<i64>::min() && b == -1) return rs1;
    return static_cast<u64>(a / b);
}
constexpr u64 rem64(u64 rs1, u64 rs2)
{
    const i64 a = static_cast<i64>(rs1), b = static_cast<i64>(rs2);
    if (b == 0) return rs1;
    if (a == std::numeric_limits<i64>::min() && b == -1) return 0;
    return static_cast<u64>(a % b);
}
constexpr u64 div32(u64 rs1, u64 rs2)
{
    const i32 a = static_cast<i32>(rs1), b = static_cast<i32>(rs2);
    if (b == 0) return ~u64{0};
    if (a == std::numeric_limits<i32>::min() && b == -1)
        return sext32(static_cast<u32>(a));
    return sext32(static_cast<u32>(a / b));
}
constexpr u64 divu32(u64 rs1, u64 rs2)
{
    const u32 a = static_cast<u32>(rs1), b = static_cast<u32>(rs2);
    return b == 0 ? ~u64{0} : sext32(a / b);
}
constexpr u64 rem32(u64 rs1, u64 rs2)
{
    const i32 a = static_cast<i32>(rs1), b = static_cast<i32>(rs2);
    if (b == 0) return sext32(static_cast<u32>(a));
    if (a == std::numeric_limits<i32>::min() && b == -1) return 0;
    return sext32(static_cast<u32>(a % b));
}
constexpr u64 remu32(u64 rs1, u64 rs2)
{
    const u32 a = static_cast<u32>(rs1), b = static_cast<u32>(rs2);
    return b == 0 ? sext32(a) : sext32(a % b);
}

// One function per row, named after its opcode: ops::ADD(rs1, rs2, imm),
// ops::LUI(imm, pc), ops::BEQ(rs1, rs2).
#define HWST_ALU_VALUE(name, kind, fu, srf, expr)                         \
    constexpr u64 name([[maybe_unused]] u64 rs1, [[maybe_unused]] u64 rs2, \
                       [[maybe_unused]] u64 imm)                           \
    {                                                                      \
        return expr;                                                       \
    }
HWST_ALU_OPS(HWST_ALU_VALUE)
#undef HWST_ALU_VALUE

#define HWST_CONST_VALUE(name, expr)                                      \
    constexpr u64 name(u64 imm, [[maybe_unused]] u64 pc) { return expr; }
HWST_CONST_OPS(HWST_CONST_VALUE)
#undef HWST_CONST_VALUE

#define HWST_BRANCH_COND(name, kind, cond)                                \
    constexpr bool name(u64 rs1, u64 rs2) { return cond; }
HWST_BRANCH_OPS(HWST_BRANCH_COND)
#undef HWST_BRANCH_COND

/// jalr's target: bit 0 of rs1 + imm cleared.
constexpr u64 jalr_target(u64 rs1, u64 imm) { return (rs1 + imm) & ~u64{1}; }

/// LMSM slot of a shadow move: sbdu/lbdus move the upper (temporal)
/// half, 8 bytes above the lower one.
constexpr u64 shadow_slot(Opcode op)
{
    return op == Opcode::SBDU || op == Opcode::LBDUS
               ? hwst::Smac::upper_slot_offset()
               : 0;
}

} // namespace ops

/// Value of a LUI/AUIPC at `pc` (translation precomputes it).
constexpr u64 const_value(Opcode op, u64 imm, u64 pc)
{
    switch (op) {
#define HWST_CONST_CASE(name, expr) \
    case Opcode::name: return ops::name(imm, pc);
        HWST_CONST_OPS(HWST_CONST_CASE)
#undef HWST_CONST_CASE
    default: return 0;
    }
}

// ---- per-opcode traits ---------------------------------------------------

/// What the tables say about one opcode, indexed by Opcode.
struct OpTraits {
    SbKind kind = SbKind::Hwst;
    Fu fu = Fu::None;
    bool folds_rd_zero = false; ///< see folds_rd_zero(SrfRule)
    u8 width = 0;               ///< memory access width (loads, stores)
    bool sign = false;          ///< loads: sign-extends
    u64 InstrMix::* bucket = nullptr;
    u8 rows = 0;                ///< table rows naming the opcode
};

constexpr std::array<OpTraits, riscv::kNumOpcodes> make_op_traits()
{
    std::array<OpTraits, riscv::kNumOpcodes> t{};
    const auto row = [&t](Opcode op, OpTraits e) {
        OpTraits& slot = t[static_cast<unsigned>(op)];
        e.rows = static_cast<u8>(slot.rows + 1);
        slot = e;
    };
#define HWST_TRAITS_ALU(name, kind, fu, srf, expr)                        \
    row(Opcode::name, {SbKind::kind, Fu::fu, folds_rd_zero(SrfRule::srf),  \
                       0, false, &InstrMix::alu});
#define HWST_TRAITS_CONST(name, expr)                                     \
    row(Opcode::name, {SbKind::Const, Fu::None, true, 0, false,          \
                       &InstrMix::alu});
#define HWST_TRAITS_LOAD(name, kind, width, sign)                         \
    row(Opcode::name,                                                     \
        {SbKind::kind, Fu::None, false, width, sign, &InstrMix::loads});
#define HWST_TRAITS_STORE(name, kind, width)                              \
    row(Opcode::name,                                                     \
        {SbKind::kind, Fu::None, false, width, false, &InstrMix::stores});
#define HWST_TRAITS_CHECKED_LOAD(name, width, sign)                       \
    row(Opcode::name, {SbKind::CheckedLoad, Fu::None, false, width, sign, \
                       &InstrMix::checked_loads});
#define HWST_TRAITS_CHECKED_STORE(name, width)                            \
    row(Opcode::name, {SbKind::CheckedStore, Fu::None, false, width,      \
                       false, &InstrMix::checked_stores});
#define HWST_TRAITS_BRANCH(name, kind, cond)                              \
    row(Opcode::name,                                                     \
        {SbKind::kind, Fu::None, false, 0, false, &InstrMix::branches});
#define HWST_TRAITS_OTHER(name, kind, fu, bucket)                         \
    row(Opcode::name,                                                     \
        {SbKind::kind, Fu::fu, false, 0, false, &InstrMix::bucket});
    HWST_ALU_OPS(HWST_TRAITS_ALU)
    HWST_CONST_OPS(HWST_TRAITS_CONST)
    HWST_LOAD_OPS(HWST_TRAITS_LOAD)
    HWST_STORE_OPS(HWST_TRAITS_STORE)
    HWST_CHECKED_LOAD_OPS(HWST_TRAITS_CHECKED_LOAD)
    HWST_CHECKED_STORE_OPS(HWST_TRAITS_CHECKED_STORE)
    HWST_BRANCH_OPS(HWST_TRAITS_BRANCH)
    HWST_OTHER_OPS(HWST_TRAITS_OTHER)
#undef HWST_TRAITS_ALU
#undef HWST_TRAITS_CONST
#undef HWST_TRAITS_LOAD
#undef HWST_TRAITS_STORE
#undef HWST_TRAITS_CHECKED_LOAD
#undef HWST_TRAITS_CHECKED_STORE
#undef HWST_TRAITS_BRANCH
#undef HWST_TRAITS_OTHER
    return t;
}

inline constexpr std::array<OpTraits, riscv::kNumOpcodes> kOpTraits =
    make_op_traits();
static_assert(std::ranges::all_of(kOpTraits,
                                  [](const OpTraits& t) { return t.rows == 1; }),
              "every Opcode needs exactly one row in the op tables");

constexpr const OpTraits& op_traits(Opcode op)
{
    return kOpTraits[static_cast<unsigned>(op)];
}

// ---- Machine op members ----------------------------------------------------

[[gnu::always_inline]] inline u64 Machine::call_probe_if_live(Probe p,
                                                              u64 value)
{
    if (probe_live(p)) [[unlikely]] {
        const u64 out = probe_hook_(p, probe_instret(), value);
        if (out != value) prefix_golden_ = false;
        return out;
    }
    return value;
}

template <bool Hooked>
[[gnu::always_inline]] inline u64 Machine::probe(Probe p, u64 value)
{
    if constexpr (Hooked) {
        last_reach_[static_cast<unsigned>(p)] = probe_instret();
        return call_probe_if_live(p, value);
    }
    return value;
}

template <bool Hooked>
[[gnu::always_inline]] inline const Machine::ActiveCompression&
Machine::compression()
{
    // active_compression()'s memo test, inlined. The CompCsrWidths
    // reach is noted here, once per metadata op, and not by the probe
    // call inside active_compression(), which not every op makes.
    if constexpr (Hooked) {
        last_reach_[static_cast<unsigned>(Probe::CompCsrWidths)] =
            probe_instret();
        if (probe_live(Probe::CompCsrWidths)) return active_compression();
    }
    if (comp_version_ == csrs_.version()) [[likely]] return comp_memo_;
    return active_compression();
}

[[gnu::always_inline]] inline Trap Machine::violation(TrapKind kind, u64 tval)
{
    csrs_.record_violation(static_cast<u64>(kind), tval);
    return Trap{kind, tval, pc_};
}

/// COMP/DECOMP cannot operate under perturbed-or-invalid field widths;
/// the op that needed them traps instead of computing garbage.
[[gnu::always_inline]] inline Trap Machine::bad_widths()
{
    return violation(TrapKind::IllegalInstruction, hwst::kCsrBitw);
}

template <SrfRule R, bool RdNonZero>
[[gnu::always_inline]] inline void Machine::write_rd(Reg rd, Reg rs1, Reg rs2,
                                                     u64 v)
{
    const bool live = RdNonZero || rd != Reg::zero;
    if constexpr (R == SrfRule::Clear || R == SrfRule::Addi) {
        if (!live) return;
        regs_[riscv::reg_index(rd)] = v;
        if constexpr (R == SrfRule::Addi) srf_.propagate(rd, rs1);
        else srf_.clear(rd);
    } else {
        if (live) regs_[riscv::reg_index(rd)] = v;
        const auto& ea = srf_.entry(rs1);
        const auto& eb = srf_.entry(rs2);
        const bool a = ea.valid_lo || ea.valid_hi;
        const bool b = eb.valid_lo || eb.valid_hi;
        if (a && !b) srf_.propagate(rd, rs1);
        else if (R == SrfRule::Add && b && !a) srf_.propagate(rd, rs2);
        else srf_.clear(rd);
    }
}

[[gnu::always_inline]] inline unsigned Machine::dcache_extra(u64 addr)
{
    return dcache_.access(addr) - cfg_.dcache.hit_cycles;
}

template <bool Hooked>
[[gnu::always_inline]] inline u64 Machine::mem_load(u64 addr, unsigned width,
                                                    bool sign_extend)
{
    cycles_ += dcache_extra(addr);
    u64 value = mem_.load(addr, width, sign_extend);
    // Fill data is the one datapath HWST metadata does not cover (the
    // paper leaves data integrity to ECC); expose it as its own probe.
    if constexpr (Hooked) {
        if (dcache_.last_access_missed())
            value = probe<true>(Probe::DcacheFillData, value);
    }
    return value;
}

[[gnu::always_inline]] inline void Machine::mem_store(u64 addr, unsigned width,
                                                      u64 value)
{
    cycles_ += dcache_extra(addr);
    // Keybuffer coherence: a key *erasure* (store of 0 into the lock
    // region — what frees do) clears the keybuffer (paper §3.5).
    // Non-zero writes mint fresh keys, which cannot be cached yet.
    if (value == 0 && addr - lock_base_ < lock_bytes_) keybuffer_.flush();
    mem_.store(addr, width, value);
}

template <bool Hooked>
[[gnu::always_inline]] inline void Machine::load(Reg rd, u64 addr,
                                                 unsigned width, bool sign)
{
    const u64 v = mem_load<Hooked>(addr, width, sign);
    write_rd<SrfRule::Clear, false>(rd, Reg::zero, Reg::zero, v);
}

/// The SCU check fused into a checked access through `ptr`.
template <bool Hooked>
[[gnu::always_inline]] inline Trap Machine::spatial_check(Reg ptr, u64 addr,
                                                          unsigned width)
{
    if (!csrs_.spatial_enabled()) [[unlikely]] return {};
    const auto& e = srf_.entry(ptr);
    // No (or cleared) spatial metadata: the access is unchecked, exactly
    // like SoftBound pointers whose provenance the analysis lost.
    if (!e.valid_lo || e.value.lo == 0) [[unlikely]] return {};
    const ActiveCompression& ac = compression<Hooked>();
    if (!ac.valid) return bad_widths();
    if (metadata::is_saturated_spatial(e.value.lo, ac.cfg)) {
        scu_.note_saturated();
        return violation(TrapKind::SpatialViolation, addr);
    }
    u64 base = 0, bound = 0;
    metadata::decompress_spatial(e.value.lo, ac.cfg, base, bound);
    if (scu_.check(addr, width, base, bound).pass) return {};
    return violation(TrapKind::SpatialViolation, addr);
}

template <bool Hooked>
[[gnu::always_inline]] inline Trap Machine::checked_load(Reg rd, Reg ptr,
                                                         u64 addr,
                                                         unsigned width,
                                                         bool sign)
{
    if (const Trap t = spatial_check<Hooked>(ptr, addr, width);
        t.kind != TrapKind::None)
        return t;
    load<Hooked>(rd, addr, width, sign);
    return {};
}

template <bool Hooked>
[[gnu::always_inline]] inline Trap Machine::checked_store(Reg ptr, u64 addr,
                                                          unsigned width,
                                                          Reg src)
{
    if (const Trap t = spatial_check<Hooked>(ptr, addr, width);
        t.kind != TrapKind::None)
        return t;
    mem_store(addr, width, reg(src));
    return {};
}

/// bndrs/bndrt: COMP compresses (a, b) — base/bound or key/lock — into
/// one half of rd's shadow register.
template <bool Hooked>
[[gnu::always_inline]] inline Trap Machine::bndr(bool temporal, Reg rd, u64 a,
                                                 u64 b)
{
    const ActiveCompression& ac = compression<Hooked>();
    if (!ac.valid) return bad_widths();
    if (temporal) {
        srf_.bind_temporal(
            rd, probe<Hooked>(Probe::SrfTemporalWrite,
                              metadata::compress_temporal(a, b, ac.cfg)));
    } else {
        srf_.bind_spatial(
            rd, probe<Hooked>(Probe::SrfSpatialWrite,
                              metadata::compress_spatial(a, b, ac.cfg)));
    }
    return {};
}

/// sbdl/sbdu: store one half of src's shadow register (0 if invalid)
/// to the LMSM slot SMAC maps `container` to.
template <bool Hooked>
[[gnu::always_inline]] inline void Machine::sbd(u64 slot, u64 container,
                                                Reg src)
{
    const auto& e = srf_.entry(src);
    const u64 addr = smac_.map(container, csrs_.sm_offset()) + slot;
    const u64 value = probe<Hooked>(
        Probe::LmsmStore, slot ? (e.valid_hi ? e.value.hi : 0)
                               : (e.valid_lo ? e.value.lo : 0));
    cycles_ += dcache_extra(addr);
    mem_.store(addr, 8, value);
}

/// lbdls/lbdus: load one LMSM slot into a half of rd's shadow register;
/// a zero slot marks the half invalid.
template <bool Hooked>
[[gnu::always_inline]] inline void Machine::lbd(u64 slot, Reg rd,
                                                u64 container)
{
    const u64 addr = smac_.map(container, csrs_.sm_offset()) + slot;
    const u64 value =
        probe<Hooked>(Probe::LmsmLoad, mem_load<Hooked>(addr, 8, false));
    if (slot) srf_.set_hi(rd, value, value != 0);
    else srf_.set_lo(rd, value, value != 0);
}

/// tchk: the TCU compares ptr's key with the one at its lock_location.
template <bool Hooked>
[[gnu::always_inline]] inline Trap Machine::tchk(Reg ptr)
{
    if (!csrs_.temporal_enabled()) [[unlikely]] return {};
    const auto& e = srf_.entry(ptr);
    if (!e.valid_hi || e.value.hi == 0) [[unlikely]] return {}; // no temporal metadata
    const ActiveCompression& ac = compression<Hooked>();
    if (!ac.valid) return bad_widths();
    // A copy: the lock decode below then stays in registers (a
    // branch-free select instead of a jump through the memo).
    const metadata::CompressionConfig cfg = ac.cfg;
    if (metadata::is_saturated_temporal(e.value.hi, cfg)) {
        tcu_.note_saturated();
        return violation(TrapKind::TemporalViolation, reg(ptr));
    }
    u64 key = 0, lock = 0;
    metadata::decompress_temporal(e.value.hi, cfg, key, lock);
    // The temporal check needs a second memory access (load the key
    // from the lock_location). A keybuffer hit elides it entirely; a
    // miss pays the full D-cache access (paper §3.5).
    u64 mem_key = 0;
    if (!cfg_.keybuffer_enabled) {
        cycles_ += dcache_.access(lock);
        mem_key = mem_.load(lock, 8, false);
    } else if (const auto hit = keybuffer_.lookup(lock)) {
        mem_key = probe<Hooked>(Probe::KeybufferLookup, *hit);
    } else {
        cycles_ += dcache_.access(lock);
        mem_key = mem_.load(lock, 8, false);
        // A fill fault corrupts what the buffer caches; the check in
        // flight still compares the freshly loaded key, so the fault
        // surfaces on a later hit (nonzero detection latency).
        keybuffer_.insert(lock, probe<Hooked>(Probe::KeybufferFill, mem_key));
    }
    if (!tcu_.check(key, mem_key).pass)
        return violation(TrapKind::TemporalViolation, lock);
    return {};
}

} // namespace hwst::sim
