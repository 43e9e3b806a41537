// Superblock discovery + translation (see superblock.hpp). The
// translator only restates facts the interpreter would re-derive per
// retired instruction: executor kind, flattened operands, static cycle
// contribution, InstrMix bucket, intra-block load-use hazards and the
// icache fetch pattern. Anything dynamic (register values, dcache
// timing, SRF state, traps) stays with the dispatcher.
#include "sim/superblock.hpp"

#include "sim/machine.hpp"

namespace hwst::sim {

using riscv::Instruction;
using riscv::Opcode;
using riscv::Reg;

namespace {

/// Per-opcode static cycle cost on top of the base 1 cycle: the
/// functional-unit extras exec() adds unconditionally, plus the
/// always-taken penalty of unconditional jumps. Conditional-branch
/// penalties, csr_extra, ecall_cost and D-cache extras stay dynamic.
unsigned static_cycle_extra(Opcode op, const TranslateEnv& env)
{
    switch (op) {
    case Opcode::MUL: case Opcode::MULH: case Opcode::MULHSU:
    case Opcode::MULHU: case Opcode::MULW:
        return env.mul_extra;
    case Opcode::DIV: case Opcode::DIVU: case Opcode::REM:
    case Opcode::REMU: case Opcode::DIVW: case Opcode::DIVUW:
    case Opcode::REMW: case Opcode::REMUW:
        return env.div_extra;
    case Opcode::JAL: case Opcode::JALR:
        return env.branch_taken_penalty;
    default:
        return 0;
    }
}

constexpr bool is_ender_kind(SbKind k)
{
    switch (k) {
    case SbKind::Beq: case SbKind::Bne: case SbKind::Blt:
    case SbKind::Bge: case SbKind::Bltu: case SbKind::Bgeu:
    case SbKind::Jal: case SbKind::Jalr: case SbKind::InterpOne:
        return true;
    default:
        return false;
    }
}

/// rd==zero folds these to Nop: the register write is suppressed and
/// srf_effects' default clear(rd) is guarded by rd != zero, so the op
/// has no architectural effect beyond its (statically folded) cycle and
/// mix contribution. ADD/SUB are excluded — their srf propagation rule
/// ends in an *unguarded* clear(rd), which mutates SRF entry 0.
constexpr bool foldable_when_rd_zero(SbKind k)
{
    switch (k) {
    case SbKind::Const: case SbKind::Addi: case SbKind::Slti:
    case SbKind::Sltiu: case SbKind::Xori: case SbKind::Ori:
    case SbKind::Andi: case SbKind::Slli: case SbKind::Srli:
    case SbKind::Srai: case SbKind::Addiw: case SbKind::Slliw:
    case SbKind::Srliw: case SbKind::Sraiw: case SbKind::Sll:
    case SbKind::Slt: case SbKind::Sltu: case SbKind::Xor:
    case SbKind::Srl: case SbKind::Sra: case SbKind::Or:
    case SbKind::And: case SbKind::Addw: case SbKind::Subw:
    case SbKind::Sllw: case SbKind::Srlw: case SbKind::Sraw:
    case SbKind::Mul: case SbKind::Mulh: case SbKind::Mulhsu:
    case SbKind::Mulhu: case SbKind::Div: case SbKind::Divu:
    case SbKind::Rem: case SbKind::Remu: case SbKind::Mulw:
    case SbKind::Divw: case SbKind::Divuw: case SbKind::Remw:
    case SbKind::Remuw:
        return true;
    default:
        return false;
    }
}

SbKind kind_for(Opcode op)
{
    switch (op) {
    case Opcode::LUI: case Opcode::AUIPC: return SbKind::Const;
    case Opcode::ADDI: return SbKind::Addi;
    case Opcode::SLTI: return SbKind::Slti;
    case Opcode::SLTIU: return SbKind::Sltiu;
    case Opcode::XORI: return SbKind::Xori;
    case Opcode::ORI: return SbKind::Ori;
    case Opcode::ANDI: return SbKind::Andi;
    case Opcode::SLLI: return SbKind::Slli;
    case Opcode::SRLI: return SbKind::Srli;
    case Opcode::SRAI: return SbKind::Srai;
    case Opcode::ADDIW: return SbKind::Addiw;
    case Opcode::SLLIW: return SbKind::Slliw;
    case Opcode::SRLIW: return SbKind::Srliw;
    case Opcode::SRAIW: return SbKind::Sraiw;
    case Opcode::ADD: return SbKind::Add;
    case Opcode::SUB: return SbKind::Sub;
    case Opcode::SLL: return SbKind::Sll;
    case Opcode::SLT: return SbKind::Slt;
    case Opcode::SLTU: return SbKind::Sltu;
    case Opcode::XOR: return SbKind::Xor;
    case Opcode::SRL: return SbKind::Srl;
    case Opcode::SRA: return SbKind::Sra;
    case Opcode::OR: return SbKind::Or;
    case Opcode::AND: return SbKind::And;
    case Opcode::ADDW: return SbKind::Addw;
    case Opcode::SUBW: return SbKind::Subw;
    case Opcode::SLLW: return SbKind::Sllw;
    case Opcode::SRLW: return SbKind::Srlw;
    case Opcode::SRAW: return SbKind::Sraw;
    case Opcode::MUL: return SbKind::Mul;
    case Opcode::MULH: return SbKind::Mulh;
    case Opcode::MULHSU: return SbKind::Mulhsu;
    case Opcode::MULHU: return SbKind::Mulhu;
    case Opcode::DIV: return SbKind::Div;
    case Opcode::DIVU: return SbKind::Divu;
    case Opcode::REM: return SbKind::Rem;
    case Opcode::REMU: return SbKind::Remu;
    case Opcode::MULW: return SbKind::Mulw;
    case Opcode::DIVW: return SbKind::Divw;
    case Opcode::DIVUW: return SbKind::Divuw;
    case Opcode::REMW: return SbKind::Remw;
    case Opcode::REMUW: return SbKind::Remuw;
    case Opcode::LB: return SbKind::Lb;
    case Opcode::LH: return SbKind::Lh;
    case Opcode::LW: return SbKind::Lw;
    case Opcode::LD: return SbKind::Ld;
    case Opcode::LBU: return SbKind::Lbu;
    case Opcode::LHU: return SbKind::Lhu;
    case Opcode::LWU: return SbKind::Lwu;
    case Opcode::SB: return SbKind::Sb;
    case Opcode::SH: return SbKind::Sh;
    case Opcode::SW: return SbKind::Sw;
    case Opcode::SD: return SbKind::Sd;
    case Opcode::CLB: case Opcode::CLH: case Opcode::CLW: case Opcode::CLD:
    case Opcode::CLBU: case Opcode::CLHU: case Opcode::CLWU:
        return SbKind::CheckedLoad;
    case Opcode::CSB: case Opcode::CSH: case Opcode::CSW: case Opcode::CSD:
        return SbKind::CheckedStore;
    // FENCE retires with no architectural effect (and srf_effects
    // exempts it), so its executor is the batched no-op.
    case Opcode::FENCE: return SbKind::Nop;
    case Opcode::BEQ: return SbKind::Beq;
    case Opcode::BNE: return SbKind::Bne;
    case Opcode::BLT: return SbKind::Blt;
    case Opcode::BGE: return SbKind::Bge;
    case Opcode::BLTU: return SbKind::Bltu;
    case Opcode::BGEU: return SbKind::Bgeu;
    case Opcode::JAL: return SbKind::Jal;
    case Opcode::JALR: return SbKind::Jalr;
    // CSR ops can read the cycle/instret counters, ecall/ebreak reach
    // the proxy kernel: all must observe fully-batched counters and end
    // the block, executed through the generic exec() path.
    case Opcode::ECALL: case Opcode::EBREAK:
    case Opcode::CSRRW: case Opcode::CSRRS: case Opcode::CSRRC:
    case Opcode::CSRRWI: case Opcode::CSRRSI: case Opcode::CSRRCI:
        return SbKind::InterpOne;
    // The hot HWST metadata ops (the bulk of every instrumented
    // scheme's overhead) get dedicated inline executors; srf_effects is
    // a no-op for all of them.
    case Opcode::SBDL: case Opcode::SBDU: return SbKind::SbdStore;
    case Opcode::LBDLS: case Opcode::LBDUS: return SbKind::LbdLoad;
    case Opcode::TCHK: return SbKind::Tchk;
    case Opcode::BNDRS: case Opcode::BNDRT: return SbKind::Bndr;
    // Every remaining HWST custom op (binds, srf moves, kbflush,
    // metadata queries) runs through exec_hwst + generic srf_effects;
    // unknown opcodes land there too and trap IllegalInstruction,
    // exactly like the interpreter's default case.
    default:
        return SbKind::Hwst;
    }
}

constexpr u64 InstrMix::* kMixMembers[] = {
    &InstrMix::alu,           &InstrMix::loads,
    &InstrMix::stores,        &InstrMix::checked_loads,
    &InstrMix::checked_stores, &InstrMix::meta_moves,
    &InstrMix::binds,         &InstrMix::tchk,
    &InstrMix::branches,      &InstrMix::jumps,
    &InstrMix::ecalls,        &InstrMix::other,
};

} // namespace

Superblock* SuperblockCache::get_or_translate(const TranslateEnv& env,
                                              u64 pc, DbtStats& st)
{
    if (at_.size() != env.n_uops) at_.assign(env.n_uops, nullptr);
    const u32 idx = static_cast<u32>((pc - env.text_base) >> 2);
    if (Superblock* hit = at_[idx]) return hit;

    auto blk = std::make_unique<Superblock>();
    blk->pc0 = pc;
    blk->first_uop = idx;

    InstrMix delta{};
    u32 cum = 0;
    u32 repeats = 0;
    Reg prev_load_rd = Reg::zero;
    u32 i = idx;
    for (;;) {
        const Uop& u = env.uops[i];
        const Instruction& in = u.in;

        SbOp op{};
        op.kind = kind_for(in.op);
        op.pc = env.text_base + u64{i} * 4;
        op.uop_idx = i;
        op.block_pos = static_cast<u16>(i - idx);
        op.rd = static_cast<u8>(in.rd);
        op.rs1 = static_cast<u8>(in.rs1);
        op.rs2 = static_cast<u8>(in.rs2);
        op.imm = in.imm;

        if (env.icache_on) {
            if (i == idx || op.pc % env.icache_line == 0) {
                op.flags |= kOpFetchFull;
            } else {
                op.flags |= kOpFetchRepeat;
                ++repeats;
            }
        }
        op.cum_repeat = static_cast<u16>(repeats);
        // Load-use hazard: only op 0's producer is outside the block
        // and needs a dynamic check; every later pair is static.
        if (i == idx) {
            op.flags |= kOpHazDyn;
            if (u.reads_rs1) op.flags |= kOpReadsRs1;
            if (u.reads_rs2) op.flags |= kOpReadsRs2;
        } else if (prev_load_rd != Reg::zero &&
                   ((u.reads_rs1 && in.rs1 == prev_load_rd) ||
                    (u.reads_rs2 && in.rs2 == prev_load_rd))) {
            cum += env.load_use_stall;
        }
        cum += 1 + static_cycle_extra(in.op, env);
        op.cum_static = cum;
        ++(delta.*u.bucket);
        prev_load_rd = u.is_load ? in.rd : Reg::zero;

        // Kind-specific operand lowering.
        switch (op.kind) {
        case SbKind::Const:
            op.aux = in.op == Opcode::AUIPC
                         ? op.pc + static_cast<u64>(in.imm)
                         : static_cast<u64>(in.imm);
            break;
        case SbKind::Beq: case SbKind::Bne: case SbKind::Blt:
        case SbKind::Bge: case SbKind::Bltu: case SbKind::Bgeu:
            op.imm = static_cast<i64>(op.pc + static_cast<u64>(in.imm));
            break;
        case SbKind::Jal:
            op.imm = static_cast<i64>(op.pc + static_cast<u64>(in.imm));
            op.aux = op.pc + 4;
            break;
        case SbKind::Jalr:
            op.aux = op.pc + 4;
            break;
        case SbKind::CheckedLoad:
            op.width = static_cast<u8>(riscv::mem_width(in.op));
            if (in.op == Opcode::CLB || in.op == Opcode::CLH ||
                in.op == Opcode::CLW || in.op == Opcode::CLD)
                op.flags |= kOpSignedLoad;
            break;
        case SbKind::CheckedStore:
            op.width = static_cast<u8>(riscv::mem_width(in.op));
            break;
        case SbKind::SbdStore:
        case SbKind::LbdLoad:
            // Upper-half variants address the high LMSM slot.
            op.aux = (in.op == Opcode::SBDU || in.op == Opcode::LBDUS)
                         ? hwst::Smac::upper_slot_offset()
                         : 0;
            break;
        case SbKind::Bndr:
            // aux selects the SRF half: 0 = spatial (bndrs), 1 =
            // temporal (bndrt).
            op.aux = in.op == Opcode::BNDRT ? 1 : 0;
            break;
        default:
            break;
        }
        if (in.rd == Reg::zero && foldable_when_rd_zero(op.kind))
            op.kind = SbKind::Nop;

        blk->ops.push_back(op);

        if (is_ender_kind(op.kind)) {
            blk->len = i - idx + 1;
            blk->exit_load_rd = Reg::zero; // enders are never loads
            break;
        }
        ++i;
        if (i - idx >= kMaxSuperblockLen || i >= env.n_uops) {
            blk->len = i - idx;
            blk->exit_load_rd = prev_load_rd;
            SbOp end{};
            end.kind = SbKind::EndFall;
            end.pc = env.text_base + u64{i} * 4;
            blk->ops.push_back(end);
            break;
        }
    }
    blk->static_cycles = cum;
    blk->repeat_fetches = repeats;
    blk->chain_len = blk->len;

    for (u64 InstrMix::* member : kMixMembers) {
        if (const u64 count = delta.*member)
            blk->mix_delta.emplace_back(member, count);
    }
    for (SbOp& o : blk->ops)
        o.label = env.labels[static_cast<unsigned>(o.kind)];

    Superblock* raw = blk.get();
    at_[idx] = raw;
    blocks_.push_back(std::move(blk));
    ++st.blocks;
    return raw;
}

} // namespace hwst::sim
