// Superblock discovery + translation (see superblock.hpp). The
// translator only restates facts the interpreter would re-derive per
// retired instruction: executor kind, flattened operands, static cycle
// contribution, InstrMix bucket, intra-block load-use hazards and the
// icache fetch pattern. Per-op facts come from the op tables
// (sim/ops.hpp) and the predecoded Uop. Anything dynamic (register
// values, dcache timing, SRF state, traps) stays with the dispatcher.
#include "sim/superblock.hpp"

#include <iterator>
#include <memory>
#include <new>

#include "sim/ops.hpp"

namespace hwst::sim {

using riscv::Instruction;
using riscv::Opcode;
using riscv::Reg;

namespace {

constexpr bool is_ender_kind(SbKind k)
{
    switch (k) {
#define HWST_BRANCH_KIND(name, kind, cond) case SbKind::kind:
        HWST_BRANCH_OPS(HWST_BRANCH_KIND)
#undef HWST_BRANCH_KIND
    case SbKind::Jal: case SbKind::Jalr: case SbKind::InterpOne:
        return true;
    default:
        return false;
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

static_assert(std::size(kMixMembers) == kMixBuckets);

Superblock* SuperblockCache::get_or_translate(const TranslateEnv& env,
                                              u64 pc, DbtStats& st)
{
    if (at_.size() != env.n_uops) at_.assign(env.n_uops, nullptr);
    const u32 idx = static_cast<u32>((pc - env.text_base) >> 2);
    if (Superblock* hit = at_[idx]) return hit;

    Superblock& blk = *new (blocks_.take(1)) Superblock{};
    blk.first_uop = idx;
    scratch_.clear();

    InstrMix delta{};
    u32 cum = 0;
    u32 repeats = 0;
    Reg prev_load_rd = Reg::zero;
    u32 i = idx;
    for (;;) {
        const Uop& u = env.uops[i];
        const Instruction& in = u.in;

        const OpTraits& traits = op_traits(in.op);
        SbOp& op = scratch_.emplace_back();
        op.kind = traits.kind;
        op.pc = env.text_base + u64{i} * 4;
        op.uop_idx = i;
        op.block_pos = static_cast<u8>(i - idx);
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
        op.cum_repeat = static_cast<u8>(repeats);
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
        cum += 1 + u.fu_cycles;
        op.cum_static = cum;
        ++(delta.*u.bucket);
        prev_load_rd = u.is_load ? in.rd : Reg::zero;

        // Kind-specific operand lowering.
        switch (op.kind) {
        case SbKind::Const:
            op.aux = const_value(in.op, static_cast<u64>(in.imm), op.pc);
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
            op.width = traits.width;
            if (traits.sign) op.flags |= kOpSignedLoad;
            break;
        case SbKind::CheckedStore:
            op.width = traits.width;
            break;
        case SbKind::SbdStore:
        case SbKind::LbdLoad:
            op.aux = ops::shadow_slot(in.op);
            break;
        case SbKind::Bndr:
            // aux selects the SRF half: 0 = spatial (bndrs), 1 =
            // temporal (bndrt).
            op.aux = in.op == Opcode::BNDRT ? 1 : 0;
            break;
        default:
            break;
        }
        if (in.rd == Reg::zero && traits.folds_rd_zero) op.kind = SbKind::Nop;

        op.label = env.labels[static_cast<unsigned>(op.kind)];

        if (is_ender_kind(op.kind)) {
            blk.len = i - idx + 1;
            blk.exit_load_rd = Reg::zero; // enders are never loads
            break;
        }
        ++i;
        if (i - idx >= kMaxSuperblockLen || i >= env.n_uops) {
            blk.len = i - idx;
            blk.exit_load_rd = prev_load_rd;
            SbOp& end = scratch_.emplace_back();
            end.kind = SbKind::EndFall;
            end.pc = env.text_base + u64{i} * 4;
            end.label = env.labels[static_cast<unsigned>(SbKind::EndFall)];
            break;
        }
    }
    blk.static_cycles = cum;
    blk.repeat_fetches = repeats;
    blk.chain_len = blk.len;

    for (u64 InstrMix::* member : kMixMembers) {
        if (const u64 count = delta.*member)
            blk.mix_delta[blk.n_mix++] = {member, count};
    }
    const u32 n_ops = static_cast<u32>(scratch_.size());
    SbOp* ops = ops_.take(n_ops);
    std::uninitialized_copy_n(scratch_.data(), n_ops, ops);
    blk.ops = ops;

    at_[idx] = &blk;
    ++st.blocks;
    st.translated_ops += n_ops;
    return &blk;
}

} // namespace hwst::sim
