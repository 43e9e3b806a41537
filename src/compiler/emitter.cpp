#include "compiler/emitter.hpp"

#include "common/error.hpp"

namespace hwst::compiler {

using riscv::itype;
using riscv::rtype;
using riscv::stype;

void Ctx::frame_addr(Reg dst, i64 off)
{
    if (common::fits_signed(off, 12)) {
        emit(itype(Opcode::ADDI, dst, Reg::s0, off));
    } else {
        li(dst, off);
        emit(rtype(Opcode::ADD, dst, dst, Reg::s0));
    }
}

void Ctx::load_slot(Reg dst, i64 off)
{
    if (common::fits_signed(off, 12)) {
        emit(itype(Opcode::LD, dst, Reg::s0, off));
    } else {
        frame_addr(dst, off);
        emit(itype(Opcode::LD, dst, dst, 0));
    }
}

void Ctx::store_slot(Reg src, i64 off, Reg scratch)
{
    if (common::fits_signed(off, 12)) {
        emit(stype(Opcode::SD, Reg::s0, src, off));
    } else {
        frame_addr(scratch, off);
        emit(stype(Opcode::SD, scratch, src, 0));
    }
}

void Ctx::ecall(sim::Sys nr)
{
    li(Reg::a7, static_cast<i64>(nr));
    emit(riscv::Instruction{Opcode::ECALL});
}

void Ctx::o0_home(Reg r)
{
    if (!frame || frame->emitter_scratch_off < 0) return;
    store_slot(r, frame->emitter_scratch_off);
    load_slot(r, frame->emitter_scratch_off);
}

i64 Ctx::group_of(Value v) const
{
    if (!facts || !frame)
        throw common::ToolchainError{"Ctx::group_of outside a function"};
    const u32 root = facts->root(v);
    if (root >= frame->group_off.size() || frame->group_off[root] < 0)
        throw common::ToolchainError{"Ctx::group_of: root has no group"};
    return frame->group_off[root];
}

// ---- SafetyEmitter defaults (uninstrumented baseline) -----------------

void SafetyEmitter::malloc_wrapper(Ctx& ctx, Value)
{
    // a0 already holds the size.
    ctx.ecall(sim::Sys::Malloc);
    ctx.emit(riscv::mv(Reg::t2, Reg::a0));
}

void SafetyEmitter::free_wrapper(Ctx& ctx, Value)
{
    // a0 already holds the pointer.
    ctx.ecall(sim::Sys::Free);
}

void SafetyEmitter::emit_runtime(Ctx& ctx)
{
    auto& prog = ctx.prog();
    const bool checked = checked_mem();
    const Opcode ld8 = checked ? Opcode::CLD : Opcode::LD;
    const Opcode sd8 = checked ? Opcode::CSD : Opcode::SD;
    const Opcode lb = checked ? Opcode::CLBU : Opcode::LBU;
    const Opcode sb = checked ? Opcode::CSB : Opcode::SB;

    // rt_memcpy(a0 = dst, a1 = src, a2 = len). Word loop + byte tail;
    // per-word metadata propagation via the scheme hook (through-memory
    // propagation also happens for data moved by libc-style helpers).
    const riscv::Label memcpy_word = prog.new_label();
    const riscv::Label memcpy_byte = prog.new_label();
    const riscv::Label memcpy_done = prog.new_label();
    prog.label("rt_memcpy");
    ctx.emit(riscv::mv(Reg::t0, Reg::a0)); // dst cursor (SRF follows)
    ctx.emit(riscv::mv(Reg::t1, Reg::a1)); // src cursor (SRF follows)
    ctx.emit(riscv::mv(Reg::t5, Reg::a2)); // remaining
    prog.bind(memcpy_word);
    ctx.emit(itype(Opcode::ADDI, Reg::t6, Reg::zero, 8));
    prog.emit_branch(Opcode::BLT, Reg::t5, Reg::t6, memcpy_byte);
    ctx.emit(itype(ld8, Reg::t3, Reg::t1, 0));
    ctx.emit(stype(sd8, Reg::t0, Reg::t3, 0));
    copy_word_metadata(ctx, Reg::t0, Reg::t1);
    ctx.emit(itype(Opcode::ADDI, Reg::t0, Reg::t0, 8));
    ctx.emit(itype(Opcode::ADDI, Reg::t1, Reg::t1, 8));
    ctx.emit(itype(Opcode::ADDI, Reg::t5, Reg::t5, -8));
    prog.emit_jal(Reg::zero, memcpy_word);
    prog.bind(memcpy_byte);
    prog.emit_branch(Opcode::BEQ, Reg::t5, Reg::zero, memcpy_done);
    ctx.emit(itype(lb, Reg::t3, Reg::t1, 0));
    ctx.emit(stype(sb, Reg::t0, Reg::t3, 0));
    ctx.emit(itype(Opcode::ADDI, Reg::t0, Reg::t0, 1));
    ctx.emit(itype(Opcode::ADDI, Reg::t1, Reg::t1, 1));
    ctx.emit(itype(Opcode::ADDI, Reg::t5, Reg::t5, -1));
    prog.emit_jal(Reg::zero, memcpy_byte);
    prog.bind(memcpy_done);
    prog.emit_ret();

    // rt_memset(a0 = dst, a1 = byte, a2 = len). Byte loop with per-word
    // metadata invalidation (a memset over pointer containers kills
    // their metadata, as it must).
    const riscv::Label memset_word = prog.new_label();
    const riscv::Label memset_byte = prog.new_label();
    const riscv::Label memset_done = prog.new_label();
    prog.label("rt_memset");
    ctx.emit(riscv::mv(Reg::t0, Reg::a0));
    ctx.emit(riscv::mv(Reg::t5, Reg::a2));
    prog.bind(memset_word);
    ctx.emit(itype(Opcode::ADDI, Reg::t6, Reg::zero, 8));
    prog.emit_branch(Opcode::BLT, Reg::t5, Reg::t6, memset_byte);
    // Replicate the byte across the word in t3.
    ctx.emit(itype(Opcode::ANDI, Reg::t3, Reg::a1, 0xFF));
    ctx.emit(itype(Opcode::SLLI, Reg::t4, Reg::t3, 8));
    ctx.emit(rtype(Opcode::OR, Reg::t3, Reg::t3, Reg::t4));
    ctx.emit(itype(Opcode::SLLI, Reg::t4, Reg::t3, 16));
    ctx.emit(rtype(Opcode::OR, Reg::t3, Reg::t3, Reg::t4));
    ctx.emit(itype(Opcode::SLLI, Reg::t4, Reg::t3, 32));
    ctx.emit(rtype(Opcode::OR, Reg::t3, Reg::t3, Reg::t4));
    ctx.emit(stype(sd8, Reg::t0, Reg::t3, 0));
    clear_word_metadata(ctx, Reg::t0);
    ctx.emit(itype(Opcode::ADDI, Reg::t0, Reg::t0, 8));
    ctx.emit(itype(Opcode::ADDI, Reg::t5, Reg::t5, -8));
    prog.emit_jal(Reg::zero, memset_word);
    prog.bind(memset_byte);
    prog.emit_branch(Opcode::BEQ, Reg::t5, Reg::zero, memset_done);
    ctx.emit(stype(sb, Reg::t0, Reg::a1, 0));
    ctx.emit(itype(Opcode::ADDI, Reg::t0, Reg::t0, 1));
    ctx.emit(itype(Opcode::ADDI, Reg::t5, Reg::t5, -1));
    prog.emit_jal(Reg::zero, memset_byte);
    prog.bind(memset_done);
    prog.emit_ret();
}

} // namespace hwst::compiler
