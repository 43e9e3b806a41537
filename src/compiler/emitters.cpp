#include "compiler/emitters.hpp"

#include "common/error.hpp"
#include "hwst/csr.hpp"
#include "metadata/compress.hpp"

namespace hwst::compiler {

using riscv::csri_op;
using riscv::csr_op;
using riscv::itype;
using riscv::mv;
using riscv::rtype;
using riscv::stype;

namespace {

/// Copy `bytes` (multiple of 8) from [src+0..] to [dst+0..] via scratch.
void copy_block(Ctx& ctx, Reg src_addr, Reg dst_addr, i64 bytes, Reg scratch,
                bool o0_home = false)
{
    for (i64 k = 0; k < bytes; k += 8) {
        ctx.emit(itype(Opcode::LD, scratch, src_addr, k));
        if (o0_home) ctx.o0_home(scratch);
        ctx.emit(stype(Opcode::SD, dst_addr, scratch, k));
    }
}

/// Number of pointer-typed arguments of a call.
std::size_t count_ptr_args(Ctx& ctx, const mir::Instr& call)
{
    std::size_t n = 0;
    for (const Value arg : call.args)
        if (ctx.fn->value_type(arg) == mir::Ty::Ptr) ++n;
    return n;
}

/// CETS stack-lock push: grab a lock_location from the stack side of
/// the lock region, mint a key from the stack-key counter, and store
/// both into the frame slots — a handful of inline instructions, like
/// the CETS runtime's lock-stack fast path (no kernel round trip).
void frame_lock_push(Ctx& ctx)
{
    const i64 cursor = static_cast<i64>(ctx.layout().lock_base + 16);
    ctx.li(Reg::t6, cursor);
    ctx.emit(itype(Opcode::LD, Reg::t3, Reg::t6, 0)); // lock cursor
    ctx.emit(itype(Opcode::ADDI, Reg::t4, Reg::t3, -8));
    ctx.emit(stype(Opcode::SD, Reg::t6, Reg::t4, 0)); // push
    ctx.emit(itype(Opcode::LD, Reg::t5, Reg::t6, 8)); // key counter
    ctx.emit(itype(Opcode::ADDI, Reg::t4, Reg::t5, 1));
    ctx.emit(stype(Opcode::SD, Reg::t6, Reg::t4, 8));
    ctx.emit(stype(Opcode::SD, Reg::t3, Reg::t5, 0)); // key -> lock_loc
    ctx.store_slot(Reg::t3, ctx.frame->frame_lock_off);
    ctx.store_slot(Reg::t5, ctx.frame->frame_lock_off + 8);
}

/// CETS stack-lock pop: erase the frame key (this is the zero store
/// the keybuffer snoops) and recycle the lock_location.
void frame_lock_pop(Ctx& ctx)
{
    ctx.load_slot(Reg::t3, ctx.frame->frame_lock_off);
    ctx.emit(stype(Opcode::SD, Reg::t3, Reg::zero, 0)); // erase key
    ctx.li(Reg::t6, static_cast<i64>(ctx.layout().lock_base + 16));
    ctx.emit(itype(Opcode::LD, Reg::t4, Reg::t6, 0));
    ctx.emit(itype(Opcode::ADDI, Reg::t4, Reg::t4, 8));
    ctx.emit(stype(Opcode::SD, Reg::t6, Reg::t4, 0)); // pop
}

} // namespace

// ===================== SbcetsEmitter (+ BOGO model) =====================

void SbcetsEmitter::sw_map(Ctx& ctx, Reg dst, Reg addr_reg) const
{
    if (!opts_.trie) {
        // Linear <<2 map (BOGO/MPX hardware-walk model, trie ablation).
        ctx.emit(itype(Opcode::SLLI, dst, addr_reg, 2));
        ctx.emit(rtype(Opcode::ADD, dst, dst, Ctx::kMapBase));
        return;
    }
    // Two-level trie walk (SoftBound): L1[addr >> 22] is the L2 table;
    // the record lives at L2 + (addr[21:3]) * 32. One dependent load —
    // the software baseline's key cost the LMSM+SMAC removes.
    ctx.emit(itype(Opcode::SRLI, dst, addr_reg, 22));
    ctx.emit(itype(Opcode::SLLI, dst, dst, 3));
    ctx.emit(rtype(Opcode::ADD, dst, dst, Ctx::kMapBase));
    ctx.emit(itype(Opcode::LD, dst, dst, 0));
    ctx.li(Reg::t4, 0x3FFFF8); // addr[21:3]
    ctx.emit(rtype(Opcode::AND, Reg::t4, addr_reg, Reg::t4));
    ctx.emit(itype(Opcode::SLLI, Reg::t4, Reg::t4, 2)); // ×32 / 8
    ctx.emit(rtype(Opcode::ADD, dst, dst, Reg::t4));
}

void SbcetsEmitter::program_start(Ctx& ctx)
{
    const auto& lay = ctx.layout();
    ctx.li(Ctx::kMapBase, static_cast<i64>(lay.sw_meta_offset));
    ctx.li(Ctx::kShadowArgSp,
           static_cast<i64>(lay.sw_arg_base + lay.sw_arg_size - 64));
}

void SbcetsEmitter::function_entry(Ctx& ctx)
{
    if (ctx.frame->frame_lock_off >= 0) frame_lock_push(ctx);
    // Copy incoming pointer-arg metadata from the shadow arg stack into
    // the param groups.
    std::size_t j = 0;
    for (std::size_t i = 0; i < ctx.fn->params().size(); ++i) {
        if (ctx.fn->params()[i] != mir::Ty::Ptr) continue;
        ctx.emit(itype(Opcode::ADDI, Reg::t5, Ctx::kShadowArgSp,
                       static_cast<i64>(32 * (j + 1))));
        ctx.frame_addr(Reg::t6, ctx.frame->param_group[i]);
        copy_block(ctx, Reg::t5, Reg::t6, meta_bytes(), Reg::t3);
        ++j;
    }
}

void SbcetsEmitter::function_exit(Ctx& ctx)
{
    // Erase the frame key: every pointer into this frame dangles now
    // (use-after-return protection), then recycle the lock_location.
    if (ctx.frame->frame_lock_off >= 0) frame_lock_pop(ctx);
}

void SbcetsEmitter::bind_alloca(Ctx& ctx, Reg r, u32 alloca_index, Value v)
{
    const i64 size =
        static_cast<i64>(ctx.fn->allocas()[alloca_index].size);
    ctx.frame_addr(Reg::t6, ctx.group_of(v));
    ctx.emit(stype(Opcode::SD, Reg::t6, r, 0)); // base
    if (common::fits_signed(size, 12)) {
        ctx.emit(itype(Opcode::ADDI, Reg::t4, r, size));
    } else {
        ctx.li(Reg::t4, size);
        ctx.emit(rtype(Opcode::ADD, Reg::t4, Reg::t4, r));
    }
    ctx.emit(stype(Opcode::SD, Reg::t6, Reg::t4, 8)); // bound
    if (!opts_.temporal) return;
    if (ctx.frame->frame_lock_off >= 0) {
        ctx.load_slot(Reg::t4, ctx.frame->frame_lock_off + 8); // key
        ctx.emit(stype(Opcode::SD, Reg::t6, Reg::t4, 16));
        ctx.load_slot(Reg::t4, ctx.frame->frame_lock_off); // lock
        ctx.emit(stype(Opcode::SD, Reg::t6, Reg::t4, 24));
    } else {
        ctx.li(Reg::t4, mem::LockAllocator::kGlobalKey);
        ctx.emit(stype(Opcode::SD, Reg::t6, Reg::t4, 16));
        ctx.li(Reg::t4, static_cast<i64>(ctx.global_lock_addr()));
        ctx.emit(stype(Opcode::SD, Reg::t6, Reg::t4, 24));
    }
}

void SbcetsEmitter::bind_global(Ctx& ctx, Reg r, u32 global_index, Value v)
{
    const u64 addr = (*ctx.global_addr)[global_index];
    const u64 size = (*ctx.global_size)[global_index];
    ctx.frame_addr(Reg::t6, ctx.group_of(v));
    ctx.emit(stype(Opcode::SD, Reg::t6, r, 0));
    ctx.li(Reg::t4, static_cast<i64>(addr + size));
    ctx.emit(stype(Opcode::SD, Reg::t6, Reg::t4, 8));
    if (!opts_.temporal) return;
    ctx.li(Reg::t4, mem::LockAllocator::kGlobalKey);
    ctx.emit(stype(Opcode::SD, Reg::t6, Reg::t4, 16));
    ctx.li(Reg::t4, static_cast<i64>(ctx.global_lock_addr()));
    ctx.emit(stype(Opcode::SD, Reg::t6, Reg::t4, 24));
}

void SbcetsEmitter::bind_null(Ctx& ctx, Reg, Value v)
{
    // base = bound = 0 (spatial check skips), key = 0 with the global
    // lock: the temporal check fails on any dereference — this is how
    // SBCETS flags CWE476/CWE690 (DESIGN.md §5).
    ctx.frame_addr(Reg::t6, ctx.group_of(v));
    ctx.emit(stype(Opcode::SD, Reg::t6, Reg::zero, 0));
    ctx.emit(stype(Opcode::SD, Reg::t6, Reg::zero, 8));
    if (!opts_.temporal) return;
    ctx.emit(stype(Opcode::SD, Reg::t6, Reg::zero, 16));
    ctx.li(Reg::t4, static_cast<i64>(ctx.global_lock_addr()));
    ctx.emit(stype(Opcode::SD, Reg::t6, Reg::t4, 24));
}

void SbcetsEmitter::bind_laundered(Ctx& ctx, Reg, Value v)
{
    // No provenance: all-zero metadata, checks skip (coverage loss by
    // design — the int<->ptr idioms of the Juliet suite).
    ctx.frame_addr(Reg::t6, ctx.group_of(v));
    for (i64 k = 0; k < meta_bytes(); k += 8)
        ctx.emit(stype(Opcode::SD, Reg::t6, Reg::zero, k));
}

void SbcetsEmitter::ptr_loaded(Ctx& ctx, Reg, Reg src_addr, Value v)
{
    sw_map(ctx, Reg::t5, src_addr);
    ctx.frame_addr(Reg::t6, ctx.group_of(v));
    copy_block(ctx, Reg::t5, Reg::t6, meta_bytes(), Reg::t3, opts_.o0_cost);
}

void SbcetsEmitter::ptr_stored(Ctx& ctx, Reg, Reg dst_addr, Value v)
{
    ctx.frame_addr(Reg::t5, ctx.group_of(v));
    sw_map(ctx, Reg::t6, dst_addr);
    copy_block(ctx, Reg::t5, Reg::t6, meta_bytes(), Reg::t3, opts_.o0_cost);
}

void SbcetsEmitter::deref_check(Ctx& ctx, Reg ptr, unsigned width, bool,
                                Value v)
{
    const riscv::Label skip = ctx.fresh_label();
    const riscv::Label tmp_chk = ctx.fresh_label();
    const riscv::Label viol_s = ctx.fresh_label();

    ctx.frame_addr(Reg::t6, ctx.group_of(v));
    ctx.emit(itype(Opcode::LD, Reg::t4, Reg::t6, 8)); // bound
    if (opts_.o0_cost) ctx.o0_home(Reg::t4);
    // bound == 0: no *spatial* metadata — the temporal check is still
    // performed (a null pointer has key-0 temporal metadata).
    ctx.prog().emit_branch(Opcode::BEQ, Reg::t4, Reg::zero, tmp_chk);
    ctx.emit(itype(Opcode::LD, Reg::t3, Reg::t6, 0)); // base
    if (opts_.o0_cost) ctx.o0_home(Reg::t3);
    ctx.prog().emit_branch(Opcode::BLTU, ptr, Reg::t3, viol_s);
    ctx.emit(itype(Opcode::ADDI, Reg::t5, ptr, static_cast<i64>(width)));
    if (opts_.o0_cost) ctx.o0_home(Reg::t5);
    ctx.prog().emit_branch(Opcode::BLTU, Reg::t4, Reg::t5, viol_s);
    ctx.prog().bind(tmp_chk);

    if (opts_.temporal) {
        ctx.emit(itype(Opcode::LD, Reg::t5, Reg::t6, 24)); // lock
        if (opts_.o0_cost) ctx.o0_home(Reg::t5);
        ctx.prog().emit_branch(Opcode::BEQ, Reg::t5, Reg::zero, skip);
        ctx.emit(itype(Opcode::LD, Reg::t3, Reg::t5, 0));  // key @ lock
        if (opts_.o0_cost) ctx.o0_home(Reg::t3);
        ctx.emit(itype(Opcode::LD, Reg::t4, Reg::t6, 16)); // pointer key
        if (opts_.o0_cost) ctx.o0_home(Reg::t4);
        ctx.prog().emit_branch(Opcode::BEQ, Reg::t3, Reg::t4, skip);
        // temporal violation stub (falls through from the bne above)
        ctx.emit(mv(Reg::a1, ptr));
        ctx.li(Reg::a0, 1);
        ctx.ecall(sim::Sys::SoftViolation);
    } else {
        ctx.prog().emit_jal(Reg::zero, skip);
    }
    ctx.prog().bind(viol_s);
    ctx.emit(mv(Reg::a1, ptr));
    ctx.li(Reg::a0, 0);
    ctx.ecall(sim::Sys::SoftViolation);
    ctx.prog().bind(skip);
}

void SbcetsEmitter::before_call(Ctx& ctx, const mir::Instr& call)
{
    const i64 frame = 32 * (static_cast<i64>(count_ptr_args(ctx, call)) + 1);
    ctx.emit(itype(Opcode::ADDI, Ctx::kShadowArgSp, Ctx::kShadowArgSp,
                   -frame));
    std::size_t j = 0;
    for (const Value arg : call.args) {
        if (ctx.fn->value_type(arg) != mir::Ty::Ptr) continue;
        ctx.frame_addr(Reg::t5, ctx.group_of(arg));
        ctx.emit(itype(Opcode::ADDI, Reg::t6, Ctx::kShadowArgSp,
                       static_cast<i64>(32 * (j + 1))));
        copy_block(ctx, Reg::t5, Reg::t6, meta_bytes(), Reg::t3);
        ++j;
    }
}

void SbcetsEmitter::after_call(Ctx& ctx, const mir::Instr& call)
{
    if (call.ty == mir::Ty::Ptr) {
        ctx.frame_addr(Reg::t6, ctx.group_of(call.result));
        copy_block(ctx, Ctx::kShadowArgSp, Reg::t6, meta_bytes(), Reg::t3);
    }
    const i64 frame = 32 * (static_cast<i64>(count_ptr_args(ctx, call)) + 1);
    ctx.emit(itype(Opcode::ADDI, Ctx::kShadowArgSp, Ctx::kShadowArgSp,
                   frame));
}

void SbcetsEmitter::ret_ptr(Ctx& ctx, Value v)
{
    ctx.frame_addr(Reg::t5, ctx.group_of(v));
    copy_block(ctx, Reg::t5, Ctx::kShadowArgSp, meta_bytes(), Reg::t3);
}

void SbcetsEmitter::malloc_wrapper(Ctx& ctx, Value result)
{
    // a0 = size (also in t3). The wrapper: allocate, mint key+lock, and
    // bind metadata; a failed allocation binds key 0 so any use of the
    // null result fails the temporal check (CWE690 mechanism).
    ctx.ecall(sim::Sys::Malloc);
    ctx.emit(mv(Reg::t2, Reg::a0));
    if (opts_.temporal) {
        ctx.ecall(sim::Sys::LockAlloc); // a0 = lock, a1 = key
        const riscv::Label ok = ctx.fresh_label();
        ctx.prog().emit_branch(Opcode::BNE, Reg::t2, Reg::zero, ok);
        ctx.li(Reg::a1, 0);
        ctx.prog().bind(ok);
    }
    ctx.frame_addr(Reg::t6, ctx.group_of(result));
    ctx.emit(stype(Opcode::SD, Reg::t6, Reg::t2, 0)); // base
    ctx.emit(rtype(Opcode::ADD, Reg::t4, Reg::t2, Reg::t3));
    ctx.emit(stype(Opcode::SD, Reg::t6, Reg::t4, 8)); // bound
    if (opts_.temporal) {
        ctx.emit(stype(Opcode::SD, Reg::t6, Reg::a1, 16)); // key
        ctx.emit(stype(Opcode::SD, Reg::t6, Reg::a0, 24)); // lock
    }
}

void SbcetsEmitter::free_wrapper(Ctx& ctx, Value operand)
{
    const riscv::Label plain = ctx.fresh_label();
    const riscv::Label viol = ctx.fresh_label();
    const riscv::Label done = ctx.fresh_label();

    ctx.frame_addr(Reg::t6, ctx.group_of(operand));
    if (opts_.temporal) {
        ctx.emit(itype(Opcode::LD, Reg::t4, Reg::t6, 24)); // lock
        ctx.prog().emit_branch(Opcode::BEQ, Reg::t4, Reg::zero, plain);
        ctx.emit(itype(Opcode::LD, Reg::t3, Reg::t4, 0));  // key @ lock
        ctx.emit(itype(Opcode::LD, Reg::t5, Reg::t6, 16)); // pointer key
        ctx.prog().emit_branch(Opcode::BNE, Reg::t3, Reg::t5, viol);
        ctx.emit(itype(Opcode::LD, Reg::t3, Reg::t6, 0)); // base
        ctx.prog().emit_branch(Opcode::BNE, Reg::a0, Reg::t3, viol);
        ctx.emit(stype(Opcode::SD, Reg::t4, Reg::zero, 0)); // erase key
        ctx.emit(mv(Reg::t5, Reg::a0));
        ctx.emit(mv(Reg::a0, Reg::t4));
        ctx.ecall(sim::Sys::LockFree);
        ctx.emit(mv(Reg::a0, Reg::t5));
    } else {
        // BOGO: poison the bounds (base 0, bound 1) so later derefs
        // through this metadata fail the spatial check (partial
        // temporal safety) — bound 0 would mean "no metadata" instead.
        // Also model the bound-table scan the free path performs.
        ctx.emit(stype(Opcode::SD, Reg::t6, Reg::zero, 0));
        ctx.li(Reg::t5, 1);
        ctx.emit(stype(Opcode::SD, Reg::t6, Reg::t5, 8));
        if (opts_.free_scan) {
            // The runtime scan nullifies every bound-table entry whose
            // base matches the freed pointer (a0 is preserved).
            ctx.ecall(sim::Sys::BogoScan);
        }
    }
    ctx.prog().bind(plain);
    ctx.ecall(sim::Sys::Free);
    ctx.prog().emit_jal(Reg::zero, done);
    ctx.prog().bind(viol);
    ctx.emit(mv(Reg::a1, Reg::a0));
    ctx.li(Reg::a0, 1);
    ctx.ecall(sim::Sys::SoftViolation);
    ctx.prog().bind(done);
}

void SbcetsEmitter::range_check(Ctx& ctx, Reg r, Value v)
{
    // Wrapper-entry range check: [r, r + a2) inside v's bounds, plus
    // the temporal key check — what the SoftBoundCETS libc wrappers do.
    const riscv::Label skip = ctx.fresh_label();
    const riscv::Label viol = ctx.fresh_label();
    const riscv::Label run = ctx.fresh_label();
    ctx.prog().emit_branch(Opcode::BNE, Reg::a2, Reg::zero, run);
    ctx.prog().emit_jal(Reg::zero, skip); // len == 0: nothing to check
    ctx.prog().bind(run);
    ctx.frame_addr(Reg::t6, ctx.group_of(v));
    ctx.emit(itype(Opcode::LD, Reg::t4, Reg::t6, 8)); // bound
    ctx.prog().emit_branch(Opcode::BEQ, Reg::t4, Reg::zero, skip);
    ctx.emit(itype(Opcode::LD, Reg::t3, Reg::t6, 0)); // base
    ctx.prog().emit_branch(Opcode::BLTU, r, Reg::t3, viol);
    ctx.emit(rtype(Opcode::ADD, Reg::t5, r, Reg::a2));
    ctx.prog().emit_branch(Opcode::BLTU, Reg::t4, Reg::t5, viol);
    if (opts_.temporal) {
        ctx.emit(itype(Opcode::LD, Reg::t5, Reg::t6, 24)); // lock
        ctx.prog().emit_branch(Opcode::BEQ, Reg::t5, Reg::zero, skip);
        ctx.emit(itype(Opcode::LD, Reg::t3, Reg::t5, 0));
        ctx.emit(itype(Opcode::LD, Reg::t4, Reg::t6, 16));
        ctx.prog().emit_branch(Opcode::BEQ, Reg::t3, Reg::t4, skip);
        ctx.emit(mv(Reg::a1, r));
        ctx.li(Reg::a0, 1);
        ctx.ecall(sim::Sys::SoftViolation);
    } else {
        ctx.prog().emit_jal(Reg::zero, skip);
    }
    ctx.prog().bind(viol);
    ctx.emit(mv(Reg::a1, r));
    ctx.li(Reg::a0, 0);
    ctx.ecall(sim::Sys::SoftViolation);
    ctx.prog().bind(skip);
}

void SbcetsEmitter::before_memcpy(Ctx& ctx, const mir::Instr& in)
{
    range_check(ctx, Reg::a0, in.a);
    range_check(ctx, Reg::a1, in.b);
}

void SbcetsEmitter::before_memset(Ctx& ctx, const mir::Instr& in)
{
    range_check(ctx, Reg::a0, in.a);
}

void SbcetsEmitter::copy_word_metadata(Ctx& ctx, Reg dst_addr, Reg src_addr)
{
    sw_map(ctx, Reg::a4, src_addr);
    sw_map(ctx, Reg::a5, dst_addr);
    copy_block(ctx, Reg::a4, Reg::a5, meta_bytes(), Reg::t6);
}

void SbcetsEmitter::clear_word_metadata(Ctx& ctx, Reg dst_addr)
{
    sw_map(ctx, Reg::a5, dst_addr);
    for (i64 k = 0; k < meta_bytes(); k += 8)
        ctx.emit(stype(Opcode::SD, Reg::a5, Reg::zero, k));
}

// ============================ HwstEmitter ==============================

void HwstEmitter::program_start(Ctx& ctx)
{
    // Program the HWST CSRs "at the beginning of a program" (§3.3).
    const auto& lay = ctx.layout();
    ctx.li(Reg::t0,
           static_cast<i64>(metadata::CompressionConfig{}.to_csr()));
    ctx.emit(csr_op(Opcode::CSRRW, Reg::zero, Reg::t0, hwst::kCsrBitw));
    ctx.li(Reg::t0, static_cast<i64>(lay.shadow_offset));
    ctx.emit(csr_op(Opcode::CSRRW, Reg::zero, Reg::t0, hwst::kCsrSmOffset));
    ctx.li(Reg::t0, static_cast<i64>(lay.lock_base));
    ctx.emit(csr_op(Opcode::CSRRW, Reg::zero, Reg::t0, hwst::kCsrLockBase));
    ctx.emit(csri_op(Opcode::CSRRWI, Reg::zero,
                     static_cast<u32>(status_ & 3), hwst::kCsrStatus));
}

void HwstEmitter::function_entry(Ctx& ctx)
{
    if (ctx.frame->frame_lock_off >= 0) frame_lock_push(ctx);
}

void HwstEmitter::function_exit(Ctx& ctx)
{
    // Erasing the key is the zero store the keybuffer snoops (§3.5).
    if (ctx.frame->frame_lock_off >= 0) frame_lock_pop(ctx);
}

void HwstEmitter::bind_alloca(Ctx& ctx, Reg r, u32 alloca_index, Value)
{
    const i64 size =
        static_cast<i64>(ctx.fn->allocas()[alloca_index].size);
    if (common::fits_signed(size, 12)) {
        ctx.emit(itype(Opcode::ADDI, Reg::t4, r, size));
    } else {
        ctx.li(Reg::t4, size);
        ctx.emit(rtype(Opcode::ADD, Reg::t4, Reg::t4, r));
    }
    ctx.emit(rtype(Opcode::BNDRS, r, r, Reg::t4));
    if (ctx.frame->frame_lock_off >= 0) {
        ctx.load_slot(Reg::t4, ctx.frame->frame_lock_off + 8); // key
        ctx.load_slot(Reg::t5, ctx.frame->frame_lock_off);     // lock
    } else {
        ctx.li(Reg::t4, mem::LockAllocator::kGlobalKey);
        ctx.li(Reg::t5, static_cast<i64>(ctx.global_lock_addr()));
    }
    ctx.emit(rtype(Opcode::BNDRT, r, Reg::t4, Reg::t5));
}

void HwstEmitter::bind_global(Ctx& ctx, Reg r, u32 global_index, Value)
{
    const u64 addr = (*ctx.global_addr)[global_index];
    const u64 size = (*ctx.global_size)[global_index];
    ctx.li(Reg::t4, static_cast<i64>(addr + size));
    ctx.emit(rtype(Opcode::BNDRS, r, r, Reg::t4));
    ctx.li(Reg::t4, mem::LockAllocator::kGlobalKey);
    ctx.li(Reg::t5, static_cast<i64>(ctx.global_lock_addr()));
    ctx.emit(rtype(Opcode::BNDRT, r, Reg::t4, Reg::t5));
}

void HwstEmitter::bind_null(Ctx& ctx, Reg r, Value)
{
    // key 0 + global lock: spatial half stays invalid (unchecked), the
    // temporal check fails on any dereference.
    ctx.li(Reg::t5, static_cast<i64>(ctx.global_lock_addr()));
    ctx.emit(rtype(Opcode::BNDRT, r, Reg::zero, Reg::t5));
}

void HwstEmitter::bind_laundered(Ctx& ctx, Reg r, Value)
{
    ctx.emit(rtype(Opcode::SRFCLR, r, Reg::zero, Reg::zero));
}

void HwstEmitter::ptr_spill(Ctx& ctx, Reg r, i64 slot_off, Value)
{
    // The metadata store instructions carry an immediate offset, so the
    // common frame-slot case needs no address arithmetic.
    const int reps = uncompressed_ ? 2 : 1;
    for (int k = 0; k < reps; ++k) {
        if (common::fits_signed(slot_off, 12)) {
            ctx.emit(stype(Opcode::SBDL, Reg::s0, r, slot_off));
            ctx.emit(stype(Opcode::SBDU, Reg::s0, r, slot_off));
        } else {
            ctx.frame_addr(Reg::t6, slot_off);
            ctx.emit(stype(Opcode::SBDL, Reg::t6, r, 0));
            ctx.emit(stype(Opcode::SBDU, Reg::t6, r, 0));
        }
    }
}

void HwstEmitter::ptr_fill(Ctx& ctx, Reg r, i64 slot_off, Value)
{
    const int reps = uncompressed_ ? 2 : 1;
    for (int k = 0; k < reps; ++k) {
        if (common::fits_signed(slot_off, 12)) {
            ctx.emit(itype(Opcode::LBDLS, r, Reg::s0, slot_off));
            ctx.emit(itype(Opcode::LBDUS, r, Reg::s0, slot_off));
        } else {
            ctx.frame_addr(Reg::t6, slot_off);
            ctx.emit(itype(Opcode::LBDLS, r, Reg::t6, 0));
            ctx.emit(itype(Opcode::LBDUS, r, Reg::t6, 0));
        }
    }
}

void HwstEmitter::ptr_loaded(Ctx& ctx, Reg dst, Reg src_addr, Value)
{
    const int reps = uncompressed_ ? 2 : 1;
    for (int k = 0; k < reps; ++k) {
        ctx.emit(itype(Opcode::LBDLS, dst, src_addr, 0));
        ctx.emit(itype(Opcode::LBDUS, dst, src_addr, 0));
    }
}

void HwstEmitter::ptr_stored(Ctx& ctx, Reg src, Reg dst_addr, Value)
{
    const int reps = uncompressed_ ? 2 : 1;
    for (int k = 0; k < reps; ++k) {
        ctx.emit(stype(Opcode::SBDL, dst_addr, src, 0));
        ctx.emit(stype(Opcode::SBDU, dst_addr, src, 0));
    }
}

void HwstEmitter::deref_check(Ctx& ctx, Reg ptr, unsigned, bool, Value v)
{
    // Spatial: fused into the checked load/store (SCU). Temporal:
    if (use_tchk_) {
        ctx.emit(rtype(Opcode::TCHK, Reg::zero, ptr, Reg::zero));
        return;
    }
    // "HWST128" (no tchk): software key load through lkey/lloc on the
    // shadow of the pointer's container (paper §5.1).
    const riscv::Label skip = ctx.fresh_label();
    ctx.frame_addr(Reg::t6, ctx.frame->slot(v));
    ctx.emit(rtype(Opcode::LLOC, Reg::t5, Reg::t6, Reg::zero));
    // DECOMP emits a null lock when there is no temporal metadata.
    ctx.prog().emit_branch(Opcode::BEQ, Reg::t5, Reg::zero, skip);
    ctx.emit(rtype(Opcode::LKEY, Reg::t4, Reg::t6, Reg::zero));
    ctx.emit(itype(Opcode::LD, Reg::t3, Reg::t5, 0)); // key @ lock
    ctx.prog().emit_branch(Opcode::BEQ, Reg::t3, Reg::t4, skip);
    ctx.emit(mv(Reg::a1, ptr));
    ctx.li(Reg::a0, 1);
    ctx.ecall(sim::Sys::SoftViolation);
    ctx.prog().bind(skip);
}

void HwstEmitter::malloc_wrapper(Ctx& ctx, Value)
{
    ctx.ecall(sim::Sys::Malloc);
    ctx.emit(mv(Reg::t2, Reg::a0));
    ctx.ecall(sim::Sys::LockAlloc); // a0 = lock, a1 = key
    const riscv::Label ok = ctx.fresh_label();
    ctx.prog().emit_branch(Opcode::BNE, Reg::t2, Reg::zero, ok);
    ctx.li(Reg::a1, 0); // null result -> key 0 (CWE690 mechanism)
    ctx.prog().bind(ok);
    ctx.emit(rtype(Opcode::ADD, Reg::t4, Reg::t2, Reg::t3)); // bound
    ctx.emit(rtype(Opcode::BNDRS, Reg::t2, Reg::t2, Reg::t4));
    ctx.emit(rtype(Opcode::BNDRT, Reg::t2, Reg::a1, Reg::a0));
}

void HwstEmitter::free_wrapper(Ctx& ctx, Value operand)
{
    const riscv::Label plain = ctx.fresh_label();
    const riscv::Label viol = ctx.fresh_label();
    const riscv::Label done = ctx.fresh_label();

    // The free wrapper is "third-party" style code: it reads the
    // pointer's metadata from the shadow of its container via the
    // lbas/lloc/lkey instructions (paper §3.2, Fig. 1-d7).
    ctx.frame_addr(Reg::t6, ctx.frame->slot(operand));
    ctx.emit(rtype(Opcode::LLOC, Reg::t4, Reg::t6, Reg::zero));
    ctx.prog().emit_branch(Opcode::BEQ, Reg::t4, Reg::zero, plain);
    if (use_tchk_) {
        // Dangling/double free: hardware temporal check.
        ctx.emit(rtype(Opcode::TCHK, Reg::zero, Reg::a0, Reg::zero));
    } else {
        ctx.emit(rtype(Opcode::LKEY, Reg::t5, Reg::t6, Reg::zero));
        ctx.emit(itype(Opcode::LD, Reg::t3, Reg::t4, 0));
        ctx.prog().emit_branch(Opcode::BNE, Reg::t3, Reg::t5, viol);
    }
    ctx.emit(rtype(Opcode::LBAS, Reg::t3, Reg::t6, Reg::zero));
    ctx.prog().emit_branch(Opcode::BNE, Reg::a0, Reg::t3, viol);
    ctx.emit(stype(Opcode::SD, Reg::t4, Reg::zero, 0)); // erase key
    ctx.emit(mv(Reg::t5, Reg::a0));
    ctx.emit(mv(Reg::a0, Reg::t4));
    ctx.ecall(sim::Sys::LockFree);
    ctx.emit(mv(Reg::a0, Reg::t5));
    ctx.prog().bind(plain);
    ctx.ecall(sim::Sys::Free);
    ctx.prog().emit_jal(Reg::zero, done);
    ctx.prog().bind(viol);
    ctx.emit(mv(Reg::a1, Reg::a0));
    ctx.li(Reg::a0, 1);
    ctx.ecall(sim::Sys::SoftViolation);
    ctx.prog().bind(done);
}

void HwstEmitter::hw_range_check(Ctx& ctx, Reg r)
{
    // Probe both ends of [r, r + a2) with checked byte loads (SCU) and
    // run the temporal check; SRF[r] holds the pointer's metadata and
    // pointer arithmetic propagates it to the probe register.
    const riscv::Label skip = ctx.fresh_label();
    ctx.prog().emit_branch(Opcode::BEQ, Reg::a2, Reg::zero, skip);
    ctx.emit(itype(Opcode::CLB, Reg::t4, r, 0)); // first byte
    ctx.emit(rtype(Opcode::ADD, Reg::t6, r, Reg::a2));
    ctx.emit(itype(Opcode::CLB, Reg::t4, Reg::t6, -1)); // last byte
    if (use_tchk_) {
        ctx.emit(rtype(Opcode::TCHK, Reg::zero, r, Reg::zero));
    }
    ctx.prog().bind(skip);
}

void HwstEmitter::before_memcpy(Ctx& ctx, const mir::Instr&)
{
    hw_range_check(ctx, Reg::a0);
    hw_range_check(ctx, Reg::a1);
}

void HwstEmitter::before_memset(Ctx& ctx, const mir::Instr&)
{
    hw_range_check(ctx, Reg::a0);
}

void HwstEmitter::copy_word_metadata(Ctx& ctx, Reg dst_addr, Reg src_addr)
{
    // SRF <-> S.Mem copy without decompression: the lbdls/lbdus path
    // the paper designed for memcpy().
    ctx.emit(itype(Opcode::LBDLS, Reg::t4, src_addr, 0));
    ctx.emit(itype(Opcode::LBDUS, Reg::t4, src_addr, 0));
    ctx.emit(stype(Opcode::SBDL, dst_addr, Reg::t4, 0));
    ctx.emit(stype(Opcode::SBDU, dst_addr, Reg::t4, 0));
}

void HwstEmitter::clear_word_metadata(Ctx& ctx, Reg dst_addr)
{
    ctx.emit(rtype(Opcode::SRFCLR, Reg::t4, Reg::zero, Reg::zero));
    ctx.emit(stype(Opcode::SBDL, dst_addr, Reg::t4, 0));
    ctx.emit(stype(Opcode::SBDU, dst_addr, Reg::t4, 0));
}

// ============================ AsanEmitter ==============================

void AsanEmitter::program_start(Ctx& ctx)
{
    ctx.li(Ctx::kMapBase, static_cast<i64>(ctx.layout().asan_shadow_offset));
}

void AsanEmitter::function_entry(Ctx& ctx)
{
    const auto& frame = *ctx.frame;
    if (ctx.fn->allocas().empty()) return;
    // Poison the whole alloca region, then unpoison each object: the
    // leftover stripes are the stack redzones.
    ctx.frame_addr(Reg::a0, frame.alloca_region_off);
    ctx.li(Reg::a1, frame.alloca_region_size);
    ctx.li(Reg::a2, 1);
    ctx.ecall(sim::Sys::AsanPoison);
    for (std::size_t i = 0; i < ctx.fn->allocas().size(); ++i) {
        ctx.frame_addr(Reg::a0, frame.alloca_off[i]);
        ctx.li(Reg::a1,
               static_cast<i64>(common::align_up(ctx.fn->allocas()[i].size, 8)));
        ctx.li(Reg::a2, 0);
        ctx.ecall(sim::Sys::AsanPoison);
    }
}

void AsanEmitter::function_exit(Ctx& ctx)
{
    const auto& frame = *ctx.frame;
    if (ctx.fn->allocas().empty()) return;
    ctx.frame_addr(Reg::a0, frame.alloca_region_off);
    ctx.li(Reg::a1, frame.alloca_region_size);
    ctx.li(Reg::a2, 0);
    ctx.ecall(sim::Sys::AsanPoison);
}

void AsanEmitter::deref_check(Ctx& ctx, Reg ptr, unsigned, bool, Value)
{
    const riscv::Label ok = ctx.fresh_label();
    ctx.emit(itype(Opcode::SRLI, Reg::t6, ptr, 3));
    ctx.emit(rtype(Opcode::ADD, Reg::t6, Reg::t6, Ctx::kMapBase));
    ctx.emit(itype(Opcode::LBU, Reg::t6, Reg::t6, 0));
    ctx.prog().emit_branch(Opcode::BEQ, Reg::t6, Reg::zero, ok);
    ctx.emit(mv(Reg::a1, ptr));
    ctx.ecall(sim::Sys::AsanReport);
    ctx.prog().bind(ok);
}

// ============================== factory =================================

std::unique_ptr<SafetyEmitter> make_emitter(Scheme scheme)
{
    switch (scheme) {
    case Scheme::None: return std::make_unique<NoneEmitter>();
    case Scheme::Gcc: return std::make_unique<GccEmitter>();
    case Scheme::Sbcets: return std::make_unique<SbcetsEmitter>();
    case Scheme::Hwst128: return std::make_unique<HwstEmitter>(false);
    case Scheme::Hwst128Tchk: return std::make_unique<HwstEmitter>(true);
    case Scheme::Asan: return std::make_unique<AsanEmitter>();
    case Scheme::Bogo:
        // MPX's bndldx/bndstx are microcoded two-level table walks and
        // bnd-register spills are notoriously slow (Oleksenko et al.);
        // trie + o0 homing model that serialization, free_scan models
        // BOGO's bound-table sweeps.
        return std::make_unique<SbcetsEmitter>(SbcetsEmitter::Options{
            .temporal = false, .free_scan = true, .trie = true,
            .o0_cost = true});
    case Scheme::WdlNarrow: return std::make_unique<WdlEmitter>(false);
    case Scheme::WdlWide: return std::make_unique<WdlEmitter>(true);
    }
    throw common::ToolchainError{"make_emitter: unknown scheme"};
}

} // namespace hwst::compiler
