#include "compiler/codegen.hpp"

#include "common/error.hpp"
#include "mir/verify.hpp"

namespace hwst::compiler {

using common::align_up;
using common::fits_signed;
using common::u8;
using common::is_pow2;
using common::ToolchainError;
using mir::BinKind;
using mir::CmpKind;
using mir::Instr;
using mir::Op;
using mir::Ty;
using riscv::btype;
using riscv::itype;
using riscv::rtype;
using riscv::stype;

namespace {

Reg arg_reg(std::size_t i)
{
    if (i >= 8) throw ToolchainError{"codegen: more than 8 call arguments"};
    return riscv::reg_from_index(static_cast<unsigned>(riscv::reg_index(Reg::a0) + i));
}

Opcode load_opcode(unsigned width, bool sign, bool checked)
{
    switch (width) {
    case 1:
        return sign ? (checked ? Opcode::CLB : Opcode::LB)
                    : (checked ? Opcode::CLBU : Opcode::LBU);
    case 2:
        return sign ? (checked ? Opcode::CLH : Opcode::LH)
                    : (checked ? Opcode::CLHU : Opcode::LHU);
    case 4:
        return sign ? (checked ? Opcode::CLW : Opcode::LW)
                    : (checked ? Opcode::CLWU : Opcode::LWU);
    case 8:
        return checked ? Opcode::CLD : Opcode::LD;
    default:
        throw ToolchainError{"codegen: bad load width"};
    }
}

Opcode store_opcode(unsigned width, bool checked)
{
    switch (width) {
    case 1: return checked ? Opcode::CSB : Opcode::SB;
    case 2: return checked ? Opcode::CSH : Opcode::SH;
    case 4: return checked ? Opcode::CSW : Opcode::SW;
    case 8: return checked ? Opcode::CSD : Opcode::SD;
    default: throw ToolchainError{"codegen: bad store width"};
    }
}

Opcode bin_opcode(BinKind k)
{
    switch (k) {
    case BinKind::Add: return Opcode::ADD;
    case BinKind::Sub: return Opcode::SUB;
    case BinKind::Mul: return Opcode::MUL;
    case BinKind::DivS: return Opcode::DIV;
    case BinKind::DivU: return Opcode::DIVU;
    case BinKind::RemS: return Opcode::REM;
    case BinKind::RemU: return Opcode::REMU;
    case BinKind::And: return Opcode::AND;
    case BinKind::Or: return Opcode::OR;
    case BinKind::Xor: return Opcode::XOR;
    case BinKind::Shl: return Opcode::SLL;
    case BinKind::ShrL: return Opcode::SRL;
    case BinKind::ShrA: return Opcode::SRA;
    }
    throw ToolchainError{"codegen: bad binop"};
}

} // namespace

Codegen::Codegen(const mir::Module& module, SafetyEmitter& emitter,
                 riscv::MemoryLayout layout)
    : module_{module}, emitter_{emitter}, layout_{layout}
{
}

riscv::Program Codegen::compile()
{
    mir::verify(module_);
    const mir::Function* main = module_.find_function("main");
    if (!main || !main->params().empty() ||
        main->return_type() != Ty::I64) {
        throw ToolchainError{"codegen: module needs main() -> i64"};
    }

    riscv::Program prog;
    prog.layout() = layout_;
    // Most schemes emit at most ~16 instructions per MIR instruction,
    // plus the runtime library; reserving that up front saves emit()
    // about ten reallocations a program.
    std::size_t mir_instrs = 0;
    for (const mir::Function& fn : module_.functions())
        for (const mir::Block& bb : fn.blocks())
            mir_instrs += bb.instrs().size();
    prog.reserve(16 * mir_instrs + 1024);

    // Globals into the data segment.
    global_addr_.clear();
    global_size_.clear();
    for (const mir::Global& g : module_.globals()) {
        u64 addr;
        if (!g.init.empty()) {
            std::vector<u8> bytes = g.init;
            bytes.resize(std::max<u64>(g.size, bytes.size()), 0);
            addr = prog.add_data(bytes, g.align);
        } else {
            addr = prog.add_bss(g.size, g.align);
        }
        global_addr_.push_back(addr);
        global_size_.push_back(g.size);
    }

    Ctx ctx{prog, module_, prog.layout()};
    ctx.global_addr = &global_addr_;
    ctx.global_size = &global_size_;

    // Named entry points: one name->id lookup per function and per
    // runtime routine; everything else gets anonymous labels.
    fn_labels_.clear();
    for (const mir::Function& fn : module_.functions())
        fn_labels_.push_back(prog.named_label("fn_" + fn.name()));
    rt_memcpy_ = prog.named_label("rt_memcpy");
    rt_memset_ = prog.named_label("rt_memset");

    // _start (the Machine's entry label is "main").
    prog.label("main");
    emitter_.program_start(ctx);
    prog.emit_call(fn_labels_[static_cast<std::size_t>(
        main - module_.functions().data())]);
    ctx.ecall(sim::Sys::Exit); // a0 = main's return value
    ctx.emit(riscv::Instruction{Opcode::EBREAK});

    for (std::size_t f = 0; f < module_.functions().size(); ++f)
        lower_function(prog, ctx, module_.functions()[f], fn_labels_[f]);

    emitter_.emit_runtime(ctx);

    prog.finalize();
    return prog;
}

FrameInfo Codegen::build_frame(const mir::Function& fn,
                               const FunctionPointerFacts& facts) const
{
    FrameInfo frame;
    i64 off = 16; // ra @0, caller s0 @8

    if (emitter_.wants_frame_lock() && facts.needs_frame_lock) {
        frame.frame_lock_off = off;
        off += 16;
    }
    if (emitter_.wants_groups()) {
        frame.emitter_scratch_off = off;
        off += 16;
    }

    for (std::size_t i = 0; i < fn.params().size(); ++i) {
        frame.param_slot.push_back(off);
        off += 8;
    }
    for (std::size_t i = 0; i < fn.params().size(); ++i) {
        if (emitter_.wants_groups() && fn.params()[i] == Ty::Ptr) {
            frame.param_group.push_back(off);
            off += 32;
        } else {
            frame.param_group.push_back(-1);
        }
    }

    frame.value_slot.resize(fn.values().size());
    for (i64& slot : frame.value_slot) {
        slot = off;
        off += 8;
    }

    if (emitter_.wants_groups()) {
        frame.group_off.assign(fn.values().size(), -1);
        for (const u32 root : facts.roots) {
            const u32 param = facts.root_param[root];
            if (param != FunctionPointerFacts::kNone) {
                frame.group_off[root] = frame.param_group[param];
            } else {
                frame.group_off[root] = off;
                off += 32;
            }
        }
    }

    const i64 rz = emitter_.alloca_redzone();
    frame.alloca_region_off = off;
    for (const mir::AllocaInfo& al : fn.allocas()) {
        off += rz;
        off = static_cast<i64>(align_up(static_cast<u64>(off), al.align));
        frame.alloca_off.push_back(off);
        off += static_cast<i64>(align_up(al.size, 8));
    }
    off += rz;
    frame.alloca_region_size = off - frame.alloca_region_off;

    if (emitter_.wants_canary() && !fn.allocas().empty()) {
        off += 8; // spill/padding gap between locals and the guard
        frame.canary_off = off;
        off += 8;
    }

    frame.size = static_cast<i64>(align_up(static_cast<u64>(off), 16));
    return frame;
}

void Codegen::emit_epilogue(riscv::Program& prog, Ctx& ctx,
                            const FrameInfo& frame)
{
    ctx.emit(itype(Opcode::LD, Reg::ra, Reg::sp, 0));
    ctx.emit(itype(Opcode::LD, Reg::s0, Reg::sp, 8));
    if (fits_signed(frame.size, 12)) {
        ctx.emit(itype(Opcode::ADDI, Reg::sp, Reg::sp, frame.size));
    } else {
        prog.emit_li(Reg::t6, frame.size);
        ctx.emit(rtype(Opcode::ADD, Reg::sp, Reg::sp, Reg::t6));
    }
    prog.emit_ret();
}

void Codegen::lower_function(riscv::Program& prog, Ctx& ctx,
                             const mir::Function& fn, riscv::Label fn_label)
{
    const FunctionPointerFacts facts = analyze_pointers(fn);
    const FrameInfo frame = build_frame(fn, facts);

    ctx.fn = &fn;
    ctx.facts = &facts;
    ctx.frame = &frame;

    prog.bind(fn_label);

    // Prologue.
    if (fits_signed(-frame.size, 12)) {
        ctx.emit(itype(Opcode::ADDI, Reg::sp, Reg::sp, -frame.size));
    } else {
        prog.emit_li(Reg::t6, frame.size);
        ctx.emit(rtype(Opcode::SUB, Reg::sp, Reg::sp, Reg::t6));
    }
    ctx.emit(stype(Opcode::SD, Reg::sp, Reg::ra, 0));
    ctx.emit(stype(Opcode::SD, Reg::sp, Reg::s0, 8));
    ctx.emit(riscv::mv(Reg::s0, Reg::sp));

    for (std::size_t i = 0; i < fn.params().size(); ++i) {
        const Reg r = arg_reg(i);
        ctx.store_slot(r, frame.param_slot[i]);
        if (fn.params()[i] == Ty::Ptr)
            emitter_.ptr_spill(ctx, r, frame.param_slot[i], Value{});
    }

    if (frame.canary_off >= 0) {
        prog.emit_li(Reg::t3, kStackCanary);
        ctx.store_slot(Reg::t3, frame.canary_off);
    }

    emitter_.function_entry(ctx);

    // Body. The register cache is block-local: control-flow merges
    // always reload from home slots.
    bb_labels_.clear();
    for (std::size_t b = 0; b < fn.blocks().size(); ++b)
        bb_labels_.push_back(prog.new_label());
    for (std::size_t b = 0; b < fn.blocks().size(); ++b) {
        prog.bind(bb_labels_[b]);
        cache_.clear();
        for (const Instr& in : fn.blocks()[b].instrs())
            lower_instr(prog, ctx, fn, frame, in);
    }

    ctx.fn = nullptr;
    ctx.facts = nullptr;
    ctx.frame = nullptr;
}

void Codegen::lower_instr(riscv::Program& prog, Ctx& ctx,
                          const mir::Function& fn, const FrameInfo& frame,
                          const Instr& in)
{
    const auto slot = [&](Value v) { return frame.slot(v); };
    const auto is_ptr = [&](Value v) { return fn.value_type(v) == Ty::Ptr; };

    // Read a value: a cache hit returns the register the value already
    // lives in (its SRF entry is still bound in hardware modes — no
    // lbdls/lbdus refill needed); a miss reloads from the home slot and
    // refills the metadata. The returned register must only be read.
    const auto use_any = [&](Value v, Reg preferred) -> Reg {
        if (const auto hit = cache_.find(v.id)) return *hit;
        ctx.load_slot(preferred, slot(v));
        if (is_ptr(v)) emitter_.ptr_fill(ctx, preferred, slot(v), v);
        return preferred;
    };
    // Read a value into a specific register (arguments, mutated
    // operands): cache hits become a register move, which the pipeline
    // propagates metadata through for free (Fig. 1-b).
    const auto use_into = [&](Reg r, Value v) {
        if (const auto hit = cache_.find(v.id)) {
            ctx.emit(riscv::mv(r, *hit));
            return;
        }
        ctx.load_slot(r, slot(v));
        if (is_ptr(v)) emitter_.ptr_fill(ctx, r, slot(v), v);
    };
    // Define `v`: allocate its cache register (computation target).
    const auto def_reg = [&](Value v) { return cache_.alloc(v.id); };
    // Commit the definition: write the home slot (pointers shadow the
    // spill — through-memory propagation) while the value stays cached.
    const auto commit = [&](Reg r, Value v) {
        ctx.store_slot(r, slot(v));
        if (is_ptr(v)) emitter_.ptr_spill(ctx, r, slot(v), v);
    };

    const bool checked = emitter_.checked_mem();

    switch (in.op) {
    case Op::ConstI64: {
        const Reg rc = def_reg(in.result);
        prog.emit_li(rc, in.imm);
        if (in.ty == Ty::Ptr) emitter_.bind_null(ctx, rc, in.result);
        commit(rc, in.result);
        break;
    }

    case Op::Bin: {
        const Reg ra = use_any(in.a, Reg::t0);
        const Reg rb = use_any(in.b, Reg::t1);
        const Reg rc = def_reg(in.result);
        ctx.emit(rtype(bin_opcode(static_cast<BinKind>(in.imm)), rc, ra,
                       rb));
        commit(rc, in.result);
        break;
    }

    case Op::Cmp: {
        const Reg ra = use_any(in.a, Reg::t0);
        const Reg rb = use_any(in.b, Reg::t1);
        const Reg rc = def_reg(in.result);
        switch (static_cast<CmpKind>(in.imm)) {
        case CmpKind::Eq:
            ctx.emit(rtype(Opcode::XOR, rc, ra, rb));
            ctx.emit(itype(Opcode::SLTIU, rc, rc, 1));
            break;
        case CmpKind::Ne:
            ctx.emit(rtype(Opcode::XOR, rc, ra, rb));
            ctx.emit(rtype(Opcode::SLTU, rc, Reg::zero, rc));
            break;
        case CmpKind::LtS:
            ctx.emit(rtype(Opcode::SLT, rc, ra, rb));
            break;
        case CmpKind::LeS:
            ctx.emit(rtype(Opcode::SLT, rc, rb, ra));
            ctx.emit(itype(Opcode::XORI, rc, rc, 1));
            break;
        case CmpKind::GtS:
            ctx.emit(rtype(Opcode::SLT, rc, rb, ra));
            break;
        case CmpKind::GeS:
            ctx.emit(rtype(Opcode::SLT, rc, ra, rb));
            ctx.emit(itype(Opcode::XORI, rc, rc, 1));
            break;
        case CmpKind::LtU:
            ctx.emit(rtype(Opcode::SLTU, rc, ra, rb));
            break;
        case CmpKind::GeU:
            ctx.emit(rtype(Opcode::SLTU, rc, ra, rb));
            ctx.emit(itype(Opcode::XORI, rc, rc, 1));
            break;
        }
        commit(rc, in.result);
        break;
    }

    case Op::AllocaAddr: {
        const Reg rc = def_reg(in.result);
        ctx.frame_addr(rc, frame.alloca_off.at(in.index));
        emitter_.bind_alloca(ctx, rc, in.index, in.result);
        commit(rc, in.result);
        break;
    }

    case Op::GlobalAddr: {
        const Reg rc = def_reg(in.result);
        prog.emit_li(rc, static_cast<i64>(global_addr_.at(in.index)));
        emitter_.bind_global(ctx, rc, in.index, in.result);
        commit(rc, in.result);
        break;
    }

    case Op::ParamRef: {
        const Reg rc = def_reg(in.result);
        ctx.load_slot(rc, frame.param_slot.at(in.index));
        if (in.ty == Ty::Ptr) {
            emitter_.ptr_fill(ctx, rc, frame.param_slot.at(in.index),
                              Value{});
            emitter_.bind_param(ctx, rc, in.index, in.result);
        }
        commit(rc, in.result);
        break;
    }

    case Op::Load: {
        // The pointer goes through t0 so the container address survives
        // the load for the metadata hook (rc may alias the cached ptr).
        use_into(Reg::t0, in.a);
        emitter_.deref_check(ctx, Reg::t0, in.width, false, in.a);
        const Reg rc = def_reg(in.result);
        ctx.emit(itype(load_opcode(in.width, in.sign, checked), rc,
                       Reg::t0, 0));
        if (in.ty == Ty::Ptr)
            emitter_.ptr_loaded(ctx, rc, Reg::t0, in.result);
        commit(rc, in.result);
        break;
    }

    case Op::Store: {
        const Reg rv = use_any(in.a, Reg::t1);
        use_into(Reg::t0, in.b);
        emitter_.deref_check(ctx, Reg::t0, in.width, true, in.b);
        ctx.emit(stype(store_opcode(in.width, checked), Reg::t0, rv, 0));
        if (is_ptr(in.a)) emitter_.ptr_stored(ctx, rv, Reg::t0, in.a);
        break;
    }

    case Op::Gep: {
        const Reg rb = use_any(in.a, Reg::t0);
        const Reg rc = def_reg(in.result);
        if (in.b.valid() && in.imm != 0) {
            use_into(Reg::t1, in.b); // scaled in place
            if (in.imm == 1) {
                // index * 1
            } else if (in.imm > 0 && is_pow2(static_cast<u64>(in.imm))) {
                ctx.emit(itype(Opcode::SLLI, Reg::t1, Reg::t1,
                               common::clog2(static_cast<u64>(in.imm))));
            } else {
                prog.emit_li(Reg::t3, in.imm);
                ctx.emit(rtype(Opcode::MUL, Reg::t1, Reg::t1, Reg::t3));
            }
            ctx.emit(rtype(Opcode::ADD, rc, rb, Reg::t1));
        } else if (common::fits_signed(in.imm2, 12)) {
            ctx.emit(itype(Opcode::ADDI, rc, rb, in.imm2));
            commit(rc, in.result);
            break;
        } else {
            ctx.emit(riscv::mv(rc, rb));
        }
        if (in.imm2 != 0) {
            if (fits_signed(in.imm2, 12)) {
                ctx.emit(itype(Opcode::ADDI, rc, rc, in.imm2));
            } else {
                prog.emit_li(Reg::t3, in.imm2);
                ctx.emit(rtype(Opcode::ADD, rc, rc, Reg::t3));
            }
        }
        commit(rc, in.result);
        break;
    }

    case Op::PtrToInt: {
        // Provenance deliberately lost at the IR level; the laundered
        // result is re-bound (metadata-less) at the IntToPtr.
        const Reg ra = use_any(in.a, Reg::t0);
        const Reg rc = def_reg(in.result);
        ctx.emit(riscv::mv(rc, ra));
        commit(rc, in.result);
        break;
    }

    case Op::IntToPtr: {
        const Reg ra = use_any(in.a, Reg::t0);
        const Reg rc = def_reg(in.result);
        ctx.emit(riscv::mv(rc, ra));
        emitter_.bind_laundered(ctx, rc, in.result);
        commit(rc, in.result);
        break;
    }

    case Op::Call: {
        emitter_.before_call(ctx, in);
        for (std::size_t i = 0; i < in.args.size(); ++i)
            use_into(arg_reg(i), in.args[i]);
        const mir::Function* callee = module_.find_function(in.callee);
        if (!callee)
            throw ToolchainError{"codegen: call to unknown " + in.callee};
        prog.emit_call(fn_labels_[static_cast<std::size_t>(
            callee - module_.functions().data())]);
        cache_.clear(); // the callee reuses the cache registers
        emitter_.after_call(ctx, in);
        if (in.ty != Ty::Void) {
            const Reg rc = def_reg(in.result);
            ctx.emit(riscv::mv(rc, Reg::a0));
            commit(rc, in.result);
        }
        break;
    }

    case Op::Malloc: {
        use_into(Reg::a0, in.a);
        ctx.emit(riscv::mv(Reg::t3, Reg::a0)); // size survives the ecall
        emitter_.malloc_wrapper(ctx, in.result);
        const Reg rc = def_reg(in.result);
        ctx.emit(riscv::mv(rc, Reg::t2));
        commit(rc, in.result);
        break;
    }

    case Op::Free:
        use_into(Reg::a0, in.a);
        emitter_.free_wrapper(ctx, in.a);
        break;

    case Op::Memcpy:
        use_into(Reg::a0, in.a);
        use_into(Reg::a1, in.b);
        use_into(Reg::a2, in.c);
        emitter_.before_memcpy(ctx, in);
        prog.emit_call(rt_memcpy_);
        cache_.clear();
        break;

    case Op::Memset:
        use_into(Reg::a0, in.a);
        use_into(Reg::a1, in.b);
        use_into(Reg::a2, in.c);
        emitter_.before_memset(ctx, in);
        prog.emit_call(rt_memset_);
        cache_.clear();
        break;

    case Op::Print:
        use_into(Reg::a0, in.a);
        ctx.ecall(sim::Sys::PrintI64);
        break;

    case Op::Ret:
        emitter_.function_exit(ctx);
        if (frame.canary_off >= 0) {
            ctx.load_slot(Reg::t3, frame.canary_off);
            prog.emit_li(Reg::t4, kStackCanary);
            const riscv::Label ok = ctx.fresh_label();
            prog.emit_branch(Opcode::BEQ, Reg::t3, Reg::t4, ok);
            ctx.ecall(sim::Sys::StackGuardFail);
            prog.bind(ok);
        }
        if (in.a.valid()) {
            use_into(Reg::a0, in.a);
            if (is_ptr(in.a)) emitter_.ret_ptr(ctx, in.a);
        }
        emit_epilogue(prog, ctx, frame);
        break;

    case Op::Br: {
        const Reg ra = use_any(in.a, Reg::t0);
        prog.emit_branch(Opcode::BNE, ra, Reg::zero, bb_labels_[in.bb_true]);
        prog.emit_jal(Reg::zero, bb_labels_[in.bb_false]);
        break;
    }

    case Op::Jmp:
        prog.emit_jal(Reg::zero, bb_labels_[in.bb_true]);
        break;
    }
}

} // namespace hwst::compiler
