// Threaded superblock dispatcher (dispatch.hpp). Executor bodies are
// GCC computed-goto labels, one per SbKind, pre-bound into each SbOp at
// translation: retiring an instruction is "execute body, ++op, jump",
// with no switch re-entry and no per-instruction counter updates —
// instret/cycles/InstrMix land in one batched update per block, in a
// way that is bit-identical to the step() interpreter:
//
//  * Block enders apply the batch BEFORE executing (so csr reads of
//    cycle/instret and the ecall proxy kernel observe fully-retired
//    counters, exactly like step()'s "count, then execute" order).
//  * A trap at op i applies the per-op prefix instead: i+1
//    instructions retired (the trapping one counts), cum_static
//    cycles, and the mix buckets of ops[0..i].
//  * Dynamic cycle costs (dcache extras, branch-taken penalties,
//    csr/ecall costs, keybuffer-miss loads) are added eagerly by the
//    bodies, exactly where exec() adds them.
//
// On a non-GNU compiler the tier degrades to the per-instruction
// interpreter loop with the same poll/fuel semantics (correct, just
// not fast).
#include "sim/dispatch.hpp"

#include "sim/machine.hpp"
#include "sim/superblock.hpp"

namespace hwst::sim {

using common::i32;
using hwst::Trap;
using hwst::TrapKind;
using mem::MemFault;
using riscv::Reg;

#if defined(__GNUC__) || defined(__clang__)
#define HWST_THREADED_DISPATCH 1
#else
#define HWST_THREADED_DISPATCH 0
#endif

namespace {
u64 sext32(u64 v)
{
    return static_cast<u64>(static_cast<i64>(static_cast<i32>(v)));
}
} // namespace

#if HWST_THREADED_DISPATCH

bool run_superblocks(Machine& m, const std::function<bool()>* cancel,
                     u64 stride, Trap& out)
{
    // Label table, in SbKind order (the X-macro guarantees the match;
    // a missing body is a compile error).
    static const void* const kLabels[kNumSbKinds] = {
#define HWST_SB_LABEL(name) &&L_##name,
        HWST_SB_KIND_LIST(HWST_SB_LABEL)
#undef HWST_SB_LABEL
    };

    SuperblockCache& sc = *m.sbcache_;
    DbtStats& st = m.dbt_stats_;
    const TranslateEnv env{
        m.uops_.data(),
        static_cast<u32>(m.uops_.size()),
        m.text_base_,
        m.cfg_.icache.line_bytes,
        m.cfg_.icache_enabled,
        m.cfg_.timing.load_use_stall,
        m.cfg_.timing.mul_extra,
        m.cfg_.timing.div_extra,
        m.cfg_.timing.branch_taken_penalty,
        kLabels,
    };
    const u64 text_base = m.text_base_;
    const u64 code_bytes = m.code_bytes_;
    const u64 fuel = m.cfg_.fuel;
    const unsigned icache_hit = m.cfg_.icache.hit_cycles;
    const unsigned dcache_hit = m.cfg_.dcache.hit_cycles;
    const unsigned lu_stall = m.cfg_.timing.load_use_stall;
    const unsigned taken_pen = m.cfg_.timing.branch_taken_penalty;
    const auto& lay = m.program_.layout();
    const u64 lock_base = lay.lock_base;
    const u64 lock_bytes = lay.lock_entries * 8;

    u64 countdown = stride;

    Superblock* sb = nullptr;
    SbOp* op = nullptr;
    bool batch_applied = false;
    Trap tr{};

    // Trap-at-op-i accounting: the trapping instruction is retired
    // (step() counts before exec), its predecessors fully so.
    const auto apply_prefix = [&] {
        m.instret_ += op->block_pos + 1u;
        m.cycles_ += op->cum_static;
        m.icache_.count_repeat_hits(op->cum_repeat);
        for (u32 j = sb->first_uop; j <= op->uop_idx; ++j)
            ++(m.mix_.*(m.uops_[j].bucket));
    };

// Per-op prologue: fetch timing + the op-0 dynamic load-use hazard.
// Repeat-hit fetches are NOT counted here: they are zero-cycle and
// stat-only, so they batch into APPLY_BATCH / apply_prefix.
#define PRO()                                                             \
    do {                                                                  \
        const u8 fl_ = op->flags;                                         \
        if (fl_ & kOpFetchFull)                                           \
            m.cycles_ += m.icache_.access(op->pc) - icache_hit;           \
        if (fl_ & kOpHazDyn) {                                            \
            const u8 llr_ = static_cast<u8>(m.last_load_rd_);             \
            if (llr_ != 0 &&                                              \
                (((fl_ & kOpReadsRs1) && op->rs1 == llr_) ||              \
                 ((fl_ & kOpReadsRs2) && op->rs2 == llr_)))               \
                m.cycles_ += lu_stall;                                    \
        }                                                                 \
    } while (0)

#define NEXT()                                                            \
    do {                                                                  \
        ++op;                                                             \
        goto*(op->label);                                                 \
    } while (0)

#define RS1 (m.regs_[op->rs1])
#define RS2 (m.regs_[op->rs2])
#define RD_REG (static_cast<Reg>(op->rd))
#define IMM (static_cast<u64>(op->imm))

// Plain writer: translation folded rd==zero variants of these kinds to
// Nop, so the write is unconditional and the srf clear matches
// srf_effects' guarded default case.
#define WR_CLEAR(v)                                                       \
    do {                                                                  \
        m.regs_[op->rd] = (v);                                            \
        m.srf_.clear(RD_REG);                                             \
    } while (0)

// Ender prologue: retire the whole block before the ender executes.
#define APPLY_BATCH()                                                     \
    do {                                                                  \
        m.instret_ += sb->len;                                            \
        m.cycles_ += sb->static_cycles;                                   \
        m.icache_.count_repeat_hits(sb->repeat_fetches);                  \
        for (const auto& d_ : sb->mix_delta)                              \
            m.mix_.*d_.first += d_.second;                                \
        m.last_load_rd_ = sb->exit_load_rd;                               \
        countdown = countdown > sb->len ? countdown - sb->len : 0;        \
        batch_applied = true;                                             \
    } while (0)

// Transfer to the block at m.pc_ through a cached edge, staying inside
// the dispatch soup. Bails to the outer loop for polls, untranslatable
// targets (out of text / misaligned -> the outer loop raises the same
// AccessFault step() would) and blocks that could cross the fuel limit.
#define CHAIN(edge)                                                       \
    do {                                                                  \
        if (cancel && countdown == 0) goto leave_soup;                    \
        Superblock* nx_ = (edge);                                         \
        if (!nx_) {                                                       \
            const u64 noff_ = m.pc_ - text_base;                          \
            if (noff_ >= code_bytes || (m.pc_ & 3) != 0) goto leave_soup; \
            nx_ = sc.get_or_translate(env, m.pc_, st);                    \
            (edge) = nx_;                                                 \
        }                                                                 \
        if (m.instret_ + nx_->len > fuel) goto leave_soup;                \
        ++st.chained;                                                     \
        sb = nx_;                                                         \
        goto enter_block;                                                 \
    } while (0)

#define LOAD_BODY(w, sx)                                                  \
    do {                                                                  \
        PRO();                                                            \
        const u64 a_ = RS1 + IMM;                                         \
        m.cycles_ += m.dcache_.access(a_) - dcache_hit;                   \
        const u64 v_ = m.mem_.load(a_, (w), (sx));                        \
        if (op->rd) {                                                     \
            m.regs_[op->rd] = v_;                                         \
            m.srf_.clear(RD_REG);                                         \
        }                                                                 \
    } while (0)

// Store body = mem_store inlined: dcache extra, keybuffer coherence
// flush on key erasure (store of 0 into the lock region), then the
// memory write. Same order, so a faulting store has identical partial
// effects.
#define STORE_BODY(w)                                                     \
    do {                                                                  \
        PRO();                                                            \
        const u64 a_ = RS1 + IMM;                                         \
        m.cycles_ += m.dcache_.access(a_) - dcache_hit;                   \
        const u64 v_ = RS2;                                               \
        if (v_ == 0 && a_ - lock_base < lock_bytes) m.keybuffer_.flush(); \
        m.mem_.store(a_, (w), v_);                                        \
    } while (0)

// Inline mirror of Machine::spatial_check (machine.cpp): same gate
// order, same violation bookkeeping, same trap values. The
// active_compression memo is read directly — the probe-hook bypass
// cannot apply because a probe hook forces the interpreter tier.
#define SPATIAL_CHECK(addr)                                               \
    do {                                                                  \
        if (!m.csrs_.spatial_enabled()) break;                            \
        const auto& se_ = m.srf_.entry(static_cast<Reg>(op->rs1));        \
        if (!se_.valid_lo || se_.value.lo == 0) break;                    \
        const auto ac_ = m.comp_version_ == m.csrs_.version()             \
                             ? m.comp_memo_                               \
                             : m.active_compression();                    \
        if (!ac_.valid) {                                                 \
            m.csrs_.record_violation(                                     \
                static_cast<u64>(TrapKind::IllegalInstruction),           \
                hwst::kCsrBitw);                                          \
            tr = Trap{TrapKind::IllegalInstruction, hwst::kCsrBitw,       \
                      op->pc};                                            \
            goto trap_at_op;                                              \
        }                                                                 \
        if (metadata::is_saturated_spatial(se_.value.lo, ac_.cfg)) {      \
            m.scu_.note_saturated();                                      \
            m.csrs_.record_violation(                                     \
                static_cast<u64>(TrapKind::SpatialViolation), (addr));    \
            tr = Trap{TrapKind::SpatialViolation, (addr), op->pc};        \
            goto trap_at_op;                                              \
        }                                                                 \
        u64 base_ = 0, bound_ = 0;                                        \
        metadata::decompress_spatial(se_.value.lo, ac_.cfg, base_,        \
                                     bound_);                             \
        if (m.scu_.check((addr), op->width, base_, bound_).pass) break;   \
        m.csrs_.record_violation(                                         \
            static_cast<u64>(TrapKind::SpatialViolation), (addr));        \
        tr = Trap{TrapKind::SpatialViolation, (addr), op->pc};            \
        goto trap_at_op;                                                  \
    } while (0)

#define BRANCH_BODY(cond)                                                 \
    do {                                                                  \
        PRO();                                                            \
        APPLY_BATCH();                                                    \
        if (cond) {                                                       \
            m.cycles_ += taken_pen;                                       \
            m.pc_ = IMM;                                                  \
            CHAIN(op->edge_taken);                                        \
        } else {                                                          \
            m.pc_ = op->pc + 4;                                           \
            CHAIN(op->edge_fall);                                         \
        }                                                                 \
    } while (0)

    while (m.running_) {
        sc.flush_if_pending(st);
        if (cancel && countdown == 0) {
            if ((*cancel)()) return false;
            countdown = stride;
        }
        if (m.instret_ >= fuel) {
            out = Trap{TrapKind::FuelExhausted, 0, m.pc_};
            m.running_ = false;
            return true;
        }
        {
            const u64 off = m.pc_ - text_base;
            if (off >= code_bytes || (m.pc_ & 3) != 0) {
                out = Trap{TrapKind::AccessFault, m.pc_, m.pc_};
                m.running_ = false;
                return true;
            }
        }
        sb = sc.get_or_translate(env, m.pc_, st);
        if (m.instret_ + sb->len > fuel) {
            // Fuel can run out inside this block: retire the tail one
            // instruction at a time, with the interpreter's own
            // check-then-step ordering. Bounded by fuel - instret_ <
            // block length.
            while (m.running_) {
                if (m.instret_ >= fuel) {
                    out = Trap{TrapKind::FuelExhausted, 0, m.pc_};
                    m.running_ = false;
                    return true;
                }
                const Trap t = m.step();
                if (t.kind != TrapKind::None) {
                    out = t;
                    return true;
                }
            }
            return true;
        }

        try {
        enter_block:
            ++st.block_execs;
            batch_applied = false;
            op = sb->ops.data();
            goto*(op->label);

        L_Nop:
            PRO();
            NEXT();
        L_Const:
            PRO();
            WR_CLEAR(op->aux);
            NEXT();
        L_Addi:
            PRO();
            // rd==zero folded to Nop; propagate matches srf_effects'
            // ADDI pointer-arithmetic rule.
            m.regs_[op->rd] = RS1 + IMM;
            m.srf_.propagate(RD_REG, static_cast<Reg>(op->rs1));
            NEXT();
        L_Slti:
            PRO();
            WR_CLEAR(static_cast<i64>(RS1) < op->imm ? 1 : 0);
            NEXT();
        L_Sltiu:
            PRO();
            WR_CLEAR(RS1 < IMM ? 1 : 0);
            NEXT();
        L_Xori:
            PRO();
            WR_CLEAR(RS1 ^ IMM);
            NEXT();
        L_Ori:
            PRO();
            WR_CLEAR(RS1 | IMM);
            NEXT();
        L_Andi:
            PRO();
            WR_CLEAR(RS1 & IMM);
            NEXT();
        L_Slli:
            PRO();
            WR_CLEAR(RS1 << (op->imm & 63));
            NEXT();
        L_Srli:
            PRO();
            WR_CLEAR(RS1 >> (op->imm & 63));
            NEXT();
        L_Srai:
            PRO();
            WR_CLEAR(static_cast<u64>(static_cast<i64>(RS1) >>
                                      (op->imm & 63)));
            NEXT();
        L_Addiw:
            PRO();
            WR_CLEAR(sext32(RS1 + IMM));
            NEXT();
        L_Slliw:
            PRO();
            WR_CLEAR(sext32(RS1 << (op->imm & 31)));
            NEXT();
        L_Srliw:
            PRO();
            WR_CLEAR(sext32(static_cast<u32>(RS1) >> (op->imm & 31)));
            NEXT();
        L_Sraiw:
            PRO();
            WR_CLEAR(sext32(static_cast<u64>(static_cast<i32>(RS1) >>
                                             (op->imm & 31))));
            NEXT();
        L_Add:
            PRO();
            {
                // Full srf_effects ADD rule, including the unguarded
                // clear on the both-or-neither branch (it mutates SRF
                // entry 0 when rd is x0 — see srf_effects).
                const u64 v = RS1 + RS2;
                if (op->rd) m.regs_[op->rd] = v;
                const auto& ea = m.srf_.entry(static_cast<Reg>(op->rs1));
                const auto& eb = m.srf_.entry(static_cast<Reg>(op->rs2));
                const bool a = ea.valid_lo || ea.valid_hi;
                const bool b = eb.valid_lo || eb.valid_hi;
                if (a && !b)
                    m.srf_.propagate(RD_REG, static_cast<Reg>(op->rs1));
                else if (b && !a)
                    m.srf_.propagate(RD_REG, static_cast<Reg>(op->rs2));
                else
                    m.srf_.clear(RD_REG);
            }
            NEXT();
        L_Sub:
            PRO();
            {
                const u64 v = RS1 - RS2;
                if (op->rd) m.regs_[op->rd] = v;
                const auto& ea = m.srf_.entry(static_cast<Reg>(op->rs1));
                const auto& eb = m.srf_.entry(static_cast<Reg>(op->rs2));
                if ((ea.valid_lo || ea.valid_hi) &&
                    !(eb.valid_lo || eb.valid_hi))
                    m.srf_.propagate(RD_REG, static_cast<Reg>(op->rs1));
                else
                    m.srf_.clear(RD_REG);
            }
            NEXT();
        L_Sll:
            PRO();
            WR_CLEAR(RS1 << (RS2 & 63));
            NEXT();
        L_Slt:
            PRO();
            WR_CLEAR(static_cast<i64>(RS1) < static_cast<i64>(RS2) ? 1 : 0);
            NEXT();
        L_Sltu:
            PRO();
            WR_CLEAR(RS1 < RS2 ? 1 : 0);
            NEXT();
        L_Xor:
            PRO();
            WR_CLEAR(RS1 ^ RS2);
            NEXT();
        L_Srl:
            PRO();
            WR_CLEAR(RS1 >> (RS2 & 63));
            NEXT();
        L_Sra:
            PRO();
            WR_CLEAR(static_cast<u64>(static_cast<i64>(RS1) >> (RS2 & 63)));
            NEXT();
        L_Or:
            PRO();
            WR_CLEAR(RS1 | RS2);
            NEXT();
        L_And:
            PRO();
            WR_CLEAR(RS1 & RS2);
            NEXT();
        L_Addw:
            PRO();
            WR_CLEAR(sext32(RS1 + RS2));
            NEXT();
        L_Subw:
            PRO();
            WR_CLEAR(sext32(RS1 - RS2));
            NEXT();
        L_Sllw:
            PRO();
            WR_CLEAR(sext32(RS1 << (RS2 & 31)));
            NEXT();
        L_Srlw:
            PRO();
            WR_CLEAR(sext32(static_cast<u32>(RS1) >> (RS2 & 31)));
            NEXT();
        L_Sraw:
            PRO();
            WR_CLEAR(sext32(static_cast<u64>(static_cast<i32>(RS1) >>
                                             (RS2 & 31))));
            NEXT();
        L_Mul:
            PRO();
            WR_CLEAR(RS1* RS2);
            NEXT();
        L_Mulh:
            PRO();
            WR_CLEAR(static_cast<u64>(
                (static_cast<__int128>(static_cast<i64>(RS1)) *
                 static_cast<i64>(RS2)) >>
                64));
            NEXT();
        L_Mulhsu:
            PRO();
            WR_CLEAR(static_cast<u64>(
                (static_cast<__int128>(static_cast<i64>(RS1)) *
                 static_cast<unsigned __int128>(RS2)) >>
                64));
            NEXT();
        L_Mulhu:
            PRO();
            WR_CLEAR(static_cast<u64>(
                (static_cast<unsigned __int128>(RS1) *
                 static_cast<unsigned __int128>(RS2)) >>
                64));
            NEXT();
        L_Div:
            PRO();
            {
                const i64 a = static_cast<i64>(RS1), b = static_cast<i64>(RS2);
                if (b == 0) WR_CLEAR(~u64{0});
                else if (a == std::numeric_limits<i64>::min() && b == -1)
                    WR_CLEAR(RS1);
                else WR_CLEAR(static_cast<u64>(a / b));
            }
            NEXT();
        L_Divu:
            PRO();
            WR_CLEAR(RS2 == 0 ? ~u64{0} : RS1 / RS2);
            NEXT();
        L_Rem:
            PRO();
            {
                const i64 a = static_cast<i64>(RS1), b = static_cast<i64>(RS2);
                if (b == 0) WR_CLEAR(RS1);
                else if (a == std::numeric_limits<i64>::min() && b == -1)
                    WR_CLEAR(0);
                else WR_CLEAR(static_cast<u64>(a % b));
            }
            NEXT();
        L_Remu:
            PRO();
            WR_CLEAR(RS2 == 0 ? RS1 : RS1 % RS2);
            NEXT();
        L_Mulw:
            PRO();
            WR_CLEAR(sext32(RS1* RS2));
            NEXT();
        L_Divw:
            PRO();
            {
                const i32 a = static_cast<i32>(RS1), b = static_cast<i32>(RS2);
                if (b == 0) WR_CLEAR(~u64{0});
                else if (a == std::numeric_limits<i32>::min() && b == -1)
                    WR_CLEAR(sext32(static_cast<u64>(static_cast<u32>(a))));
                else
                    WR_CLEAR(sext32(static_cast<u64>(
                        static_cast<u32>(a / b))));
            }
            NEXT();
        L_Divuw:
            PRO();
            {
                const u32 a = static_cast<u32>(RS1), b = static_cast<u32>(RS2);
                WR_CLEAR(b == 0 ? ~u64{0} : sext32(a / b));
            }
            NEXT();
        L_Remw:
            PRO();
            {
                const i32 a = static_cast<i32>(RS1), b = static_cast<i32>(RS2);
                if (b == 0)
                    WR_CLEAR(sext32(static_cast<u64>(static_cast<u32>(a))));
                else if (a == std::numeric_limits<i32>::min() && b == -1)
                    WR_CLEAR(0);
                else
                    WR_CLEAR(sext32(static_cast<u64>(
                        static_cast<u32>(a % b))));
            }
            NEXT();
        L_Remuw:
            PRO();
            {
                const u32 a = static_cast<u32>(RS1), b = static_cast<u32>(RS2);
                WR_CLEAR(b == 0 ? sext32(a) : sext32(a % b));
            }
            NEXT();
        L_Lb:
            LOAD_BODY(1, true);
            NEXT();
        L_Lh:
            LOAD_BODY(2, true);
            NEXT();
        L_Lw:
            LOAD_BODY(4, true);
            NEXT();
        L_Ld:
            LOAD_BODY(8, true);
            NEXT();
        L_Lbu:
            LOAD_BODY(1, false);
            NEXT();
        L_Lhu:
            LOAD_BODY(2, false);
            NEXT();
        L_Lwu:
            LOAD_BODY(4, false);
            NEXT();
        L_Sb:
            STORE_BODY(1);
            NEXT();
        L_Sh:
            STORE_BODY(2);
            NEXT();
        L_Sw:
            STORE_BODY(4);
            NEXT();
        L_Sd:
            STORE_BODY(8);
            NEXT();
        L_CheckedLoad:
            PRO();
            {
                m.pc_ = op->pc; // traps leave pc_ at the faulting pc
                const u64 a = RS1 + IMM;
                SPATIAL_CHECK(a);
                m.cycles_ += m.dcache_.access(a) - dcache_hit;
                const u64 v =
                    m.mem_.load(a, op->width,
                                (op->flags & kOpSignedLoad) != 0);
                if (op->rd) {
                    m.regs_[op->rd] = v;
                    m.srf_.clear(RD_REG);
                }
            }
            NEXT();
        L_CheckedStore:
            PRO();
            {
                m.pc_ = op->pc;
                const u64 a = RS1 + IMM;
                SPATIAL_CHECK(a);
                m.cycles_ += m.dcache_.access(a) - dcache_hit;
                const u64 v = RS2;
                if (v == 0 && a - lock_base < lock_bytes)
                    m.keybuffer_.flush();
                m.mem_.store(a, op->width, v);
            }
            NEXT();
        L_Hwst:
            PRO();
            {
                // Generic path for the HWST metadata ops (binds, shadow
                // moves, tchk, ...): same executor + srf rule the
                // interpreter uses, minus its per-step bookkeeping.
                const Uop& u = m.uops_[op->uop_idx];
                m.pc_ = op->pc;
                const Trap t = m.exec_hwst(u.in);
                if (t.kind != TrapKind::None) {
                    tr = t;
                    goto trap_at_op;
                }
                m.srf_effects(u.in, u.fmt);
            }
            NEXT();
        L_SbdStore:
            PRO();
            {
                // sbdl/sbdu inlined from exec_hwst: store one SRF half
                // into the LMSM slot. Same effect order (SMAC count,
                // D-cache extra, memory write) so a faulting store has
                // identical partial effects; srf_effects is a no-op.
                m.pc_ = op->pc;
                const auto& e = m.srf_.entry(static_cast<Reg>(op->rs2));
                const u64 a =
                    m.smac_.map(RS1 + IMM, m.csrs_.sm_offset()) + op->aux;
                const u64 v = op->aux ? (e.valid_hi ? e.value.hi : 0)
                                      : (e.valid_lo ? e.value.lo : 0);
                m.cycles_ += m.dcache_.access(a) - dcache_hit;
                m.mem_.store(a, 8, v);
            }
            NEXT();
        L_LbdLoad:
            PRO();
            {
                // lbdls/lbdus inlined: load one LMSM slot into the SRF
                // half; a zero slot marks the half invalid.
                m.pc_ = op->pc;
                const u64 a =
                    m.smac_.map(RS1 + IMM, m.csrs_.sm_offset()) + op->aux;
                m.cycles_ += m.dcache_.access(a) - dcache_hit;
                const u64 v = m.mem_.load(a, 8, false);
                if (op->aux)
                    m.srf_.set_hi(RD_REG, v, v != 0);
                else
                    m.srf_.set_lo(RD_REG, v, v != 0);
            }
            NEXT();
        L_Tchk:
            PRO();
            {
                // tchk inlined from exec_hwst, including the
                // active_compression memo check (the probe-hook bypass
                // cannot apply: a probe hook forces the interpreter
                // tier). The keybuffer-miss D-cache access is a full
                // access — a second memory operation — not an extra,
                // exactly as exec_hwst charges it.
                m.pc_ = op->pc;
                if (!m.csrs_.temporal_enabled()) NEXT();
                const auto& e = m.srf_.entry(static_cast<Reg>(op->rs1));
                if (!e.valid_hi || e.value.hi == 0) NEXT();
                const auto ac = m.comp_version_ == m.csrs_.version()
                                    ? m.comp_memo_
                                    : m.active_compression();
                if (!ac.valid) {
                    m.csrs_.record_violation(
                        static_cast<u64>(TrapKind::IllegalInstruction),
                        hwst::kCsrBitw);
                    tr = Trap{TrapKind::IllegalInstruction, hwst::kCsrBitw,
                              op->pc};
                    goto trap_at_op;
                }
                if (metadata::is_saturated_temporal(e.value.hi, ac.cfg)) {
                    m.tcu_.note_saturated();
                    m.csrs_.record_violation(
                        static_cast<u64>(TrapKind::TemporalViolation), RS1);
                    tr = Trap{TrapKind::TemporalViolation, RS1, op->pc};
                    goto trap_at_op;
                }
                u64 key = 0, lock = 0;
                metadata::decompress_temporal(e.value.hi, ac.cfg, key,
                                              lock);
                u64 mem_key = 0;
                if (!m.cfg_.keybuffer_enabled) {
                    m.cycles_ += m.dcache_.access(lock);
                    mem_key = m.mem_.load(lock, 8, false);
                } else if (const auto hit = m.keybuffer_.lookup(lock)) {
                    mem_key = *hit;
                } else {
                    m.cycles_ += m.dcache_.access(lock);
                    mem_key = m.mem_.load(lock, 8, false);
                    m.keybuffer_.insert(lock, mem_key);
                }
                if (!m.tcu_.check(key, mem_key).pass) {
                    m.csrs_.record_violation(
                        static_cast<u64>(TrapKind::TemporalViolation),
                        lock);
                    tr = Trap{TrapKind::TemporalViolation, lock, op->pc};
                    goto trap_at_op;
                }
            }
            NEXT();
        L_Bndr:
            PRO();
            {
                // bndrs/bndrt inlined from exec_hwst: compress one
                // metadata half (rs1 = base/key, rs2 = bound/lock) into
                // the SRF; srf_effects is a no-op for both.
                m.pc_ = op->pc;
                const auto ac = m.comp_version_ == m.csrs_.version()
                                    ? m.comp_memo_
                                    : m.active_compression();
                if (!ac.valid) {
                    m.csrs_.record_violation(
                        static_cast<u64>(TrapKind::IllegalInstruction),
                        hwst::kCsrBitw);
                    tr = Trap{TrapKind::IllegalInstruction, hwst::kCsrBitw,
                              op->pc};
                    goto trap_at_op;
                }
                if (op->aux)
                    m.srf_.bind_temporal(
                        RD_REG, metadata::compress_temporal(RS1, RS2,
                                                            ac.cfg));
                else
                    m.srf_.bind_spatial(
                        RD_REG, metadata::compress_spatial(RS1, RS2,
                                                           ac.cfg));
            }
            NEXT();
        L_Beq:
            BRANCH_BODY(RS1 == RS2);
        L_Bne:
            BRANCH_BODY(RS1 != RS2);
        L_Blt:
            BRANCH_BODY(static_cast<i64>(RS1) < static_cast<i64>(RS2));
        L_Bge:
            BRANCH_BODY(static_cast<i64>(RS1) >= static_cast<i64>(RS2));
        L_Bltu:
            BRANCH_BODY(RS1 < RS2);
        L_Bgeu:
            BRANCH_BODY(RS1 >= RS2);
        L_Jal:
            PRO();
            APPLY_BATCH();
            // Taken penalty is folded into static_cycles (always paid).
            if (op->rd) {
                m.regs_[op->rd] = op->aux;
                m.srf_.clear(RD_REG);
            }
            m.pc_ = IMM;
            CHAIN(op->edge_taken);
        L_Jalr:
            PRO();
            APPLY_BATCH();
            {
                // rs1 is read before the link write (rd may alias rs1).
                const u64 target = (RS1 + IMM) & ~u64{1};
                if (op->rd) {
                    m.regs_[op->rd] = op->aux;
                    m.srf_.clear(RD_REG);
                }
                m.pc_ = target;
                // 2-way inline cache on the dynamic target.
                int w = op->jalr.lookup(target);
                if (w >= 0) {
                    ++st.jalr_hits;
                } else {
                    ++st.jalr_misses;
                    w = static_cast<int>(op->jalr.insert(target));
                }
                CHAIN(op->jalr.way[w]);
            }
        L_InterpOne:
            PRO();
            APPLY_BATCH();
            {
                // csr/ecall/ebreak: run through the generic exec() with
                // the batch already applied, so csr cycle/instret reads
                // and the proxy kernel see exactly what step() shows
                // them. Always returns to the dispatcher (no chaining
                // past a proxy-kernel call).
                const Uop& u = m.uops_[op->uop_idx];
                m.pc_ = op->pc;
                u64 next_pc = op->pc + 4;
                const Trap t = m.exec(u.in, next_pc);
                if (t.kind != TrapKind::None) {
                    m.running_ = false;
                    out = t;
                    return true;
                }
                m.srf_effects(u.in, u.fmt);
                m.pc_ = next_pc;
            }
            goto leave_soup;
        L_EndFall:
            // Pseudo-op at the length cap / end of text: no fetch, no
            // retirement of its own — just the batched exit.
            APPLY_BATCH();
            m.pc_ = op->pc;
            CHAIN(op->edge_fall);

        trap_at_op:
            if (!batch_applied) apply_prefix();
            m.running_ = false;
            out = tr;
            return true;

        leave_soup:;
        } catch (const MemFault& fault) {
            // Loads/stores fault through the inlined Memory access; the
            // interpreter converts them at the same point with the same
            // accounting (the faulting instruction is retired).
            if (!batch_applied) apply_prefix();
            out = Trap{TrapKind::AccessFault, fault.addr, op->pc};
            m.running_ = false;
            return true;
        }
    }
    return true;

#undef PRO
#undef NEXT
#undef RS1
#undef RS2
#undef RD_REG
#undef IMM
#undef WR_CLEAR
#undef APPLY_BATCH
#undef SPATIAL_CHECK
#undef CHAIN
#undef LOAD_BODY
#undef STORE_BODY
#undef BRANCH_BODY
}

#else // !HWST_THREADED_DISPATCH

// Portable degradation: the interpreter loop with identical poll/fuel
// semantics. Simulated results are the same by construction; only the
// host speedup is lost.
bool run_superblocks(Machine& m, const std::function<bool()>* cancel,
                     u64 stride, Trap& out)
{
    u64 countdown = stride;
    while (m.running_) {
        if (cancel && --countdown == 0) {
            if ((*cancel)()) return false;
            countdown = stride;
        }
        if (m.instret_ >= m.cfg_.fuel) {
            out = Trap{TrapKind::FuelExhausted, 0, m.pc_};
            m.running_ = false;
            return true;
        }
        const Trap t = m.step();
        if (t.kind != TrapKind::None) {
            out = t;
            return true;
        }
    }
    return true;
}

#endif // HWST_THREADED_DISPATCH

} // namespace hwst::sim
