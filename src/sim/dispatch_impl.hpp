// Threaded superblock dispatcher (dispatch.hpp): the definition of
// run_superblocks, instantiated once per translation unit by
// dispatch.cpp (hook-free) and dispatch_hooked.cpp. Executor bodies are
// GCC computed-goto labels, one per SbKind, pre-bound into each SbOp at
// translation: retiring an instruction is "execute body, ++op, jump",
// with no switch re-entry and no per-instruction counter updates.
//
// The bodies hold no semantics of their own: each expands from its row
// in the op tables (sim/ops.hpp) or calls the Machine op member the
// interpreter calls. Adding an op is a table row, never a second copy
// here. The dispatcher is compiled twice: Hooked = false for hook-free
// runs, and Hooked = true for probe-hooked runs, whose op members call
// the hook at live probe points (one Hooked copy for every run measured
// slower on long hook-free runs; docs/performance.md "Probe hooks"). The copies have separate label tables,
// so each has its own block cache (Machine::sbcache<Hooked>()). Each
// copy has a translation unit of its own: with both in one, GCC's
// growth limit for large units left mem::Cache::access and
// mem::Memory::load calls out of line in the hook-free copy. What the
// dispatcher owns is accounting:
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
//    csr/ecall costs, keybuffer-miss loads) are added by the shared op
//    members and exec(), as in the interpreter.
//  * The Hooked copy tells the probes the instret step() would show
//    them: each op that may reach a probe point (PRO_PROBED) sets
//    Machine::probe_pos_ to block_pos + 1 before it executes, and the
//    batch resets it to 0 as it adds the block's counts to instret_
//    (a trap prefix need not: the run ends there). Enders reach no
//    probe point.
//
// The soup's loop-carried state (op, sb, countdown, batch_applied, tr)
// must stay in registers, so nothing in run_superblocks may take the
// address of one of those locals: no lambda captures by reference, and
// a helper takes what it needs as arguments. A by-reference capture of
// op makes GCC keep op in a stack slot for the whole function, and every
// NEXT() then stores and reloads it. The dispatch_codegen test checks
// both copies' disassembly for indirect jumps fed from the stack.
#pragma once

#include <algorithm>

#include "sim/dispatch.hpp"

#include "sim/ops.hpp"
#include "sim/period.hpp"
#include "sim/superblock.hpp"

namespace hwst::sim {

template <bool Hooked>
bool run_superblocks(Machine& m, const std::function<bool()>* cancel,
                     u64 stride, u64 stop, Trap& out)
{
    using mem::MemFault;

    // Label table, in SbKind order (the X-macro guarantees the match;
    // a missing body is a compile error).
    static const void* const kLabels[kNumSbKinds] = {
#define HWST_SB_LABEL(kind) &&L_##kind,
#define HWST_SB_LABEL_ROW(name, kind, ...) &&L_##kind,
        HWST_SB_KIND_LIST(HWST_SB_LABEL, HWST_SB_LABEL_ROW)
#undef HWST_SB_LABEL
#undef HWST_SB_LABEL_ROW
    };

    SuperblockCache& sc = *m.sbcache<Hooked>();
    DbtStats& st = m.dbt_stats_;
    m.fetch_pc_ = Machine::kNoFetch;
    const TranslateEnv env{
        m.uops_.data(),
        static_cast<u32>(m.uops_.size()),
        m.text_base_,
        m.cfg_.icache.line_bytes,
        m.cfg_.icache_enabled,
        m.cfg_.timing.load_use_stall,
        kLabels,
    };
    const u64 text_base = m.text_base_;
    const u64 code_bytes = m.code_bytes_;
    const unsigned icache_hit = m.cfg_.icache.hit_cycles;
    const unsigned lu_stall = m.cfg_.timing.load_use_stall;
    const unsigned taken_pen = m.cfg_.timing.branch_taken_penalty;

    u64 countdown = stride;

    // An earlier stop of a run with a periodic fast-forward detector
    // (sim/period.hpp) is the detector's next checkpoint: such a run has
    // no probe hook. Chaining stops before the block that would cross
    // it, and the outer loop hands that block to the detector instead of
    // retiring it.
    const bool checkpoint_stop = m.period_ && stop < m.cfg_.fuel;

    // The stop point: the fuel limit ends the run, an earlier stop (a
    // periodic-detector or golden-prefix checkpoint) hands it back
    // still running.
    const auto reached_stop = [stop, checkpoint_stop](Machine& m,
                                                      Trap& out) {
        if (m.instret_ < stop || checkpoint_stop) return false;
        if (stop >= m.cfg_.fuel) {
            out = Trap{TrapKind::FuelExhausted, 0, m.pc_};
            m.running_ = false;
        }
        return true;
    };

    Superblock* sb = nullptr;
    const SbOp* op = nullptr;
    bool batch_applied = false;
    Trap tr{};

    // Trap-at-op-i accounting: the trapping instruction is retired
    // (step() counts before exec), its predecessors fully so.
    const auto apply_prefix = [](Machine& m, const Superblock& b,
                                 const SbOp& o) {
        m.instret_ += o.block_pos + 1u;
        m.cycles_ += o.cum_static;
        m.icache_.count_repeat_hits(o.cum_repeat);
        for (u32 j = b.first_uop; j <= o.uop_idx; ++j)
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

// PRO() of an op that may reach a probe point: the Hooked copy first
// tells the probes this op's instret.
#define PRO_PROBED()                                                      \
    do {                                                                  \
        if constexpr (Hooked) m.probe_pos_ = op->block_pos + 1u;          \
        PRO();                                                            \
    } while (0)

#define NEXT()                                                            \
    do {                                                                  \
        ++op;                                                             \
        goto*(op->label);                                                 \
    } while (0)

#define RS1 (m.regs_[op->rs1])
#define RS2 (m.regs_[op->rs2])
#define RD_REG (static_cast<Reg>(op->rd))
#define RS1_REG (static_cast<Reg>(op->rs1))
#define RS2_REG (static_cast<Reg>(op->rs2))
#define IMM (static_cast<u64>(op->imm))

// A trap returned by a Machine op member ends the block at this op.
#define OR_TRAP(call)                                                     \
    do {                                                                  \
        if (const Trap t_ = (call); t_.kind != TrapKind::None) {          \
            tr = t_;                                                      \
            goto trap_at_op;                                              \
        }                                                                 \
    } while (0)

// Ender prologue: retire the whole block before the ender executes.
#define APPLY_BATCH()                                                     \
    do {                                                                  \
        if constexpr (Hooked) m.probe_pos_ = 0;                           \
        m.instret_ += sb->len;                                            \
        m.cycles_ += sb->static_cycles;                                   \
        m.icache_.count_repeat_hits(sb->repeat_fetches);                  \
        for (unsigned k_ = 0; k_ < sb->n_mix; ++k_)                       \
            m.mix_.*sb->mix_delta[k_].first += sb->mix_delta[k_].second;  \
        m.last_load_rd_ = sb->exit_load_rd;                               \
        countdown -= std::min<u64>(countdown, sb->len);                   \
        batch_applied = true;                                             \
    } while (0)

// Transfer to the block at m.pc_ through a cached edge, staying inside
// the dispatch soup. Bails to the outer loop for polls, untranslatable
// targets (out of text / misaligned -> the outer loop raises the same
// AccessFault step() would), blocks that could cross the stop point and
// the block the periodic fast-forward watches (its chain_len is ~0).
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
        if (m.instret_ + nx_->chain_len > stop) goto leave_soup;          \
        ++st.chained;                                                     \
        sb = nx_;                                                         \
        goto enter_block;                                                 \
    } while (0)

#define BRANCH_BODY(cond)                                                 \
    do {                                                                  \
        PRO();                                                            \
        APPLY_BATCH();                                                    \
        if (cond) {                                                       \
            m.cycles_ += taken_pen;                                       \
            m.pc_ = IMM;                                                  \
            CHAIN(sb->edge_taken);                                        \
        } else {                                                          \
            m.pc_ = op->pc + 4;                                           \
            CHAIN(sb->edge_fall);                                         \
        }                                                                 \
    } while (0)

    while (m.running_) {
        if (cancel && countdown == 0) {
            if ((*cancel)()) return false;
            countdown = stride;
        }
        if (reached_stop(m, out)) return true;
        {
            const u64 off = m.pc_ - text_base;
            if (off >= code_bytes || (m.pc_ & 3) != 0) {
                out = Trap{TrapKind::AccessFault, m.pc_, m.pc_};
                m.running_ = false;
                return true;
            }
        }
        sb = sc.get_or_translate(env, m.pc_, st);
        if (m.instret_ + sb->len > stop && checkpoint_stop) {
            // At a block boundary (chaining left the soup before
            // entering sb), so the watched block is one the run keeps
            // entering, not the tail of a split block. The caller
            // resumes with the next checkpoint as its stop.
            m.period_->checkpoint(sb);
            return true;
        }
        if (m.instret_ + sb->len > stop) {
            // The stop point falls inside this block: retire the tail
            // one instruction at a time, with the interpreter's own
            // check-then-step ordering. Bounded by stop - instret_ <
            // block length.
            while (m.running_) {
                if (reached_stop(m, out)) return true;
                const Trap t = m.retire_one();
                if (t.kind != TrapKind::None) {
                    out = t;
                    return true;
                }
            }
            return true;
        }

        // Entry of the watched block (its chain_len made chaining bail):
        // the periodic fast-forward inspects it before it executes.
        if (m.period_ && sb == m.period_->watched() && m.period_->may_match())
            m.period_->on_entry(*sb);

        try {
        enter_block:
            ++st.block_execs;
            batch_applied = false;
            op = sb->ops;
            goto*(op->label);

        L_Nop:
            PRO();
            NEXT();
        L_Const:
            PRO();
            m.write_rd<SrfRule::Clear, true>(RD_REG, RS1_REG, RS2_REG, op->aux);
            NEXT();
#define HWST_SB_ALU(name, kind, fu, srf, expr)                            \
    L_##kind:                                                             \
        PRO();                                                            \
        m.write_rd<SrfRule::srf, folds_rd_zero(SrfRule::srf)>(            \
            RD_REG, RS1_REG, RS2_REG, ops::name(RS1, RS2, IMM));          \
        NEXT();
            HWST_ALU_OPS(HWST_SB_ALU)
#undef HWST_SB_ALU
#define HWST_SB_LOAD(name, kind, width, sign)                             \
    L_##kind:                                                             \
        PRO_PROBED();                                                     \
        m.load<Hooked>(RD_REG, RS1 + IMM, width, sign);                   \
        NEXT();
            HWST_LOAD_OPS(HWST_SB_LOAD)
#undef HWST_SB_LOAD
#define HWST_SB_STORE(name, kind, width)                                  \
    L_##kind:                                                             \
        PRO();                                                            \
        m.mem_store(RS1 + IMM, width, RS2);                               \
        NEXT();
            HWST_STORE_OPS(HWST_SB_STORE)
#undef HWST_SB_STORE
        // The HWST ops leave pc_ at their own pc, so a trap (or a
        // MemFault) leaves it where step() would.
        L_CheckedLoad:
            PRO_PROBED();
            m.pc_ = op->pc;
            OR_TRAP(m.checked_load<Hooked>(RD_REG, RS1_REG, RS1 + IMM,
                                           op->width,
                                           (op->flags & kOpSignedLoad) != 0));
            NEXT();
        L_CheckedStore:
            PRO_PROBED();
            m.pc_ = op->pc;
            OR_TRAP(m.checked_store<Hooked>(RS1_REG, RS1 + IMM, op->width,
                                            RS2_REG));
            NEXT();
        L_Hwst:
            PRO_PROBED();
            m.pc_ = op->pc;
            OR_TRAP(m.exec_hwst<Hooked>(m.uops_[op->uop_idx].in));
            NEXT();
        L_SbdStore:
            PRO_PROBED();
            m.pc_ = op->pc;
            m.sbd<Hooked>(op->aux, RS1 + IMM, RS2_REG);
            NEXT();
        L_LbdLoad:
            PRO_PROBED();
            m.pc_ = op->pc;
            m.lbd<Hooked>(op->aux, RD_REG, RS1 + IMM);
            NEXT();
        L_Tchk:
            PRO_PROBED();
            m.pc_ = op->pc;
            OR_TRAP(m.tchk<Hooked>(RS1_REG));
            NEXT();
        L_Bndr:
            PRO_PROBED();
            m.pc_ = op->pc;
            OR_TRAP(m.bndr<Hooked>(op->aux != 0, RD_REG, RS1, RS2));
            NEXT();
#define HWST_SB_BRANCH(name, kind, cond)                                  \
    L_##kind:                                                             \
        BRANCH_BODY(ops::name(RS1, RS2));
            HWST_BRANCH_OPS(HWST_SB_BRANCH)
#undef HWST_SB_BRANCH
        L_Jal:
            PRO();
            APPLY_BATCH();
            // Taken penalty is folded into static_cycles (always paid).
            m.write_rd<SrfRule::Clear, false>(RD_REG, RS1_REG, RS2_REG,
                                              op->aux);
            m.pc_ = IMM;
            CHAIN(sb->edge_taken);
        L_Jalr:
            PRO();
            APPLY_BATCH();
            {
                // rs1 is read before the link write (rd may alias rs1).
                const u64 target = ops::jalr_target(RS1, IMM);
                m.write_rd<SrfRule::Clear, false>(RD_REG, RS1_REG, RS2_REG,
                                                  op->aux);
                m.pc_ = target;
                // 2-way inline cache on the dynamic target.
                int w = sb->jalr.lookup(target);
                if (w >= 0) {
                    ++st.jalr_hits;
                } else {
                    ++st.jalr_misses;
                    w = static_cast<int>(sb->jalr.insert(target));
                }
                CHAIN(sb->jalr.way[w]);
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
                m.pc_ = next_pc;
            }
            goto leave_soup;
        L_EndFall:
            // Pseudo-op at the length cap / end of text: no fetch, no
            // retirement of its own — just the batched exit.
            APPLY_BATCH();
            m.pc_ = op->pc;
            CHAIN(sb->edge_fall);

        trap_at_op:
            if (!batch_applied) apply_prefix(m, *sb, *op);
            m.running_ = false;
            out = tr;
            return true;

        leave_soup:;
        } catch (const MemFault& fault) {
            // Loads/stores fault through the inlined Memory access; the
            // interpreter converts them at the same point with the same
            // accounting (the faulting instruction is retired).
            if (!batch_applied) apply_prefix(m, *sb, *op);
            out = Trap{TrapKind::AccessFault, fault.addr, op->pc};
            m.running_ = false;
            return true;
        }
    }
    return true;

#undef PRO
#undef PRO_PROBED
#undef NEXT
#undef RS1
#undef RS2
#undef RD_REG
#undef RS1_REG
#undef RS2_REG
#undef IMM
#undef OR_TRAP
#undef APPLY_BATCH
#undef CHAIN
#undef BRANCH_BODY
}

} // namespace hwst::sim
