// Superblock DBT tier (docs/performance.md "Translation tier"): the
// structures the Machine's dynamic-binary-translation layer is built
// from. A superblock is a straight-line run of predecoded uops ending
// at the first control transfer (branch/jal/jalr), interp-one
// instruction (csr/ecall/ebreak — they can observe cycle/instret
// mid-stream) or the length cap. "Translation" lowers each uop into an
// SbOp: a pre-bound executor selector (computed-goto label), flattened
// operands and cumulative static timing, so the dispatcher retires the
// whole block with batched instret/cycles/mix updates and no per-
// instruction switch re-entry.
//
// Everything here is host-side acceleration only. The contract is the
// same as for every other hot-path structure: host speed may change,
// simulated observables (instret, cycles, traps, InstrMix, cache
// stats) may not — tests/superblock_test.cpp fuzzes the tier against
// the step() interpreter bit-for-bit.
#pragma once

#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include "common/bitops.hpp"
#include "riscv/reg.hpp"

namespace hwst::sim {

using common::i64;
using common::u16;
using common::u32;
using common::u64;
using common::u8;

struct Uop;      // sim/machine.hpp
struct InstrMix; // sim/machine.hpp

/// Executor kinds. One label per entry in the dispatcher's computed-
/// goto table; the X-macro keeps the enum and the label array in sync.
/// Body kinds first, block enders last (Beq..EndFall).
#define HWST_SB_KIND_LIST(X)                                              \
    X(Nop)                                                                \
    X(Const)                                                              \
    X(Addi) X(Slti) X(Sltiu) X(Xori) X(Ori) X(Andi)                       \
    X(Slli) X(Srli) X(Srai)                                               \
    X(Addiw) X(Slliw) X(Srliw) X(Sraiw)                                   \
    X(Add) X(Sub)                                                         \
    X(Sll) X(Slt) X(Sltu) X(Xor) X(Srl) X(Sra) X(Or) X(And)               \
    X(Addw) X(Subw) X(Sllw) X(Srlw) X(Sraw)                               \
    X(Mul) X(Mulh) X(Mulhsu) X(Mulhu) X(Div) X(Divu) X(Rem) X(Remu)       \
    X(Mulw) X(Divw) X(Divuw) X(Remw) X(Remuw)                             \
    X(Lb) X(Lh) X(Lw) X(Ld) X(Lbu) X(Lhu) X(Lwu)                          \
    X(Sb) X(Sh) X(Sw) X(Sd)                                               \
    X(CheckedLoad) X(CheckedStore)                                        \
    X(SbdStore) X(LbdLoad) X(Tchk) X(Bndr)                                \
    X(Hwst)                                                               \
    X(Beq) X(Bne) X(Blt) X(Bge) X(Bltu) X(Bgeu)                           \
    X(Jal) X(Jalr) X(InterpOne) X(EndFall)

enum class SbKind : u8 {
#define HWST_SB_ENUM(name) name,
    HWST_SB_KIND_LIST(HWST_SB_ENUM)
#undef HWST_SB_ENUM
};

inline constexpr unsigned kNumSbKinds = 0
#define HWST_SB_COUNT(name) +1
    HWST_SB_KIND_LIST(HWST_SB_COUNT)
#undef HWST_SB_COUNT
    ;

/// Block length cap. Bounds both the translation unit and the overshoot
/// of block-boundary cancellation polls / fuel checks (run_cancellable
/// can overrun a poll point by at most one block).
inline constexpr unsigned kMaxSuperblockLen = 64;

// SbOp::flags bits.
inline constexpr u8 kOpFetchFull = 1;   ///< full icache access (line start / op 0)
inline constexpr u8 kOpFetchRepeat = 2; ///< guaranteed same-line fetch hit
inline constexpr u8 kOpHazDyn = 4;      ///< op 0: check last_load_rd_ dynamically
inline constexpr u8 kOpReadsRs1 = 8;    ///< with kOpHazDyn: rs1 is consumed
inline constexpr u8 kOpReadsRs2 = 16;   ///< with kOpHazDyn: rs2 is consumed
inline constexpr u8 kOpSignedLoad = 32; ///< CheckedLoad sign-extends

struct Superblock;

/// 2-way inline cache for indirect-jump (`jalr`) targets: the
/// dispatcher embeds one per Jalr op, keyed on the dynamic target and
/// holding the chained successor block (null until translated).
/// Replacement is round-robin: with only two ways, LRU and round-robin
/// differ only when the same way hits twice in a row, where the victim
/// choice is irrelevant — and round-robin keeps the probe branch-free
/// on the hit path.
struct JalrCache2 {
    static constexpr u64 kEmptyTag = ~u64{0};
    u64 tag[2] = {kEmptyTag, kEmptyTag};
    Superblock* way[2] = {nullptr, nullptr};
    u8 victim = 0;

    /// Way index holding `t`, or -1 on miss.
    int lookup(u64 t) const
    {
        return tag[0] == t ? 0 : tag[1] == t ? 1 : -1;
    }
    /// Claim a way for `t` (round-robin victim), clearing its block.
    unsigned insert(u64 t)
    {
        const unsigned v = victim;
        victim ^= 1;
        tag[v] = t;
        way[v] = nullptr;
        return v;
    }
};

/// One translated uop. Operands are flattened (register indexes,
/// absolute branch targets, precomputed U-type values) and the executor
/// label pre-bound so the dispatcher never touches the Instruction
/// again on the hot path; `uop_idx` keeps the link back for the cold
/// paths (trap prefix accounting, interp-one, generic HWST ops).
struct SbOp {
    SbKind kind{};
    u8 flags = 0;
    u8 rd = 0;
    u8 rs1 = 0;
    u8 rs2 = 0;
    u8 width = 0;       ///< memory access width (checked ops)
    u16 block_pos = 0;  ///< index of this op inside its block
    u16 cum_repeat = 0; ///< repeat-hit fetches in ops[0..this], inclusive
    u32 uop_idx = 0;    ///< absolute index into Machine::uops_
    u32 cum_static = 0; ///< static cycles of ops[0..this], inclusive
    i64 imm = 0;        ///< immediate / absolute control-transfer target
    u64 aux = 0;        ///< Const value / link address (pc + 4)
    u64 pc = 0;
    const void* label = nullptr; ///< computed-goto target, pre-bound
    // Chain edges, resolved lazily by the dispatcher (null until the
    // successor is translated; dropped wholesale on flush, so they can
    // never dangle).
    Superblock* edge_taken = nullptr;
    Superblock* edge_fall = nullptr;
    /// Jalr ops: 2-way inline cache keyed on the dynamic target.
    JalrCache2 jalr{};
};

struct Superblock {
    u64 pc0 = 0;
    u32 first_uop = 0;
    u32 len = 0;          ///< real instructions (EndFall excluded)
    u32 static_cycles = 0; ///< sum of per-op static cycles, whole block
    /// Guaranteed same-line fetch hits in the whole block, batched into
    /// the icache stats once per block execution (trap prefixes use the
    /// per-op cum_repeat counter instead).
    u32 repeat_fetches = 0;
    /// Value of last_load_rd_ after the block retires down the
    /// fall-through path: rd of the final op if it is a load, else
    /// zero (control enders always leave it zero, like step() does for
    /// non-load instructions).
    riscv::Reg exit_load_rd = riscv::Reg::zero;
    std::vector<SbOp> ops; ///< len ops, + EndFall terminator if uncapped
    /// Batched InstrMix update: (bucket, count) for every bucket this
    /// block touches, applied once per block execution.
    std::vector<std::pair<u64 InstrMix::*, u64>> mix_delta;
};

/// Host-side tier counters (perf_mips emits them per row; they are
/// never part of the simulated envelope).
struct DbtStats {
    u64 blocks = 0;        ///< superblocks translated (cumulative)
    u64 block_execs = 0;   ///< dispatcher block entries
    u64 chained = 0;       ///< block→block transfers that skipped the dispatcher
    u64 flushes = 0;       ///< block-cache invalidations (map_region)
    u64 jalr_hits = 0;     ///< jalr 2-way inline-cache hits
    u64 jalr_misses = 0;   ///< jalr inline-cache misses (way refilled)
    u64 fallback_runs = 0; ///< runs forced onto the interpreter by hooks
    /// Runs forced onto the interpreter by sim::force_interpreter() —
    /// the DBT divergence sentinel's graceful-degradation path.
    u64 sentinel_degraded = 0;
};

/// Everything translation needs from the Machine, flattened so the
/// translator does not depend on the Machine type (machine.hpp includes
/// this header for DbtStats/SuperblockCache).
struct TranslateEnv {
    const Uop* uops = nullptr;
    u32 n_uops = 0;
    u64 text_base = 0;
    unsigned icache_line = 64;
    bool icache_on = true;
    unsigned load_use_stall = 1;
    unsigned mul_extra = 3;
    unsigned div_extra = 24;
    unsigned branch_taken_penalty = 3;
    /// Computed-goto label table indexed by SbKind.
    const void* const* labels = nullptr;
};

/// Translated-block store: a flat pc-indexed table over the uop range
/// (lookup is one load, like the uop table itself) plus ownership of
/// the blocks. Flushes are deferred while the dispatcher is on-stack
/// (map_region cannot happen mid-dispatch today, but the hook must be
/// safe whenever it fires).
class SuperblockCache {
public:
    /// Translated block starting at `pc`, translating on first use.
    /// `pc` must already be validated (in text range, 4-aligned).
    Superblock* get_or_translate(const TranslateEnv& env, u64 pc,
                                 DbtStats& st);

    void flush(DbtStats& st)
    {
        blocks_.clear();
        std::fill(at_.begin(), at_.end(), nullptr);
        ++st.flushes;
    }
    void request_flush() { flush_pending_ = true; }
    void flush_if_pending(DbtStats& st)
    {
        if (!flush_pending_) return;
        flush_pending_ = false;
        flush(st);
    }

    u64 live_blocks() const { return blocks_.size(); }

private:
    std::vector<std::unique_ptr<Superblock>> blocks_;
    std::vector<Superblock*> at_; ///< indexed by (pc - text_base) >> 2
    bool flush_pending_ = false;
};

} // namespace hwst::sim
