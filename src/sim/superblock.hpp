// Superblock DBT tier (docs/performance.md "Translation tier"): the
// structures the Machine's dynamic-binary-translation layer is built
// from. A superblock is a straight-line run of predecoded uops ending
// at the first control transfer (branch/jal/jalr), interp-one
// instruction (csr/ecall/ebreak — they can observe cycle/instret
// mid-stream) or the length cap. "Translation" lowers each uop into an
// SbOp: a pre-bound executor selector (computed-goto label), flattened
// operands and cumulative static timing, so the dispatcher retires the
// whole block with batched instret/cycles/mix updates and no per-
// instruction switch re-entry. An op's executor kind, rd == x0 fold and
// static cycles come from its row in the op tables (sim/ops.hpp), the
// same rows the interpreter executes from.
//
// Everything here is host-side acceleration only. The contract is the
// same as for every other hot-path structure: host speed may change,
// simulated observables (instret, cycles, traps, InstrMix, cache
// stats) may not — tests/superblock_test.cpp fuzzes the tier against
// the step() interpreter bit-for-bit.
#pragma once

#include <algorithm>
#include <cstddef>
#include <memory>
#include <type_traits>
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

/// Executor kind: one computed-goto label in the dispatcher each.
/// Defined in sim/ops.hpp, from the op tables.
enum class SbKind : u8;

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

/// 2-way inline cache for indirect-jump (`jalr`) targets: every
/// Superblock embeds one, used when its ender is a Jalr, keyed on the
/// dynamic target and holding the chained successor block (null until
/// translated).
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
/// Per-block state (chain edges, the jalr inline cache) lives on the
/// Superblock: only a block's last op ever uses it.
struct SbOp {
    const void* label = nullptr; ///< computed-goto target, pre-bound
    i64 imm = 0;        ///< immediate / absolute control-transfer target
    u64 aux = 0;        ///< Const value / link address (pc + 4)
    u64 pc = 0;
    u32 uop_idx = 0;    ///< absolute index into Machine::uops_
    u32 cum_static = 0; ///< static cycles of ops[0..this], inclusive
    SbKind kind{};
    u8 flags = 0;
    u8 rd = 0;
    u8 rs1 = 0;
    u8 rs2 = 0;
    u8 width = 0;      ///< memory access width (checked ops)
    u8 block_pos = 0;  ///< index of this op inside its block
    u8 cum_repeat = 0; ///< repeat-hit fetches in ops[0..this], inclusive
};
// Translation copies every op once and the dispatcher streams them:
// more than 48 bytes would cost both, so new per-block state belongs
// on Superblock.
static_assert(sizeof(SbOp) <= 48, "SbOp grew: move the field to Superblock");
static_assert(kMaxSuperblockLen < 256, "block_pos/cum_repeat are u8");

/// InstrMix buckets (one per InstrMix counter): the most a block's
/// batched mix update can touch.
inline constexpr unsigned kMixBuckets = 12;

/// A translated block. Lives in the SuperblockCache's chunked storage,
/// so its address is stable for the cache's lifetime; `ops` points into
/// the cache's op arena.
struct Superblock {
    const SbOp* ops = nullptr; ///< len ops, + EndFall terminator if uncapped
    u32 first_uop = 0;
    u32 len = 0;          ///< real instructions (EndFall excluded)
    /// What chaining into this block adds to instret before comparing
    /// with the stop point: len, or ~0 while the periodic fast-forward
    /// watches the block (sim/period.hpp), so that every entry of it
    /// goes through the dispatcher's outer loop.
    u32 chain_len = 0;
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
    u8 n_mix = 0; ///< used entries of mix_delta
    // Chain edges of the ender, resolved lazily by the dispatcher (null
    // until the successor is translated; blocks are never freed before
    // the cache, so they can never dangle).
    Superblock* edge_taken = nullptr;
    Superblock* edge_fall = nullptr;
    /// Jalr ender: 2-way inline cache keyed on the dynamic target.
    JalrCache2 jalr{};
    /// Batched InstrMix update: (bucket, count) for every bucket this
    /// block touches, applied once per block execution.
    std::pair<u64 InstrMix::*, u64> mix_delta[kMixBuckets];
};

/// Host-side tier counters (fault_campaign sums some into a host-side
/// block; they are never part of the simulated envelope).
struct DbtStats {
    u64 blocks = 0;        ///< superblocks translated (cumulative)
    /// SbOps those blocks hold, EndFall terminators included
    /// (cumulative): translation work is blocks x ops per block.
    u64 translated_ops = 0;
    u64 block_execs = 0;   ///< dispatcher block entries
    u64 chained = 0;       ///< block→block transfers that skipped the dispatcher
    u64 jalr_hits = 0;     ///< jalr 2-way inline-cache hits
    u64 jalr_misses = 0;   ///< jalr inline-cache misses (way refilled)
    /// Runs that used the interpreter because of a trace hook. A probe
    /// hook never makes a run fall back.
    u64 fallback_runs = 0;
    /// Exact periodic fast-forwards (sim/period.hpp) and the
    /// instructions they skipped.
    u64 period_skips = 0;
    u64 skipped_instret = 0;
    /// Jumps to a golden-prefix checkpoint (sim/checkpoint.hpp) and the
    /// instructions they skipped: each checkpoint's instret minus the
    /// instret the run jumped from.
    u64 prefix_restores = 0;
    u64 restored_instret = 0;
    /// Times a faulted run's state equalled a stored checkpoint again,
    /// so that it rejoined the golden run.
    u64 rejoins = 0;
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
    /// Computed-goto label table indexed by SbKind.
    const void* const* labels = nullptr;
};

/// Append-only storage in fixed-size chunks of uninitialized slots, so
/// a fresh chunk costs one allocation and no writes. Handed-out slots
/// never move (the dispatcher writes chain edges into a block after it
/// was handed out); the destructor frees every chunk.
template <class T, u32 kChunk>
class ChunkArena {
    static_assert(std::is_trivially_destructible_v<T>,
                  "freeing a chunk runs no destructors");

public:
    /// `n` <= kChunk contiguous uninitialized slots; the caller
    /// constructs into them. A chunk without room for `n` is left with
    /// its tail unused.
    T* take(u32 n)
    {
        if (chunks_.empty() || used_ + n > kChunk) {
            chunks_.push_back(std::make_unique_for_overwrite<Slot[]>(kChunk));
            used_ = 0;
        }
        T* p = reinterpret_cast<T*>(&chunks_.back()[used_]);
        used_ += n;
        return p;
    }

private:
    struct alignas(T) Slot {
        std::byte bytes[sizeof(T)];
    };
    std::vector<std::unique_ptr<Slot[]>> chunks_;
    u32 used_ = 0;
};

/// Translated-block store: a flat pc-indexed table over the uop range
/// (lookup is one load, like the uop table itself) plus ownership of
/// the blocks and their ops, both in chunked arenas: translating a
/// block makes no heap allocation of its own. Blocks depend only on
/// the predecoded text and the config, never on the memory map, so they
/// live as long as the cache.
class SuperblockCache {
public:
    /// Arena chunk sizes, 48 KiB of ops and about 18 KiB of blocks:
    /// most short runs fit in one chunk of each.
    static constexpr u32 kOpsPerChunk = 1024;
    static constexpr u32 kBlocksPerChunk = 64;

    SuperblockCache() { scratch_.reserve(kMaxSuperblockLen + 1); }

    /// Translated block starting at `pc`, translating on first use.
    /// `pc` must already be validated (in text range, 4-aligned).
    Superblock* get_or_translate(const TranslateEnv& env, u64 pc,
                                 DbtStats& st);

private:
    ChunkArena<Superblock, kBlocksPerChunk> blocks_;
    ChunkArena<SbOp, kOpsPerChunk> ops_;
    std::vector<SbOp> scratch_; ///< the block being translated
    std::vector<Superblock*> at_; ///< indexed by (pc - text_base) >> 2
};

} // namespace hwst::sim
