// Machine: the simulated HWST128 RISC-V processor + proxy-kernel
// runtime. Substitutes for the paper's Rocket Chip on the ZCU102 FPGA
// (DESIGN.md §2): a functional RV64IM+HWST executor with a 5-stage
// in-order timing model (load-use hazard, static branch prediction,
// D-cache), the SHORE/HWST128 shadow register file, the COMP/DECOMP/
// SMAC/SCU/TCU units and the keybuffer.
#pragma once

#include <array>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "hwst/csr.hpp"
#include "hwst/trap.hpp"
#include "hwst/units.hpp"
#include "mem/allocator.hpp"
#include "mem/cache.hpp"
#include "mem/memory.hpp"
#include "metadata/keybuffer.hpp"
#include "metadata/srf.hpp"
#include "riscv/program.hpp"
#include "sim/superblock.hpp"

namespace hwst::sim {

using common::i64;
using common::u32;
using common::u64;
using riscv::Reg;

/// Cycle costs of the in-order 5-stage pipeline (Rocket-like).
struct TimingConfig {
    unsigned branch_taken_penalty = 3; ///< Rocket resolves in MEM
    unsigned load_use_stall = 1;       ///< consumer right after a load
    unsigned mul_extra = 3;            ///< iterative multiplier
    unsigned div_extra = 24;
    unsigned csr_extra = 1;
    unsigned ecall_cost = 140; ///< proxy-kernel round trip

    bool operator==(const TimingConfig&) const = default;
};

/// Runtime (proxy-kernel) behaviour knobs, set per protection scheme by
/// the compiler driver.
struct RuntimeConfig {
    /// ASAN model: bytes of redzone around each heap block (0 = off).
    u64 asan_redzone = 0;
    /// ASAN model: delay reuse of freed blocks (use-after-free windows).
    bool quarantine = false;
    u64 quarantine_bytes = 1u << 20;
    /// Baseline libc behaviour: abort on free() of a non-block address
    /// (glibc "free(): invalid pointer").
    bool libc_free_aborts = true;
    /// SBCETS: pre-populate the software metadata trie's L1 table (the
    /// role of the runtime's mmap-on-demand in real SoftBound).
    bool init_sw_trie = false;

    bool operator==(const RuntimeConfig&) const = default;
};

/// Execution tiers (docs/performance.md "Execution tiers"): the step()
/// interpreter and the superblock computed-goto dispatcher. The
/// dispatcher is a pure host-side accelerator — simulated results are
/// bit-identical on both. `Auto`, the config default, always resolves
/// to `Dbt`; it stays a distinct value because reprobench initialises
/// its recorded tier with it.
enum class ExecTier : common::u8 { Auto, Interp, Dbt };

constexpr std::string_view tier_name(ExecTier t)
{
    switch (t) {
    case ExecTier::Auto: return "auto";
    case ExecTier::Interp: return "interp";
    case ExecTier::Dbt: return "dbt";
    }
    return "unknown";
}

/// HWST_TIER (auto/interp/dbt, case-insensitive), or nullopt when unset
/// or not in that vocabulary (with a warn-once diagnostic). The one
/// parser of the variable: the Machine constructor and the tests read
/// the tier through it.
std::optional<ExecTier> env_tier();

struct MachineConfig {
    mem::CacheConfig dcache{};
    /// L1 I-cache timing model (Rocket default 16 KiB). Instrumented
    /// code is 3-4x larger, so instruction-fetch locality is a real
    /// scheme differentiator.
    mem::CacheConfig icache{};
    bool icache_enabled = true;
    unsigned keybuffer_entries = 8;
    /// false models accelerators without a lock cache (WDL): tchk loads
    /// the key from memory on every check.
    bool keybuffer_enabled = true;
    u64 fuel = 400'000'000; ///< max instructions before FuelExhausted
    /// Execution tier. `Auto` and `Dbt` run the superblock dispatcher,
    /// `Interp` pins the interpreter. Runs automatically fall back to
    /// the interpreter while a trace hook is installed; a probe hook
    /// keeps the run on the dispatcher (see Machine::set_probe_hook).
    /// The HWST_TIER environment variable (see env_tier()) overrides
    /// this field — it is how the tier-smoke bench target forces both
    /// tiers through identical binaries.
    ExecTier tier = ExecTier::Auto;
    TimingConfig timing{};
    RuntimeConfig runtime{};

    bool operator==(const MachineConfig&) const = default;
};

/// Retired-instruction mix, grouped by pipeline role. The benches use
/// it to show *where* each scheme's overhead comes from (metadata
/// traffic vs checks vs plain work).
struct InstrMix {
    u64 alu = 0;
    u64 loads = 0;          ///< plain loads
    u64 stores = 0;         ///< plain stores
    u64 checked_loads = 0;  ///< HWST checked loads (SCU-fused)
    u64 checked_stores = 0;
    u64 meta_moves = 0;     ///< sbdl/sbdu/lbdls/lbdus/lbas/lbnd/lkey/lloc
    u64 binds = 0;          ///< bndrs/bndrt
    u64 tchk = 0;
    u64 branches = 0;       ///< conditional branches
    u64 jumps = 0;          ///< jal/jalr
    u64 ecalls = 0;
    u64 other = 0;

    u64 total() const
    {
        return alu + loads + stores + checked_loads + checked_stores +
               meta_moves + binds + tchk + branches + jumps + ecalls +
               other;
    }

    bool operator==(const InstrMix&) const = default;
};

/// Outcome of a complete run.
struct RunResult {
    hwst::Trap trap{};          ///< kind None if the program exited
    i64 exit_code = 0;
    u64 cycles = 0;
    u64 instret = 0;
    std::vector<i64> output;    ///< values printed via Sys::PrintI64
    mem::CacheStats dcache;
    mem::CacheStats icache;
    metadata::KeybufferStats keybuffer;
    u64 scu_checks = 0;
    u64 tcu_checks = 0;
    u64 scu_saturated = 0; ///< checks rejected on the saturating encoding
    u64 tcu_saturated = 0;
    u64 smac_translations = 0;
    InstrMix mix;

    bool ok() const { return trap.kind == hwst::TrapKind::None; }
};

/// Every simulated counter of a Machine: the RunResult counters plus
/// the SCU/TCU violation counts. Counters only ever grow, and the
/// program can observe only cycle and instret (csr reads, ReadCycle),
/// so a run whose State repeats adds the same delta every period
/// (docs/performance.md "Periodic fast-forward").
struct Counters {
    u64 cycles = 0;
    u64 instret = 0;
    InstrMix mix;
    mem::CacheStats dcache;
    mem::CacheStats icache;
    metadata::KeybufferStats keybuffer;
    hwst::CheckStats scu;
    hwst::CheckStats tcu;
    u64 smac_translations = 0;

    /// Field-wise difference (`*this` must not be below `o`).
    Counters operator-(const Counters& o) const;
    /// `*this += k * delta`, field-wise.
    void add_scaled(const Counters& delta, u64 k);
};

/// All simulated state of a Machine except its Counters, as one value
/// with exact `==`: two Machines with equal States (and the same
/// Program and MachineConfig) retire the same instructions with the
/// same counter deltas from then on. Host-side accelerators (predecode,
/// superblocks, the memory translation cache, the CSR memo version, the
/// interpreter's last fetch) are not part of it, and the keybuffer's LRU
/// ticks appear only as their order.
struct State {
    u64 pc = 0;
    std::array<u64, riscv::kNumRegs> regs{};
    metadata::ShadowRegFile::Entries srf{};
    std::array<u64, 7> csrs{};
    bool running = false;
    i64 exit_code = 0;
    Reg last_load_rd = Reg::zero; ///< load-use hazard across blocks
    std::vector<metadata::Keybuffer::RankedSlot> keybuffer;
    mem::Cache::Snapshot dcache;
    mem::Cache::Snapshot icache;
    common::Shared<mem::HeapAllocator> heap;
    common::Shared<mem::LockAllocator> locks;
    std::vector<std::pair<u64, u64>> quarantine;
    u64 quarantine_used = 0;
    std::vector<mem::Memory::Region> regions;
    mem::Memory::PageImage pages;
    /// Output only ever grows, so equal lengths mean equal output.
    std::size_t output_len = 0;

    bool operator==(const State&) const = default;
};

/// Architecturally meaningful points where a value can be observed or
/// perturbed in flight (fault injection, instrumentation tooling). Each
/// names a 64-bit datapath of Fig. 3; the fault engine in src/fault/
/// builds its injection campaigns on these.
enum class Probe : common::u8 {
    SrfSpatialWrite,  ///< compressed lo half on its way into the SRF
    SrfTemporalWrite, ///< compressed hi half on its way into the SRF
    LmsmStore,        ///< sbdl/sbdu write data to the shadow memory
    LmsmLoad,         ///< shadow word loaded by lbdls/lbdus/lbas/.../lloc
    KeybufferFill,    ///< key inserted into the keybuffer on a tchk miss
    KeybufferLookup,  ///< key returned by a keybuffer hit
    CompCsrWidths,    ///< csr.bitw field widths as COMP/DECOMP read them
    DcacheFillData,   ///< load data arriving on a D-cache miss refill
};

inline constexpr unsigned kNumProbes = 8;

/// One quiet point per Probe, indexed by its value: the probe hook is
/// called at point `p` only on instructions retiring with instret >=
/// quiet[p] (see Machine::set_probe_hook).
using ProbeQuiet = std::array<u64, kNumProbes>;

/// Every point quiet for good: no hook call ever.
inline constexpr ProbeQuiet kProbesQuiet = [] {
    ProbeQuiet q{};
    q.fill(~u64{0});
    return q;
}();

/// One instret per Probe, indexed by its value: that of the latest
/// instruction of a run to reach the point, live or quiet, 0 if none has
/// (see Machine::last_reaches()).
using ProbeReaches = std::array<u64, kNumProbes>;

class Machine;

enum class SrfRule : common::u8; // sim/ops.hpp
class PeriodDetector;  // sim/period.hpp
class CheckpointStore; // sim/checkpoint.hpp
struct Checkpoint;     // sim/checkpoint.hpp
struct CheckpointKey;  // sim/checkpoint.hpp

/// Superblock-tier dispatcher (sim/dispatch_impl.hpp); a friend of Machine
/// so the executor bodies can touch the interpreter's state directly.
/// `Hooked` picks the copy that runs with probe points live.
template <bool Hooked>
bool run_superblocks(Machine& m, const std::function<bool()>* cancel,
                     u64 stride, u64 stop, hwst::Trap& out);

/// Counters of the retired native-code tier. Always zero: reprobench
/// still reports them as its sim.jit_* per-layer metrics, so the type
/// and Machine::jit_stats() stay until a benchmark change drops those.
struct JitStats {
    u64 translated = 0;
    u64 code_bytes = 0;
};

/// One predecoded instruction (docs/performance.md). Built once at
/// Machine construction from program.code(), indexed by
/// (pc - text_base) >> 2: everything step() used to re-derive per
/// retired instruction — format, operand-read flags, load-ness, the
/// InstrMix bucket and the functional-unit cycles — is looked up
/// instead. Pure acceleration: the facts are exactly what the riscv::
/// helpers and the op tables (sim/ops.hpp) give, which
/// tests/perf_paths_test.cpp asserts.
struct Uop {
    riscv::Instruction in;   ///< copy, for locality
    riscv::Format fmt;       ///< riscv::op_format(in.op)
    bool reads_rs1;          ///< format reads rs1 (load-use hazard)
    bool reads_rs2;          ///< format reads rs2 (load-use hazard)
    bool is_load;            ///< riscv::is_load(in.op)
    u32 fu_cycles;           ///< functional-unit cycles on top of issue
    u64 InstrMix::* bucket;  ///< the InstrMix counter for in.op
};

constexpr std::string_view probe_name(Probe p)
{
    switch (p) {
    case Probe::SrfSpatialWrite: return "srf-spatial-write";
    case Probe::SrfTemporalWrite: return "srf-temporal-write";
    case Probe::LmsmStore: return "lmsm-store";
    case Probe::LmsmLoad: return "lmsm-load";
    case Probe::KeybufferFill: return "keybuffer-fill";
    case Probe::KeybufferLookup: return "keybuffer-lookup";
    case Probe::CompCsrWidths: return "comp-csr-widths";
    case Probe::DcacheFillData: return "dcache-fill-data";
    }
    return "unknown";
}

class Machine {
public:
    /// The program must be finalized. The Machine maps the process
    /// address space, loads text+data, points sp at the stack top and
    /// programs the HWST CSRs from the program's MemoryLayout.
    explicit Machine(const riscv::Program& program, MachineConfig cfg = {});

    /// Run to completion (exit, trap, or fuel exhaustion).
    RunResult run();

    /// Like run(), but polls `cancel` every `stride` retired
    /// instructions and returns std::nullopt when it fires (the machine
    /// state stays inspectable). Execution is otherwise identical to
    /// run(): an uncancelled run produces the exact same RunResult.
    /// Throws common::SimError if the finished run breaks counter
    /// conservation on either tier: InstrMix total != instret, or
    /// keybuffer lookups != TCU checks that did not saturate (0 with
    /// the keybuffer off), one more allowed in a run that ended with an
    /// AccessFault (a tchk whose key load faulted).
    std::optional<RunResult> run_cancellable(
        const std::function<bool()>& cancel, u64 stride = 4096);

    /// Execute one instruction. Returns a trap (kind None = keep going).
    hwst::Trap step()
    {
        prefix_golden_ = false;
        return retire_one();
    }

    /// Per-instruction trace hook, invoked before each instruction
    /// executes (debugger/tooling support). Pass nullptr to disable.
    using TraceHook =
        std::function<void(u64 pc, const riscv::Instruction&)>;
    void set_trace(TraceHook hook) { trace_ = std::move(hook); }

    /// Value-perturbation hook, invoked at Probe points with the
    /// in-flight value; whatever it returns is used instead (return
    /// `value` unchanged for a transparent observer). Pass nullptr to
    /// disable. The fault engine (src/fault/) is the main client.
    ///
    /// `quiet` holds one quiet point per Probe: the hook is called at
    /// point `p` only by instructions that retire with `instret >=
    /// quiet[p]`, and `instret` is what step() would pass, on either
    /// tier. The default (all 0) calls it everywhere; ~0 never calls it
    /// at that point. The run stays on the dispatcher tier either way.
    /// The hook sees only its arguments: on the dispatcher, Machine
    /// counters such as cycles() and instret() are batched per block,
    /// so they may lag the instruction in flight.
    ///
    /// A probe-hooked dispatcher run shares golden-prefix checkpoints
    /// with the other Machines of its Program (sim/checkpoint.hpp): it
    /// first has a second Machine record the golden run under its
    /// config, if no run has yet. While no probe call has changed a
    /// value, and again once its state equals a stored checkpoint, it
    /// jumps ahead along the golden run, at its start and at each stored
    /// checkpoint it reaches, as far as no skipped instruction would
    /// have called the hook.
    using ProbeHook = std::function<u64(Probe, u64 instret, u64 value)>;
    void set_probe_hook(ProbeHook hook, const ProbeQuiet& quiet = {})
    {
        probe_hook_ = std::move(hook);
        set_probe_quiet(quiet);
    }

    /// Re-declare the hook's quiet points (same meaning as
    /// set_probe_hook's `quiet`). The hook may call this from inside a
    /// probe call; the next probe call reads the new points.
    void set_probe_quiet(const ProbeQuiet& quiet)
    {
        probe_quiet_ = probe_hook_ ? quiet : kProbesQuiet;
    }

    // ---- introspection (tests, examples) -----------------------------
    // The mutable accessors and step() leave the golden run (see
    // prefix_golden_).
    u64 reg(Reg r) const { return regs_[riscv::reg_index(r)]; }
    u64 pc() const { return pc_; }
    u64 cycles() const { return cycles_; }
    u64 instret() const { return instret_; }
    bool running() const { return running_; }

    /// The simulated state and counters as values (see State).
    State state() const;
    Counters counters() const;

    mem::Memory& memory()
    {
        prefix_golden_ = false;
        return mem_;
    }
    const mem::Memory& memory() const { return mem_; }
    metadata::ShadowRegFile& srf()
    {
        prefix_golden_ = false;
        return srf_;
    }
    const metadata::Keybuffer& keybuffer() const { return keybuffer_; }
    hwst::HwstCsrFile& csrs()
    {
        prefix_golden_ = false;
        return csrs_;
    }
    const mem::Cache& dcache() const { return dcache_; }
    mem::HeapAllocator& heap()
    {
        prefix_golden_ = false;
        return *heap_;
    }
    mem::LockAllocator& locks()
    {
        prefix_golden_ = false;
        return *locks_;
    }
    const std::vector<i64>& output() const { return output_; }

    /// Decompression config currently programmed in the CSRs.
    metadata::CompressionConfig compression() const
    {
        return csrs_.compression();
    }

    /// The predecoded instruction stream (read-only; tests assert it
    /// against per-instruction re-derivation).
    std::span<const Uop> uops() const { return uops_; }

    /// Host-side counters of the superblock DBT tier (never part of the
    /// simulated envelope).
    const DbtStats& dbt_stats() const { return dbt_stats_; }

    /// Per Probe, the instret of the latest instruction of this run to
    /// reach the point, whether the hook was live there or not (0:
    /// none): every probe site of the interpreter and of the
    /// probe-hooked dispatcher sets it (the hook-free dispatcher has
    /// none). Host-side bookkeeping for the golden-prefix checkpoints'
    /// jump rule, never part of State: a jump takes the checkpoint's.
    const ProbeReaches& last_reaches() const { return last_reach_; }

    /// Always zero (see JitStats).
    JitStats jit_stats() const { return {}; }

    /// The execution tier this Machine resolved to (config and
    /// HWST_TIER folded together at construction; never Auto).
    /// Trace hooks still pin individual runs to the interpreter.
    ExecTier tier() const { return tier_; }

private:
    template <bool Hooked>
    friend bool run_superblocks(Machine&, const std::function<bool()>*,
                                u64, u64, hwst::Trap&);
    friend class PeriodDetector;
    friend class CheckpointStore;
    void set_counters(const Counters& c);
    /// state() without its pages; allocators equal to those of `share`
    /// (an earlier State) reuse its copies.
    State state_except_pages(const State* share) const;
    /// Take the state of a golden-prefix checkpoint (sim/checkpoint.hpp)
    /// and drop every host cache derived from simulated state.
    void restore(const Checkpoint& c);
    /// True if the State, Counters and output equal `c`'s, compared in
    /// place, cheapest field first.
    bool matches(const Checkpoint& c) const;
    /// run_cancellable's three run kinds; false when `cancel` fired.
    bool run_interpreted(const std::function<bool()>& cancel, u64 stride,
                         hwst::Trap& out);
    bool run_hook_free(const std::function<bool()>& cancel, u64 stride,
                       hwst::Trap& out);
    bool run_probe_hooked(const std::function<bool()>& cancel, u64 stride,
                          hwst::Trap& out);
    /// Record the golden run under `key` in `store` on a second Machine
    /// with every point quiet, from the furthest stored checkpoint on
    /// (false when `cancel` fired). Its translation and dispatch counts
    /// are added to this Machine's dbt_stats().
    bool record(CheckpointStore& store, const CheckpointKey& key,
                const std::function<bool()>& cancel, u64 stride);
    /// The block cache of the run_superblocks<Hooked> copy (null until
    /// its first run).
    template <bool Hooked>
    std::unique_ptr<SuperblockCache>& sbcache()
    {
        return Hooked ? sbcache_hooked_ : sbcache_;
    }
    /// One run_superblocks<Hooked> segment up to `stop`, on the block
    /// cache of that copy.
    template <bool Hooked>
    bool dispatch(const std::function<bool()>& cancel, u64 stride, u64 stop,
                  hwst::Trap& out);
    void set_reg(Reg r, u64 v)
    {
        if (r != Reg::zero) regs_[riscv::reg_index(r)] = v;
    }
    /// step() without leaving the golden run: the interpreter loop and
    /// the dispatcher's block tails.
    hwst::Trap retire_one();
    /// One instruction's effect, its SRF rule and dynamic cycles
    /// included; instret, the issue and functional-unit cycles and the
    /// InstrMix count are the caller's. The dispatcher runs its
    /// interp-one ops through exec() and its generic HWST ops through
    /// exec_hwst<false>.
    hwst::Trap exec(const riscv::Instruction& in, u64& next_pc);
    template <bool Hooked>
    hwst::Trap exec_hwst(const riscv::Instruction& in);
    hwst::Trap exec_ecall();

    /// Compression config as COMP/DECOMP see it: the CSR widths routed
    /// through the CompCsrWidths probe, then validated. `valid == false`
    /// means the (possibly perturbed) widths are unusable and any
    /// metadata operation must trap rather than compute garbage.
    struct ActiveCompression {
        metadata::CompressionConfig cfg;
        bool valid;
    };
    const ActiveCompression& active_compression();

    // ---- op semantics, defined once in sim/ops.hpp ---------------------
    // `Hooked`: probe points live and the csr.bitw decode through
    // active_compression() (the interpreter and the probe-hooked
    // dispatcher), or no probes and the decode memo read directly (the
    // hook-free dispatcher).

    /// The instret step() passes to a probe for the instruction in
    /// flight: on the dispatcher, instret_ plus the ops of the block
    /// not yet counted.
    u64 probe_instret() const { return instret_ + probe_pos_; }
    /// Whether the hook is called at `p` for the instruction in flight.
    bool probe_live(Probe p) const
    {
        return probe_instret() >= probe_quiet_[static_cast<unsigned>(p)];
    }
    /// Note a reach of `p` and run `value` through the probe hook while
    /// `p` is live (identity otherwise, and always for Hooked = false).
    template <bool Hooked>
    u64 probe(Probe p, u64 value);
    /// probe() without the note. A changed value leaves the golden run.
    u64 call_probe_if_live(Probe p, u64 value);
    template <bool Hooked>
    const ActiveCompression& compression();
    hwst::Trap violation(hwst::TrapKind kind, u64 tval);
    hwst::Trap bad_widths();
    /// Write a result to rd and apply `R` to its shadow register.
    /// `RdNonZero`: translation folded rd == x0 away.
    template <SrfRule R, bool RdNonZero>
    void write_rd(Reg rd, Reg rs1, Reg rs2, u64 v);
    unsigned dcache_extra(u64 addr);
    template <bool Hooked>
    u64 mem_load(u64 addr, unsigned width, bool sign_extend);
    void mem_store(u64 addr, unsigned width, u64 value);
    template <bool Hooked>
    void load(Reg rd, u64 addr, unsigned width, bool sign);
    template <bool Hooked>
    hwst::Trap spatial_check(Reg ptr, u64 addr, unsigned width);
    template <bool Hooked>
    hwst::Trap checked_load(Reg rd, Reg ptr, u64 addr, unsigned width,
                            bool sign);
    template <bool Hooked>
    hwst::Trap checked_store(Reg ptr, u64 addr, unsigned width, Reg src);
    template <bool Hooked>
    hwst::Trap bndr(bool temporal, Reg rd, u64 a, u64 b);
    template <bool Hooked>
    void sbd(u64 slot, u64 container, Reg src);
    template <bool Hooked>
    void lbd(u64 slot, Reg rd, u64 container);
    template <bool Hooked>
    hwst::Trap tchk(Reg ptr);

    // Superblock DBT tier state. The hook-free dispatcher copy's block
    // cache (the probe-hooked copy has its own, sbcache_hooked_: the
    // copies bind different label addresses), created lazily on its
    // first run; comp_memo_ caches active_compression(), and
    // comp_version_ is the CSR file's version at which it holds the
    // decode of the unperturbed widths (~0: none). The quiet fast paths
    // read only these two; a live CompCsrWidths point keys its reuse on
    // comp_memo_key_ below.
    std::unique_ptr<SuperblockCache> sbcache_;
    DbtStats dbt_stats_;
    u64 comp_version_ = ~u64{0};
    ActiveCompression comp_memo_{};

    const riscv::Program& program_;
    MachineConfig cfg_;

    // Predecoded instruction stream + hoisted bounds (see Uop), and the
    // lock region stores are snooped on (keybuffer coherence).
    std::vector<Uop> uops_;
    u64 text_base_ = 0;
    u64 code_bytes_ = 0;
    u64 lock_base_ = 0;
    u64 lock_bytes_ = 0;

    std::array<u64, riscv::kNumRegs> regs_{};
    u64 pc_ = 0;
    u64 cycles_ = 0;
    u64 instret_ = 0;
    bool running_ = true;
    // In running_'s padding, so that DbtStats can grow without moving a
    // member the hook-free dispatcher reads.
    ExecTier tier_ = ExecTier::Dbt; ///< resolved tier (see tier())
    i64 exit_code_ = 0;

    mem::Memory mem_;
    mem::Cache dcache_;
    mem::Cache icache_;
    metadata::ShadowRegFile srf_;
    metadata::Keybuffer keybuffer_;
    hwst::HwstCsrFile csrs_;
    hwst::Smac smac_;
    hwst::Scu scu_;
    hwst::Tcu tcu_;

    std::unique_ptr<mem::HeapAllocator> heap_;
    std::unique_ptr<mem::LockAllocator> locks_;
    std::vector<std::pair<u64, u64>> quarantine_; // addr, size
    u64 quarantine_used_ = 0;

    std::vector<i64> output_;

    // Load-use hazard bookkeeping: destination of the previous
    // instruction if it was a load, else Reg::zero.
    Reg last_load_rd_ = Reg::zero;

    // pc of the interpreter's last full I$ fetch, or kNoFetch. A fetch
    // from the same line finds it at way 0 of its set, so retire_one()
    // counts a repeat hit without the lookup (as the dispatcher's
    // kOpFetchRepeat does). Host-only, never part of State: reset at
    // dispatcher entry (its fetches move the I$ on) and on restore().
    static constexpr u64 kNoFetch = ~u64{0};
    u64 fetch_pc_ = kNoFetch;

    // Set whenever the program reads cycle or instret (csr read or
    // Sys::ReadCycle): the periodic fast-forward never skips a window
    // in which the counters were observable.
    bool counters_read_ = false;
    // The running run's periodic fast-forward detector, if it has one
    // (it attaches itself; see sim/period.hpp).
    PeriodDetector* period_ = nullptr;

    InstrMix mix_;
    TraceHook trace_;
    ProbeHook probe_hook_;
    ProbeQuiet probe_quiet_ = kProbesQuiet; ///< see set_probe_hook
    // Ops of the running block executed but not yet counted in
    // instret_, the one in flight included: set by the probe-hooked
    // dispatcher copy, 0 everywhere else (see probe_instret()).
    u64 probe_pos_ = 0;

    // True while this Machine's state is the hook-free run's: no probe
    // call has returned a value other than its argument, no instruction
    // was interpreted outside the dispatcher, and no accessor has handed
    // out mutable state. Such a Machine may jump ahead to golden-prefix
    // checkpoints (sim/checkpoint.hpp). Cleared by the probe call that
    // changes a value, by interpreted instructions and by the mutable
    // accessors; set again when a probe-hooked run's state equals a
    // stored checkpoint.
    bool prefix_golden_ = true;

    // The probe-hooked dispatcher copy's block cache (see sbcache_).
    // This and the members below come last, so that no member the
    // hook-free dispatcher reads moved.
    std::unique_ptr<SuperblockCache> sbcache_hooked_;
    // What comp_memo_ decodes, whatever comp_version_ says: the CSR
    // version and the (possibly perturbed) widths. A live CompCsrWidths
    // point reuses the decode while both are unchanged (the version
    // covers the lock base too).
    struct {
        u64 version = ~u64{0};
        u32 widths = 0;
    } comp_memo_key_;
    // See last_reaches(). Set by probe<true>() and, for CompCsrWidths,
    // by compression<true>(): at every reach whatever the quiet points
    // and the decode memo hold, so that a golden run's latest reaches
    // at an instret depend only on the instructions before it.
    ProbeReaches last_reach_{};
};

} // namespace hwst::sim
