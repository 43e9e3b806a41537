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
/// parser of the variable: the Machine constructor and the engine's
/// divergence sentinel both read the tier through it.
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
    /// the interpreter while a trace hook is installed, and while the
    /// probe hook is not quiet (see Machine::set_probe_hook). The
    /// HWST_TIER environment variable (see env_tier()) overrides this
    /// field — it is how the tier-smoke bench target forces both tiers
    /// through identical binaries.
    ExecTier tier = ExecTier::Auto;
    TimingConfig timing{};
    RuntimeConfig runtime{};
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
    /// Memory-traffic instructions added by metadata handling.
    u64 metadata_traffic() const { return meta_moves; }

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
/// superblocks, the memory translation cache, the CSR memo version)
/// are not part of it, and LRU ticks appear only as their order.
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
    mem::HeapAllocator heap;
    mem::LockAllocator locks;
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

class Machine;

class PeriodDetector; // sim/period.hpp

/// Superblock-tier dispatcher (sim/dispatch.cpp); a friend of Machine
/// so the executor bodies can touch the interpreter's state directly.
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
/// retired instruction — format, operand-read flags, load-ness and the
/// InstrMix bucket — is looked up instead. Pure acceleration: the facts
/// are exactly what the riscv:: helpers and the old classify() switch
/// would compute, which tests/perf_paths_test.cpp asserts.
struct Uop {
    riscv::Instruction in;   ///< copy, for locality
    riscv::Format fmt;       ///< riscv::op_format(in.op)
    bool reads_rs1;          ///< format reads rs1 (load-use hazard)
    bool reads_rs2;          ///< format reads rs2 (load-use hazard)
    bool is_load;            ///< riscv::is_load(in.op)
    u64 InstrMix::* bucket;  ///< the classify() counter for in.op
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
    std::optional<RunResult> run_cancellable(
        const std::function<bool()>& cancel, u64 stride = 4096);

    /// Execute one instruction. Returns a trap (kind None = keep going).
    hwst::Trap step();

    /// Per-instruction trace hook, invoked before each instruction
    /// executes (debugger/tooling support). Pass nullptr to disable.
    using TraceHook =
        std::function<void(u64 pc, const riscv::Instruction&)>;
    void set_trace(TraceHook hook) { trace_ = std::move(hook); }

    /// Value-perturbation hook, invoked at every Probe point with the
    /// in-flight value; whatever it returns is used instead (return
    /// `value` unchanged for a transparent observer). Pass nullptr to
    /// disable. The fault engine (src/fault/) is the main client.
    ///
    /// `quiet_before` is the caller's promise that every call with
    /// `instret < quiet_before` returns `value` unchanged and has no
    /// side effect. The dispatcher tier then runs with the hook detached
    /// until the next instruction would retire with `instret ==
    /// quiet_before`, and the interpreter takes over with the hook
    /// live. 0 (no promise) keeps the whole run on the interpreter.
    using ProbeHook = std::function<u64(Probe, u64 instret, u64 value)>;
    void set_probe_hook(ProbeHook hook, u64 quiet_before = 0)
    {
        probe_hook_ = std::move(hook);
        probe_quiet_before_ = quiet_before;
    }

    /// Re-declare the hook's quiet point (same promise as
    /// set_probe_hook's `quiet_before`). The hook may call this from
    /// inside a probe call: the interpreter re-reads the quiet point
    /// after every retired instruction and hands the run back to the
    /// dispatcher as soon as the next instruction is quiet again.
    void set_probe_quiet_before(u64 quiet_before)
    {
        probe_quiet_before_ = quiet_before;
    }

    // ---- introspection (tests, examples) -----------------------------
    u64 reg(Reg r) const { return regs_[riscv::reg_index(r)]; }
    void set_reg(Reg r, u64 v)
    {
        if (r != Reg::zero) regs_[riscv::reg_index(r)] = v;
    }
    u64 pc() const { return pc_; }
    void set_pc(u64 pc) { pc_ = pc; }
    u64 cycles() const { return cycles_; }
    u64 instret() const { return instret_; }
    bool running() const { return running_; }

    /// The simulated state and counters as values (see State).
    State state() const;
    Counters counters() const;

    mem::Memory& memory() { return mem_; }
    const mem::Memory& memory() const { return mem_; }
    metadata::ShadowRegFile& srf() { return srf_; }
    const metadata::Keybuffer& keybuffer() const { return keybuffer_; }
    hwst::HwstCsrFile& csrs() { return csrs_; }
    const mem::Cache& dcache() const { return dcache_; }
    mem::HeapAllocator& heap() { return *heap_; }
    mem::LockAllocator& locks() { return *locks_; }
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

    /// Always zero (see JitStats).
    JitStats jit_stats() const { return {}; }

    /// The execution tier this Machine resolved to (config and
    /// HWST_TIER folded together at construction; never Auto).
    /// Trace hooks and force_interpreter() still pin individual runs to
    /// the interpreter; a probe hook pins the parts of a run it has not
    /// declared quiet (see set_probe_quiet_before).
    ExecTier tier() const { return tier_; }

private:
    friend bool run_superblocks(Machine&, const std::function<bool()>*,
                                u64, u64, hwst::Trap&);
    friend class PeriodDetector;
    void set_counters(const Counters& c);
    hwst::Trap exec(const riscv::Instruction& in, u64& next_pc);
    hwst::Trap exec_hwst(const riscv::Instruction& in);
    hwst::Trap exec_ecall();
    void srf_effects(const riscv::Instruction& in, riscv::Format fmt);

    u64 mem_load(u64 addr, unsigned width, bool sign_extend);
    void mem_store(u64 addr, unsigned width, u64 value);
    unsigned dcache_extra(u64 addr);

    std::optional<hwst::Trap> spatial_check(Reg ptr_reg, u64 addr,
                                            unsigned width);

    /// Run `value` through the probe hook (identity when no hook set).
    u64 probe(Probe p, u64 value)
    {
        return probe_hook_ ? probe_hook_(p, instret_, value) : value;
    }

    /// Compression config as COMP/DECOMP see it: the CSR widths routed
    /// through the CompCsrWidths probe, then validated. `valid == false`
    /// means the (possibly perturbed) widths are unusable and any
    /// metadata operation must trap rather than compute garbage.
    struct ActiveCompression {
        metadata::CompressionConfig cfg;
        bool valid;
    };
    ActiveCompression active_compression();

    // Superblock DBT tier state. The block cache is created lazily on
    // the first translated run; comp_memo_ caches active_compression()
    // against the CSR file's version counter (bypassed whenever a probe
    // hook is installed — the hook must see every invocation; the
    // dispatcher runs only while no hook is attached).
    std::unique_ptr<SuperblockCache> sbcache_;
    DbtStats dbt_stats_;
    ExecTier tier_ = ExecTier::Dbt; ///< resolved tier (see tier())
    bool in_dispatch_ = false;
    u64 comp_version_ = ~u64{0};
    ActiveCompression comp_memo_{};

    const riscv::Program& program_;
    MachineConfig cfg_;

    // Predecoded instruction stream + hoisted bounds (see Uop).
    std::vector<Uop> uops_;
    u64 text_base_ = 0;
    u64 code_bytes_ = 0;

    std::array<u64, riscv::kNumRegs> regs_{};
    u64 pc_ = 0;
    u64 cycles_ = 0;
    u64 instret_ = 0;
    bool running_ = true;
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
    u64 probe_quiet_before_ = 0; ///< see set_probe_hook
};

/// Process-wide override forcing every run onto the interpreter tier,
/// regardless of MachineConfig::tier or HWST_TIER. The DBT divergence
/// sentinel (docs/execution.md, "Process isolation & failure
/// taxonomy") sets it inside its re-check workers so the reference run
/// cannot consult the tier under suspicion; runs forced this way count
/// in dbt_stats().sentinel_degraded.
void force_interpreter(bool on);
bool interpreter_forced();

} // namespace hwst::sim
