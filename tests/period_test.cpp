// Exact periodic fast-forward (src/sim/period.hpp): once a dispatcher
// run provably repeats its full State, it skips whole periods by adding
// k·Δ to the Counters. Every test here is differential: the program
// runs on the interpreter (the tier that never skips, so the
// reference) and on the dispatcher, and the whole RunResult must be
// identical. Periodic programs must skip exactly once; near-misses —
// state that almost repeats, or a repeat the skip must not trust —
// must not skip at all.
#include <gtest/gtest.h>

#include <functional>
#include <optional>

#include "compiler/driver.hpp"
#include "hwst/csr.hpp"
#include "juliet/cases.hpp"
#include "mem/cache.hpp"
#include "riscv/instr.hpp"
#include "riscv/program.hpp"
#include "sim/machine.hpp"
#include "sim/syscalls.hpp"

namespace {

using namespace hwst::riscv;
namespace sim = hwst::sim;
using hwst::common::i64;
using hwst::common::u64;
using hwst::hwst::TrapKind;

/// Fuel of the hand-written programs: far enough past the first
/// checkpoint (2^16 instructions) for detection and a long skip.
constexpr u64 kFuel = 500'000;

void expect_same(const sim::RunResult& a, const sim::RunResult& b)
{
    EXPECT_EQ(a.trap.kind, b.trap.kind);
    EXPECT_EQ(a.trap.addr, b.trap.addr);
    EXPECT_EQ(a.trap.pc, b.trap.pc);
    EXPECT_EQ(a.exit_code, b.exit_code);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.instret, b.instret);
    EXPECT_EQ(a.output, b.output);
    EXPECT_EQ(a.dcache.accesses, b.dcache.accesses);
    EXPECT_EQ(a.dcache.misses, b.dcache.misses);
    EXPECT_EQ(a.icache.accesses, b.icache.accesses);
    EXPECT_EQ(a.icache.misses, b.icache.misses);
    EXPECT_EQ(a.keybuffer.lookups, b.keybuffer.lookups);
    EXPECT_EQ(a.keybuffer.hits, b.keybuffer.hits);
    EXPECT_EQ(a.keybuffer.flushes, b.keybuffer.flushes);
    EXPECT_EQ(a.scu_checks, b.scu_checks);
    EXPECT_EQ(a.tcu_checks, b.tcu_checks);
    EXPECT_EQ(a.scu_saturated, b.scu_saturated);
    EXPECT_EQ(a.tcu_saturated, b.tcu_saturated);
    EXPECT_EQ(a.smac_translations, b.smac_translations);
    EXPECT_TRUE(a.mix == b.mix);
}

sim::MachineConfig config(sim::ExecTier tier, u64 fuel = kFuel)
{
    sim::MachineConfig cfg;
    cfg.tier = tier;
    cfg.fuel = fuel;
    return cfg;
}

struct DbtRun {
    sim::RunResult result;
    sim::DbtStats stats;
};

/// Runs `p` on both tiers and checks the results are identical;
/// returns the dispatcher run.
DbtRun run_both(const Program& p, sim::MachineConfig cfg,
                const std::function<void(sim::Machine&)>& setup = {})
{
    cfg.tier = sim::ExecTier::Interp;
    sim::Machine interp{p, cfg};
    if (setup) setup(interp);
    const sim::RunResult ref = interp.run();
    EXPECT_EQ(interp.dbt_stats().period_skips, 0u);

    cfg.tier = sim::ExecTier::Dbt;
    sim::Machine dbt{p, cfg};
    if (setup) setup(dbt);
    DbtRun got{dbt.run(), dbt.dbt_stats()};
    expect_same(got.result, ref);
    return got;
}

u64 skips_on_dbt(const Program& p)
{
    return run_both(p, config(sim::ExecTier::Dbt)).stats.period_skips;
}

void emit_sys(Program& p, sim::Sys nr)
{
    p.emit_li(Reg::a7, static_cast<i64>(nr));
    p.emit(Instruction{Opcode::ECALL});
}

// ---- periodic programs -----------------------------------------------

/// Endless loop storing into six lines of one D$ set (4 ways), so
/// every store misses and evicts. One outer iteration is
/// kStorePeriod instructions.
constexpr u64 kStorePeriod = 2 + 6 * 5 + 1;

Program store_evict_loop()
{
    Program p;
    p.label("main");
    p.emit_li(Reg::s5, static_cast<i64>(p.layout().heap_base));
    p.label("outer");
    p.emit_li(Reg::t0, 0);
    p.emit_li(Reg::t1, 6);
    p.label("inner");
    p.emit(itype(Opcode::SLLI, Reg::t2, Reg::t0, 12)); // 4 KiB apart
    p.emit(rtype(Opcode::ADD, Reg::t2, Reg::t2, Reg::s5));
    p.emit(stype(Opcode::SD, Reg::t2, Reg::t0, 0));
    p.emit(itype(Opcode::ADDI, Reg::t0, Reg::t0, 1));
    p.emit_branch(Opcode::BLT, Reg::t0, Reg::t1, "inner");
    p.emit_jal(Reg::zero, "outer");
    p.finalize();
    return p;
}

TEST(PeriodicSkip, StoreLoopEvictingDcacheLinesSkips)
{
    const DbtRun r =
        run_both(store_evict_loop(), config(sim::ExecTier::Dbt));
    EXPECT_EQ(r.stats.period_skips, 1u);
    EXPECT_EQ(r.result.trap.kind, TrapKind::FuelExhausted);
    EXPECT_GT(r.result.dcache.misses, kFuel / kStorePeriod * 5);
    EXPECT_EQ(r.stats.skipped_instret % kStorePeriod, 0u);
    EXPECT_GT(r.stats.skipped_instret, kFuel / 2);
}

TEST(PeriodicSkip, FuelAtEveryRemainderLandsOnTheSameInstruction)
{
    const Program p = store_evict_loop();
    for (const u64 r : {u64{0}, u64{1}, u64{2}, u64{5}, u64{16},
                        kStorePeriod - 2, kStorePeriod - 1}) {
        const u64 fuel = 4'000 * kStorePeriod + r;
        SCOPED_TRACE(fuel);
        const DbtRun got = run_both(p, config(sim::ExecTier::Dbt, fuel));
        EXPECT_EQ(got.stats.period_skips, 1u);
        EXPECT_EQ(got.result.instret, fuel);
    }
}

TEST(PeriodicSkip, MallocFreeOfTheSameBlockSkips)
{
    Program p;
    p.label("main");
    p.label("loop");
    p.emit_li(Reg::a0, 48);
    emit_sys(p, sim::Sys::Malloc);
    p.emit(stype(Opcode::SD, Reg::a0, Reg::a0, 8));
    emit_sys(p, sim::Sys::Free);
    p.emit_jal(Reg::zero, "loop");
    p.finalize();
    EXPECT_EQ(skips_on_dbt(p), 1u);
}

TEST(PeriodicSkip, TchkLoopHittingTheKeybufferSkips)
{
    Program p;
    p.label("main");
    const i64 base = static_cast<i64>(p.layout().data_base);
    // a0 -> [base, base + 64), with a minted lock and key.
    p.emit_li(Reg::a0, base);
    p.emit_li(Reg::t4, base + 64);
    p.emit(rtype(Opcode::BNDRS, Reg::a0, Reg::a0, Reg::t4));
    p.emit(mv(Reg::s2, Reg::a0));
    emit_sys(p, sim::Sys::LockAlloc);
    p.emit(rtype(Opcode::BNDRT, Reg::s2, Reg::a1, Reg::a0));
    p.label("loop");
    p.emit(rtype(Opcode::TCHK, Reg::zero, Reg::s2, Reg::zero));
    p.emit(itype(Opcode::CLD, Reg::t0, Reg::s2, 8));
    p.emit(stype(Opcode::CSD, Reg::s2, Reg::t0, 16));
    p.emit_jal(Reg::zero, "loop");
    p.finalize();

    const DbtRun r = run_both(p, config(sim::ExecTier::Dbt));
    EXPECT_EQ(r.stats.period_skips, 1u);
    EXPECT_GT(r.result.keybuffer.hits, kFuel / 5);
    EXPECT_GT(r.result.tcu_checks, kFuel / 5);
    EXPECT_GT(r.result.scu_checks, kFuel / 3);
}

TEST(PeriodicSkip, MemoryWordAlternatingSkipsAtTwiceTheRegisterPeriod)
{
    // x = 1 - x in memory: registers repeat every iteration (t0 is
    // cleared), the State only every second one.
    Program p;
    p.label("main");
    p.emit_li(Reg::s5, static_cast<i64>(p.layout().data_base));
    p.emit_li(Reg::s6, 1);
    p.label("loop");
    p.emit(itype(Opcode::LD, Reg::t0, Reg::s5, 0));
    p.emit(rtype(Opcode::SUB, Reg::t0, Reg::s6, Reg::t0));
    p.emit(stype(Opcode::SD, Reg::s5, Reg::t0, 0));
    p.emit_li(Reg::t0, 0);
    p.emit_jal(Reg::zero, "loop");
    p.finalize();
    const DbtRun r = run_both(p, config(sim::ExecTier::Dbt));
    EXPECT_EQ(r.stats.period_skips, 1u);
    EXPECT_EQ(r.stats.skipped_instret % 10, 0u);
}

TEST(PeriodicSkip, LivelockAfterSeveralWatchSpansSkips)
{
    // ~300k instructions of a register count-up (never repeats), then a
    // livelock: found by a later window, after earlier ones unwatched.
    Program p;
    p.label("main");
    p.emit_li(Reg::t0, 0);
    p.emit_li(Reg::t1, 100'000);
    p.label("count");
    p.emit(itype(Opcode::ADDI, Reg::t0, Reg::t0, 1));
    p.emit_branch(Opcode::BLT, Reg::t0, Reg::t1, "count");
    p.emit_li(Reg::s5, static_cast<i64>(p.layout().data_base));
    p.label("spin");
    p.emit(stype(Opcode::SD, Reg::s5, Reg::t0, 0));
    p.emit_jal(Reg::zero, "spin");
    p.finalize();
    const DbtRun r = run_both(p, config(sim::ExecTier::Dbt, 1'000'000));
    EXPECT_EQ(r.stats.period_skips, 1u);
    EXPECT_GT(r.stats.skipped_instret, 500'000u);
}

// ---- near-misses -----------------------------------------------------

TEST(PeriodicSkip, CounterKeptInMemoryDoesNotSkip)
{
    // Registers repeat at the loop head (t0 is cleared), memory does not.
    Program p;
    p.label("main");
    p.emit_li(Reg::s5, static_cast<i64>(p.layout().data_base));
    p.label("loop");
    p.emit(itype(Opcode::LD, Reg::t0, Reg::s5, 0));
    p.emit(itype(Opcode::ADDI, Reg::t0, Reg::t0, 1));
    p.emit(stype(Opcode::SD, Reg::s5, Reg::t0, 0));
    p.emit_li(Reg::t0, 0);
    p.emit_jal(Reg::zero, "loop");
    p.finalize();
    EXPECT_EQ(skips_on_dbt(p), 0u);
}

TEST(PeriodicSkip, PrintInTheLoopDoesNotSkip)
{
    Program p;
    p.label("main");
    p.label("loop");
    p.emit_li(Reg::a0, 5);
    emit_sys(p, sim::Sys::PrintI64);
    p.emit_jal(Reg::zero, "loop");
    p.finalize();
    EXPECT_EQ(skips_on_dbt(p), 0u);
}

/// Loop until the cycle counter passes a limit, then exit. Registers
/// and memory repeat at the loop head; only the counter moves. A skip
/// would jump the counter past the limit without the exit check
/// seeing it happen.
Program wait_for_cycles(bool use_csr)
{
    Program p;
    p.label("main");
    p.emit_li(Reg::s6, use_csr ? 400'000 : 4'000'000);
    p.label("loop");
    if (use_csr) {
        p.emit(csr_op(Opcode::CSRRS, Reg::a0, Reg::zero,
                      hwst::hwst::kCsrCycle));
    } else {
        emit_sys(p, sim::Sys::ReadCycle);
    }
    p.emit_branch(Opcode::BGEU, Reg::a0, Reg::s6, "done");
    p.emit_li(Reg::a0, 0);
    p.emit_li(Reg::a7, 0);
    p.emit_jal(Reg::zero, "loop");
    p.label("done");
    p.emit_li(Reg::a0, 3);
    emit_sys(p, sim::Sys::Exit);
    p.finalize();
    return p;
}

TEST(PeriodicSkip, CycleReadsInTheLoopDoNotSkip)
{
    for (const bool use_csr : {true, false}) {
        SCOPED_TRACE(use_csr ? "csr cycle" : "Sys::ReadCycle");
        const DbtRun r =
            run_both(wait_for_cycles(use_csr), config(sim::ExecTier::Dbt));
        EXPECT_EQ(r.stats.period_skips, 0u);
        EXPECT_EQ(r.result.exit_code, 3);
        EXPECT_GT(r.result.instret, 2 * (u64{1} << 16));
    }
}

TEST(PeriodicSkip, LockAllocAndFreeInTheLoopDoNotSkip)
{
    // The lock slot is recycled but every allocation mints a new key.
    Program p;
    p.label("main");
    p.label("loop");
    emit_sys(p, sim::Sys::LockAlloc);
    emit_sys(p, sim::Sys::LockFree);
    p.emit_li(Reg::a0, 0);
    p.emit_li(Reg::a1, 0);
    p.emit_jal(Reg::zero, "loop");
    p.finalize();
    EXPECT_EQ(skips_on_dbt(p), 0u);
}

TEST(PeriodicSkip, MoreThan64ResidentPagesDoNotSkip)
{
    // Materialise 70 heap pages, then spin in a loop that repeats.
    Program p;
    p.label("main");
    p.emit_li(Reg::s5, static_cast<i64>(p.layout().heap_base));
    p.emit_li(Reg::t0, 0);
    p.emit_li(Reg::t1, 70);
    p.label("touch");
    p.emit(itype(Opcode::SLLI, Reg::t2, Reg::t0, 12));
    p.emit(rtype(Opcode::ADD, Reg::t2, Reg::t2, Reg::s5));
    p.emit(stype(Opcode::SD, Reg::t2, Reg::t1, 0));
    p.emit(itype(Opcode::ADDI, Reg::t0, Reg::t0, 1));
    p.emit_branch(Opcode::BLT, Reg::t0, Reg::t1, "touch");
    p.label("spin");
    p.emit(stype(Opcode::SD, Reg::s5, Reg::t1, 0));
    p.emit_jal(Reg::zero, "spin");
    p.finalize();
    EXPECT_EQ(skips_on_dbt(p), 0u);
}

TEST(PeriodicSkip, QuietProbeHookDoesNotSkip)
{
    // The hook promises to stay quiet past the fuel limit, so the whole
    // run dispatches; a run that starts hooked is never fast-forwarded.
    const DbtRun r = run_both(
        store_evict_loop(), config(sim::ExecTier::Dbt), [](sim::Machine& m) {
            m.set_probe_hook([](sim::Probe, u64, u64 v) { return v; },
                             kFuel + 1);
        });
    EXPECT_EQ(r.stats.period_skips, 0u);
    EXPECT_EQ(r.stats.fallback_runs, 0u);
}

// ---- cancellation ----------------------------------------------------

TEST(PeriodicSkip, CancelMidRunThenResumeMatchesInterp)
{
    const Program p = store_evict_loop();
    sim::Machine interp{p, config(sim::ExecTier::Interp)};
    const sim::RunResult ref = interp.run();

    // Polls every 4096 instructions: cancel before, around and after the
    // first checkpoint (2^16 = 16 polls).
    for (const unsigned cancel_at : {1u, 15u, 16u, 17u, 30u}) {
        SCOPED_TRACE(cancel_at);
        sim::Machine m{p, config(sim::ExecTier::Dbt)};
        unsigned polls = 0;
        const auto cancelled = m.run_cancellable(
            [&] { return ++polls == cancel_at; }, 4096);
        std::optional<sim::RunResult> got = cancelled;
        if (!got) {
            EXPECT_TRUE(m.running());
            got = m.run();
        }
        expect_same(*got, ref);
    }
}

// ---- State --------------------------------------------------------------

TEST(PeriodicSkip, CacheSnapshotIgnoresTicksAndWayPositions)
{
    // 0x1000 and 0x2000 share a set. `a` fills them in recency order;
    // `b` has older ticks and fills them the other way round, then
    // touches 0x2000 again: other ticks and ways, the same LRU order.
    hwst::mem::Cache a, b;
    for (int i = 0; i < 100; ++i) {
        b.access(0x9000'0000);
        b.access(0x9000'0040);
    }
    b.flush();
    for (const u64 addr : {0x1000, 0x2000, 0x7040}) a.access(addr);
    for (const u64 addr : {0x2000, 0x1000, 0x2000, 0x7040}) b.access(addr);
    EXPECT_TRUE(a.snapshot() == b.snapshot());
    a.access(0x1000);
    EXPECT_FALSE(a.snapshot() == b.snapshot());
}

// ---- Juliet ----------------------------------------------------------

TEST(PeriodicSkip, JulietFarStackUnderwriteAtFig6FuelMatchesInterp)
{
    // CWE124_1003_bad overwrites its own loop counter and livelocks to
    // the fuel limit under each of these schemes (fig6's 2M fuel).
    const auto spec = hwst::juliet::make_spec(hwst::juliet::Cwe::C124, 1003,
                                              true);
    ASSERT_EQ(spec.id(), "CWE124_1003_bad");
    const auto module = hwst::juliet::build_case(spec);
    for (const auto scheme :
         {hwst::compiler::Scheme::Gcc, hwst::compiler::Scheme::Sbcets,
          hwst::compiler::Scheme::Hwst128Tchk}) {
        SCOPED_TRACE(hwst::compiler::scheme_name(scheme));
        auto cp = hwst::compiler::compile(module, scheme);
        cp.machine_config.fuel = 2'000'000;
        const DbtRun r = run_both(cp.program, cp.machine_config);
        EXPECT_EQ(r.stats.period_skips, 1u);
        EXPECT_EQ(r.result.trap.kind, TrapKind::FuelExhausted);
    }
}

} // namespace
