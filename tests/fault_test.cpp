// Tests of the metadata fault-injection engine (src/fault/) and the
// graceful-degradation paths it exercises: the injector's trigger
// semantics, the trap-or-survive oracle, saturating metadata
// compression at machine level, a small deterministic campaign, and
// the dispatcher fast-forward of faulted runs.
#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <functional>
#include <optional>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "compiler/driver.hpp"
#include "fault/campaign.hpp"
#include "mir/builder.hpp"
#include "riscv/program.hpp"
#include "sim/machine.hpp"
#include "sim/syscalls.hpp"
#include "workloads/dsl.hpp"

namespace {

using namespace hwst::riscv;
namespace fault = hwst::fault;
namespace hw = hwst::hwst;
namespace sim = hwst::sim;
using hwst::common::i64;
using hwst::common::u64;
using hw::TrapKind;
using sim::Machine;
using sim::Probe;
using sim::Sys;

struct Built {
    Program program;
};

Built build(const std::function<void(Program&)>& body)
{
    Built b;
    b.program.label("main");
    body(b.program);
    b.program.emit_li(Reg::a7, static_cast<i64>(Sys::Exit));
    b.program.emit(Instruction{Opcode::ECALL});
    b.program.finalize();
    return b;
}

// ---------------------------------------------------------------- injector

TEST(Injector, OneShotFiresOnceAtOrAfterTrigger)
{
    fault::Injector inj{
        fault::FaultPlan::single(Probe::LmsmLoad, fault::FaultMode::OneShot,
                                 /*trigger=*/5, /*xor_mask=*/0b11)};
    EXPECT_EQ(inj.perturb(Probe::LmsmLoad, 4, 0x100), 0x100u); // too early
    EXPECT_EQ(inj.perturb(Probe::LmsmLoad, 7, 0x100), 0x103u); // fires late
    EXPECT_EQ(inj.perturb(Probe::LmsmLoad, 8, 0x100), 0x100u); // disarmed
    EXPECT_TRUE(inj.fired());
    EXPECT_EQ(inj.fires(), 1u);
    EXPECT_EQ(inj.first_fire_instret(), 7u);
    ASSERT_EQ(inj.log().size(), 1u);
    EXPECT_EQ(inj.log()[0].before, 0x100u);
    EXPECT_EQ(inj.log()[0].after, 0x103u);
}

TEST(Injector, StuckAtKeepsFiring)
{
    fault::Injector inj{
        fault::FaultPlan::single(Probe::SrfTemporalWrite,
                                 fault::FaultMode::StuckAt, 2, 1)};
    EXPECT_EQ(inj.perturb(Probe::SrfTemporalWrite, 2, 10), 11u);
    EXPECT_EQ(inj.perturb(Probe::SrfTemporalWrite, 3, 10), 11u);
    EXPECT_EQ(inj.perturb(Probe::SrfTemporalWrite, 9, 10), 11u);
    EXPECT_EQ(inj.fires(), 3u);
}

TEST(Injector, IgnoresOtherPoints)
{
    fault::Injector inj{
        fault::FaultPlan::single(Probe::LmsmStore, fault::FaultMode::StuckAt,
                                 1, 0xFF)};
    EXPECT_EQ(inj.perturb(Probe::LmsmLoad, 100, 42), 42u);
    EXPECT_EQ(inj.perturb(Probe::KeybufferFill, 100, 42), 42u);
    EXPECT_FALSE(inj.fired());
}

TEST(Injector, RandomSpecIsDeterministicAndBounded)
{
    hwst::common::Xoshiro256 a{7}, b{7};
    const auto s1 = fault::FaultPlan::random_spec(Probe::LmsmLoad, 1000, a);
    const auto s2 = fault::FaultPlan::random_spec(Probe::LmsmLoad, 1000, b);
    EXPECT_EQ(s1.trigger_instret, s2.trigger_instret);
    EXPECT_EQ(s1.xor_mask, s2.xor_mask);
    for (int i = 0; i < 200; ++i) {
        const auto s = fault::FaultPlan::random_spec(Probe::LmsmLoad, 1000, a);
        EXPECT_GE(s.trigger_instret, 1u);
        EXPECT_LE(s.trigger_instret, 1000u);
        const int bits = std::popcount(s.xor_mask);
        EXPECT_GE(bits, 1);
        EXPECT_LE(bits, 2);
    }
}

// ------------------------------------------------------------------ oracle

sim::RunResult clean_run()
{
    sim::RunResult r;
    r.exit_code = 42;
    r.output = {1, 2, 3};
    r.instret = 100;
    return r;
}

TEST(Oracle, IdenticalCleanRunIsMasked)
{
    const fault::Injector inj{fault::FaultPlan{}};
    const auto v = fault::classify(clean_run(), clean_run(), inj);
    EXPECT_EQ(v.verdict, fault::Verdict::Masked);
    EXPECT_FALSE(v.fired);
}

TEST(Oracle, DivergedOutputIsSilentCorruption)
{
    const fault::Injector inj{fault::FaultPlan{}};
    auto faulted = clean_run();
    faulted.output.back() = 4;
    EXPECT_EQ(fault::classify(clean_run(), faulted, inj).verdict,
              fault::Verdict::SilentCorruption);
    faulted = clean_run();
    faulted.exit_code = 43;
    EXPECT_EQ(fault::classify(clean_run(), faulted, inj).verdict,
              fault::Verdict::SilentCorruption);
}

TEST(Oracle, TrapIsDetectedButLivelockIsNot)
{
    const fault::Injector inj{fault::FaultPlan{}};
    auto faulted = clean_run();
    faulted.trap.kind = TrapKind::SpatialViolation;
    EXPECT_EQ(fault::classify(clean_run(), faulted, inj).verdict,
              fault::Verdict::Detected);
    // Fuel exhaustion is a hang, not a detection: the hardware never
    // raised an architectural trap.
    faulted.trap.kind = TrapKind::FuelExhausted;
    EXPECT_EQ(fault::classify(clean_run(), faulted, inj).verdict,
              fault::Verdict::SilentCorruption);
}

TEST(Oracle, RejectsDirtyGoldenRun)
{
    const fault::Injector inj{fault::FaultPlan{}};
    auto golden = clean_run();
    golden.trap.kind = TrapKind::SpatialViolation;
    EXPECT_THROW(fault::classify(golden, clean_run(), inj),
                 hwst::common::ToolchainError);
}

// --------------------------------------------------- machine-level faults

TEST(FaultInjection, SrfRangeFaultForcesSpuriousTrapNeverSilent)
{
    auto b = build([](Program& p) {
        const i64 base = static_cast<i64>(p.layout().data_base);
        p.emit_li(Reg::a0, base);
        p.emit_li(Reg::t4, base + 64);
        p.emit(rtype(Opcode::BNDRS, Reg::a0, Reg::a0, Reg::t4));
        p.emit(itype(Opcode::CLD, Reg::a0, Reg::a0, 0));
        p.emit_li(Reg::a0, 0);
    });
    Machine golden{b.program};
    ASSERT_TRUE(golden.run().ok());
    // Flip the range field (8 granules -> 0): the bound collapses onto
    // the base and the first checked load must trap — the fault lands in
    // check metadata, so it can only be spurious-trap or masked.
    fault::Injector inj{fault::FaultPlan::single(
        Probe::SrfSpatialWrite, fault::FaultMode::OneShot, 1, u64{8} << 35)};
    Machine m{b.program};
    inj.attach(m);
    const auto r = m.run();
    EXPECT_TRUE(inj.fired());
    EXPECT_EQ(r.trap.kind, TrapKind::SpatialViolation);
}

// ------------------------------------------------- graceful degradation

TEST(GracefulDegradation, OversizedRangeSaturatesAndTrapsOnFirstUse)
{
    // A >4 GiB object cannot encode in 29 range bits. The bind itself
    // must not trap (COMP just emits the poison encoding); the first
    // checked use does.
    auto b = build([](Program& p) {
        const i64 base = static_cast<i64>(p.layout().data_base);
        p.emit_li(Reg::a0, base);
        p.emit_li(Reg::t4, base + (i64{1} << 33));
        p.emit(rtype(Opcode::BNDRS, Reg::a0, Reg::a0, Reg::t4));
        p.emit(itype(Opcode::CLD, Reg::a0, Reg::a0, 0)); // in true bounds
    });
    Machine m{b.program};
    const auto r = m.run();
    EXPECT_EQ(r.trap.kind, TrapKind::SpatialViolation);
    EXPECT_EQ(r.scu_saturated, 1u);
}

TEST(GracefulDegradation, OversizedKeySaturatesAndTrapsOnTchk)
{
    auto b = build([](Program& p) {
        const i64 base = static_cast<i64>(p.layout().data_base);
        p.emit_li(Reg::a7, static_cast<i64>(Sys::LockAlloc));
        p.emit(Instruction{Opcode::ECALL}); // a0 = lock (key ignored)
        p.emit_li(Reg::t0, base);
        p.emit_li(Reg::t1, i64{1} << 44); // one past the 44-bit key space
        p.emit(rtype(Opcode::BNDRT, Reg::t0, Reg::t1, Reg::a0));
        p.emit(rtype(Opcode::TCHK, Reg::zero, Reg::t0, Reg::zero));
    });
    Machine m{b.program};
    const auto r = m.run();
    EXPECT_EQ(r.trap.kind, TrapKind::TemporalViolation);
    EXPECT_EQ(r.tcu_saturated, 1u);
}

TEST(GracefulDegradation, CsrNarrowedWidthsSaturateFormerlyFittingObject)
{
    // Reconfigure csr.bitw to a 10-bit range (max 8184-byte objects): a
    // 16-KiB bind that fits the default 29-bit range must now saturate
    // and trap on use.
    auto b = build([](Program& p) {
        const i64 base = static_cast<i64>(p.layout().data_base);
        p.emit_li(Reg::t0, 32 | (10 << 6) | (10 << 12));
        p.emit(csr_op(Opcode::CSRRW, Reg::zero, Reg::t0, hw::kCsrBitw));
        p.emit_li(Reg::a0, base);
        p.emit_li(Reg::t4, base + 16384);
        p.emit(rtype(Opcode::BNDRS, Reg::a0, Reg::a0, Reg::t4));
        p.emit(itype(Opcode::CLD, Reg::a0, Reg::a0, 0));
    });
    Machine m{b.program};
    const auto r = m.run();
    EXPECT_EQ(r.trap.kind, TrapKind::SpatialViolation);
    EXPECT_EQ(r.scu_saturated, 1u);
}

TEST(GracefulDegradation, InBoundsObjectStillPassesUnderNarrowedWidths)
{
    auto b = build([](Program& p) {
        const i64 base = static_cast<i64>(p.layout().data_base);
        p.emit_li(Reg::t0, 32 | (10 << 6) | (10 << 12));
        p.emit(csr_op(Opcode::CSRRW, Reg::zero, Reg::t0, hw::kCsrBitw));
        p.emit_li(Reg::a0, base);
        p.emit_li(Reg::t4, base + 4096); // fits 10 range bits
        p.emit(rtype(Opcode::BNDRS, Reg::a0, Reg::a0, Reg::t4));
        p.emit(itype(Opcode::CLD, Reg::a0, Reg::a0, 2040));
        p.emit_li(Reg::a0, 0);
    });
    Machine m{b.program};
    const auto r = m.run();
    EXPECT_TRUE(r.ok()) << trap_name(r.trap.kind);
    EXPECT_EQ(r.scu_saturated, 0u);
}

TEST(GracefulDegradation, InvalidWidthCsrWriteTrapsInsteadOfUB)
{
    auto b = build([](Program& p) {
        p.emit_li(Reg::t0, 0); // base_bits = 0: invalid configuration
        p.emit(csr_op(Opcode::CSRRW, Reg::zero, Reg::t0, hw::kCsrBitw));
    });
    Machine m{b.program};
    const auto r = m.run();
    EXPECT_EQ(r.trap.kind, TrapKind::IllegalInstruction);
    EXPECT_EQ(r.trap.addr, hw::kCsrBitw);
}

TEST(GracefulDegradation, BogusLockFreeAborts)
{
    auto b = build([](Program& p) {
        p.emit_li(Reg::a0, 0x1234); // never a granted lock_location
        p.emit_li(Reg::a7, static_cast<i64>(Sys::LockFree));
        p.emit(Instruction{Opcode::ECALL});
    });
    Machine m{b.program};
    EXPECT_EQ(m.run().trap.kind, TrapKind::LibcAbort);
}

TEST(GracefulDegradation, DoubleLockFreeAborts)
{
    auto b = build([](Program& p) {
        p.emit_li(Reg::a7, static_cast<i64>(Sys::LockAlloc));
        p.emit(Instruction{Opcode::ECALL}); // a0 = lock
        p.emit(mv(Reg::s2, Reg::a0));
        p.emit_li(Reg::a7, static_cast<i64>(Sys::LockFree));
        p.emit(Instruction{Opcode::ECALL}); // first free: fine
        p.emit(mv(Reg::a0, Reg::s2));
        p.emit_li(Reg::a7, static_cast<i64>(Sys::LockFree));
        p.emit(Instruction{Opcode::ECALL}); // double free: abort
    });
    Machine m{b.program};
    const auto r = m.run();
    EXPECT_EQ(r.trap.kind, TrapKind::LibcAbort);
}

// ---------------------------------------------------------------- campaign

TEST(FaultCampaign, SmokeNoSilentCorruptionAtProtectedPoints)
{
    fault::CampaignConfig cfg;
    cfg.workloads = {"dijkstra"};
    cfg.points = {Probe::SrfSpatialWrite, Probe::SrfTemporalWrite,
                  Probe::LmsmStore, Probe::LmsmLoad};
    cfg.seeds_per_point = 4;
    const auto report = fault::run_campaign(cfg);
    EXPECT_EQ(report.total_runs(), 16u);
    EXPECT_EQ(report.protected_silent(), 0u);

    // Same config -> byte-identical report (campaign determinism).
    std::ostringstream first, second;
    report.print(first);
    fault::run_campaign(cfg).print(second);
    EXPECT_EQ(first.str(), second.str());
    EXPECT_NE(first.str().find("srf-spatial-write"), std::string::npos);
}

// ------------------------------------------- dispatcher fast-forward
//
// Injector::attach declares its hook quiet below the earliest armed
// trigger, so the run executes that prefix on the dispatcher and
// continues on the interpreter. The reference installs the same
// perturb() without the promise, which keeps the whole run on the
// interpreter; both must agree on every observable.

/// A miniature treeadd (src/workloads/olden.cpp) that also frees its
/// tree: heap pointers stored to and reloaded from memory, a tchk on
/// every dereference and a lock erasure per free, so every Probe
/// datapath is exercised within a few thousand instructions.
hwst::mir::Module mini_treeadd()
{
    namespace mir = hwst::mir;
    using hwst::workloads::if_else;
    using hwst::workloads::if_then;
    using mir::Ty;
    mir::Module m;
    const auto not_null = [](mir::FunctionBuilder& b, mir::Value p) {
        return b.eq(b.eq(b.ptr_to_int(p), b.const_i64(0)), b.const_i64(0));
    };
    {
        auto& fn = m.add_function("build", {Ty::I64}, Ty::Ptr);
        mir::FunctionBuilder b{m, fn};
        b.set_insert(b.block("entry"));
        const auto d = b.local("d");
        const auto n = b.local("n", Ty::Ptr);
        b.store_local(d, b.param(0));
        b.store_local(n, b.malloc_(b.const_i64(24)));
        b.store(b.load_local(d), b.load_local(n));
        if_else(
            b, b.lt(b.const_i64(1), b.load_local(d)),
            [&] {
                for (const i64 off : {8, 16}) {
                    const auto child = b.call(
                        "build", {b.sub(b.load_local(d), b.const_i64(1))},
                        Ty::Ptr);
                    b.store(child, b.gep_const(b.load_local(n), off));
                }
            },
            [&] {
                b.store(b.null_ptr(), b.gep_const(b.load_local(n), 8));
                b.store(b.null_ptr(), b.gep_const(b.load_local(n), 16));
            });
        b.ret(b.load_local(n));
    }
    // sum(n) adds the subtree's values; release(n) frees it bottom-up.
    for (const bool release : {false, true}) {
        const std::string name = release ? "release" : "sum";
        auto& fn = m.add_function(name, {Ty::Ptr}, Ty::I64);
        mir::FunctionBuilder b{m, fn};
        b.set_insert(b.block("entry"));
        const auto n = b.local("n", Ty::Ptr);
        const auto s = b.local("s");
        const auto c = b.local("c", Ty::Ptr);
        b.store_local(n, b.param(0));
        b.store_local(s, b.load(b.load_local(n)));
        for (const i64 off : {8, 16}) {
            b.store_local(c, b.load_ptr(b.gep_const(b.load_local(n), off)));
            if_then(b, not_null(b, b.load_local(c)), [&] {
                const auto sub = b.call(name, {b.load_local(c)}, Ty::I64);
                b.store_local(s, b.add(b.load_local(s), sub));
            });
        }
        if (release) b.free_(b.load_local(n));
        b.ret(b.load_local(s));
    }
    {
        auto& fn = m.add_function("main", {}, Ty::I64);
        mir::FunctionBuilder b{m, fn};
        b.set_insert(b.block("entry"));
        const auto root = b.local("root", Ty::Ptr);
        b.store_local(root, b.call("build", {b.const_i64(5)}, Ty::Ptr));
        const auto total = b.local("total");
        b.store_local(total, b.call("sum", {b.load_local(root)}, Ty::I64));
        b.store_local(total,
                      b.add(b.load_local(total),
                            b.call("release", {b.load_local(root)},
                                   Ty::I64)));
        b.ret(b.load_local(total));
    }
    return m;
}

/// The mini workload compiled under full HWST128, its golden run, and
/// the retire index (1-based instret) of one block boundary and one
/// mid-block point in the middle of that run.
struct FastForwardFixture {
    hwst::compiler::CompiledProgram cp;
    sim::RunResult golden;
    u64 boundary = 0; ///< instruction `boundary` ends a superblock
    u64 mid = 0;      ///< `mid` and `mid + 1` are straight-line body ops

    FastForwardFixture()
        : cp{hwst::compiler::compile(mini_treeadd(),
                                     hwst::compiler::Scheme::Hwst128Tchk)}
    {
        // A trace hook pins the golden run to the interpreter and sees
        // every instruction in retire order.
        Machine m{cp.program, cp.machine_config};
        std::vector<Opcode> ops;
        m.set_trace([&](u64, const Instruction& in) { ops.push_back(in.op); });
        golden = m.run();
        const auto body = [&](u64 instret) {
            const Opcode op = ops[instret - 1];
            const Format f = op_format(op);
            return !is_branch(op) && op != Opcode::JAL &&
                   op != Opcode::JALR && f != Format::Sys &&
                   f != Format::Csr && f != Format::CsrI && !is_hwst(op);
        };
        for (u64 k = ops.size() / 2; k + 2 < ops.size(); ++k) {
            if (!boundary && is_branch(ops[k - 1])) boundary = k;
            if (!mid && body(k) && body(k + 1)) mid = k;
        }
    }
};

const FastForwardFixture& ff_fixture()
{
    static const FastForwardFixture f;
    return f;
}

struct FaultedRun {
    std::optional<sim::RunResult> result;
    u64 fires = 0;
    u64 first_fire = 0;
    std::vector<fault::FireRecord> log;
    sim::DbtStats dbt;
};

FaultedRun finish_faulted(std::optional<sim::RunResult> result,
                          const fault::Injector& inj, const Machine& m)
{
    FaultedRun r;
    r.result = std::move(result);
    r.fires = inj.fires();
    r.first_fire = inj.first_fire_instret();
    r.log = inj.log();
    r.dbt = m.dbt_stats();
    return r;
}

/// One faulted run of the fixture: through attach() (fast-forward) or
/// with the same hook and no quiet promise (all-interpreter reference).
FaultedRun run_faulted(const fault::FaultPlan& plan, bool fast_forward,
                       sim::MachineConfig cfg = ff_fixture().cp.machine_config)
{
    fault::Injector inj{plan};
    Machine m{ff_fixture().cp.program, cfg};
    if (fast_forward) {
        inj.attach(m);
    } else {
        m.set_probe_hook([&inj](Probe p, u64 instret, u64 value) {
            return inj.perturb(p, instret, value);
        });
    }
    return finish_faulted(m.run(), inj, m);
}

void expect_same_run(const sim::RunResult& a, const sim::RunResult& b)
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
    const auto& x = a.mix;
    const auto& y = b.mix;
    EXPECT_EQ(std::tie(x.alu, x.loads, x.stores, x.checked_loads,
                       x.checked_stores, x.meta_moves, x.binds, x.tchk,
                       x.branches, x.jumps, x.ecalls, x.other),
              std::tie(y.alu, y.loads, y.stores, y.checked_loads,
                       y.checked_stores, y.meta_moves, y.binds, y.tchk,
                       y.branches, y.jumps, y.ecalls, y.other));
}

void expect_same_faulted(const FaultedRun& a, const FaultedRun& b)
{
    ASSERT_TRUE(a.result && b.result);
    expect_same_run(*a.result, *b.result);
    EXPECT_EQ(a.fires, b.fires);
    EXPECT_EQ(a.first_fire, b.first_fire);
    ASSERT_EQ(a.log.size(), b.log.size());
    for (std::size_t i = 0; i < a.log.size(); ++i) {
        EXPECT_EQ(a.log[i].point, b.log[i].point);
        EXPECT_EQ(a.log[i].instret, b.log[i].instret);
        EXPECT_EQ(a.log[i].before, b.log[i].before);
        EXPECT_EQ(a.log[i].after, b.log[i].after);
    }
}

/// True unless HWST_TIER pins the interpreter for the whole process.
bool dispatcher_available()
{
    return sim::env_tier() != sim::ExecTier::Interp;
}

TEST(FastForward, FixtureFindsItsTriggerPoints)
{
    const auto& f = ff_fixture();
    ASSERT_TRUE(f.golden.ok()) << trap_name(f.golden.trap.kind);
    EXPECT_EQ(f.golden.exit_code, 114); // 2 x sum of depths of a depth-5 tree
    EXPECT_GT(f.golden.tcu_checks, 0u);
    EXPECT_GT(f.golden.keybuffer.flushes, 0u);
    EXPECT_GT(f.boundary, 2u);
    EXPECT_GT(f.mid, 2u);
}

TEST(FastForward, MatchesAllInterpreterRunAtEveryProbeModeAndTrigger)
{
    const auto& f = ff_fixture();
    const u64 g = f.golden.instret;
    // Probes see instret after the increment: trigger T first fires on
    // the instruction that makes instret == T, so the dispatcher stops
    // after T - 1. `boundary + 1` stops exactly at a block end,
    // `mid + 1` inside a block, `g + 1` never fires.
    std::array<bool, sim::kNumProbes> fired{};
    for (unsigned pi = 0; pi < sim::kNumProbes; ++pi) {
        const auto point = static_cast<Probe>(pi);
        // `exact` is an instruction that itself exercises the datapath,
        // so a fast-forward that overshoots by one would miss the fire.
        const u64 exact =
            run_faulted(fault::FaultPlan::single(
                            point, fault::FaultMode::StuckAt, f.mid + 1, 0),
                        false)
                .first_fire;
        EXPECT_GT(exact, f.mid) << sim::probe_name(point);
        const u64 triggers[] = {1,     2, f.mid + 1, f.boundary + 1,
                                exact, g, g + 1};
        for (const auto mode :
             {fault::FaultMode::OneShot, fault::FaultMode::StuckAt}) {
            for (const u64 trigger : triggers) {
                SCOPED_TRACE(std::string{sim::probe_name(point)} + " " +
                             std::string{fault::fault_mode_name(mode)} + " @" +
                             std::to_string(trigger));
                const auto plan =
                    fault::FaultPlan::single(point, mode, trigger, 0x11);
                const FaultedRun ff = run_faulted(plan, true);
                const FaultedRun ref = run_faulted(plan, false);
                expect_same_faulted(ff, ref);
                if (trigger == g + 1) {
                    EXPECT_EQ(ff.fires, 0u);
                }
                fired[pi] = fired[pi] || ff.fires != 0;
            }
        }
        // Every datapath fires somewhere in its rows.
        EXPECT_TRUE(fired[pi]) << sim::probe_name(point);
    }
}

TEST(FastForward, TwoFaultPlanStopsAtTheEarlierTrigger)
{
    const auto& f = ff_fixture();
    const u64 early = f.mid + 1;
    const u64 late = f.golden.instret - 10;
    const fault::FaultPlan plan{{
        {Probe::LmsmLoad, fault::FaultMode::StuckAt, late, 0x3},
        {Probe::CompCsrWidths, fault::FaultMode::OneShot, early, 0x40},
    }};
    const FaultedRun ff = run_faulted(plan, true);
    const FaultedRun ref = run_faulted(plan, false);
    expect_same_faulted(ff, ref);
    EXPECT_GE(ff.first_fire, early);
    EXPECT_LT(ff.first_fire, late);
    if (dispatcher_available()) {
        EXPECT_GT(ff.dbt.block_execs, 0u);
        EXPECT_EQ(ff.dbt.fallback_runs, 1u);
    }
}

TEST(FastForward, FuelBelowTriggerExhaustsAtTheSameInstruction)
{
    const auto& f = ff_fixture();
    sim::MachineConfig cfg = f.cp.machine_config;
    cfg.fuel = f.golden.instret / 3;
    const auto plan = fault::FaultPlan::single(
        Probe::SrfTemporalWrite, fault::FaultMode::StuckAt,
        f.golden.instret / 2, 0x1);
    const FaultedRun ff = run_faulted(plan, true, cfg);
    const FaultedRun ref = run_faulted(plan, false, cfg);
    expect_same_faulted(ff, ref);
    EXPECT_EQ(ff.result->trap.kind, TrapKind::FuelExhausted);
    EXPECT_EQ(ff.result->instret, cfg.fuel);
    EXPECT_EQ(ff.fires, 0u);
}

TEST(FastForward, CancelInsidePrefixKeepsTheHookInstalled)
{
    const auto& f = ff_fixture();
    const u64 trigger = f.mid + 1;
    const auto plan = fault::FaultPlan::single(
        Probe::CompCsrWidths, fault::FaultMode::StuckAt, trigger, 0x40);
    const FaultedRun ref = run_faulted(plan, false);

    fault::Injector inj{plan};
    Machine m{f.cp.program, f.cp.machine_config};
    inj.attach(m);
    EXPECT_FALSE(m.run_cancellable([] { return true; }, 64).has_value());
    EXPECT_GT(m.instret(), 0u);
    EXPECT_LT(m.instret(), trigger);
    EXPECT_EQ(inj.fires(), 0u);
    // Resuming finishes the run with the hook live: the fault fires
    // exactly as it does on the all-interpreter reference.
    const FaultedRun resumed = finish_faulted(m.run(), inj, m);
    expect_same_faulted(resumed, ref);
    EXPECT_GT(resumed.fires, 0u);
}

TEST(FastForward, ForcedInterpreterDisablesFastForward)
{
    const auto& f = ff_fixture();
    const auto plan = fault::FaultPlan::single(
        Probe::KeybufferLookup, fault::FaultMode::OneShot,
        f.golden.instret - 10, 0x1);
    struct Forced {
        Forced() { sim::force_interpreter(true); }
        ~Forced() { sim::force_interpreter(false); }
    };
    FaultedRun ff;
    {
        const Forced forced;
        ff = run_faulted(plan, true);
    }
    expect_same_faulted(ff, run_faulted(plan, false));
    EXPECT_EQ(ff.dbt.block_execs, 0u);
}

TEST(FastForward, LateTriggerRunsThePrefixOnTheDispatcher)
{
    const auto& f = ff_fixture();
    const auto plan = fault::FaultPlan::single(
        Probe::DcacheFillData, fault::FaultMode::StuckAt,
        f.golden.instret - 10, 0x1);
    const FaultedRun ff = run_faulted(plan, true);
    const FaultedRun ref = run_faulted(plan, false);
    expect_same_faulted(ff, ref);
    EXPECT_EQ(ref.dbt.block_execs, 0u);
    if (dispatcher_available()) {
        EXPECT_GT(ff.dbt.block_execs, 0u);
        EXPECT_EQ(ff.dbt.fallback_runs, 1u);
    }
}

// ------------------------------------------- dispatcher resume
//
// Once a one-shot fault has fired, Injector::perturb re-declares the
// quiet point from the faults still armed, and the run goes back to the
// dispatcher. Stuck-at faults never disarm, so their runs stay on the
// interpreter from the trigger on.

/// A fast-forwarded run of the fixture, polled after every block (on
/// the dispatcher) and every instruction (on the interpreter). Each
/// poll is labelled 'D' if a dispatcher block ran since the previous
/// one, else 'I'; `segments` keeps one letter per run of equal labels,
/// so "DID" is dispatcher, interpreter, dispatcher again.
struct ObservedRun {
    FaultedRun run;
    std::string segments;
};

ObservedRun run_observed(const fault::FaultPlan& plan)
{
    const auto& f = ff_fixture();
    fault::Injector inj{plan};
    Machine m{f.cp.program, f.cp.machine_config};
    inj.attach(m);
    ObservedRun r;
    u64 seen = 0;
    const auto poll = [&] {
        const u64 execs = m.dbt_stats().block_execs;
        const char kind = execs != seen ? 'D' : 'I';
        seen = execs;
        if (r.segments.empty() || r.segments.back() != kind)
            r.segments.push_back(kind);
        return false;
    };
    r.run = finish_faulted(m.run_cancellable(poll, 1), inj, m);
    return r;
}

/// Instret of the last call at `point` on the golden run.
u64 last_probe_call(Probe point)
{
    const auto& f = ff_fixture();
    Machine m{f.cp.program, f.cp.machine_config};
    u64 last = 0;
    m.set_probe_hook([&](Probe p, u64 instret, u64 value) {
        if (p == point) last = instret;
        return value;
    });
    m.run();
    return last;
}

TEST(FastForward, EarlyOneShotTriggerResumesTheDispatcher)
{
    const auto& f = ff_fixture();
    // Trigger 1 leaves no quiet prefix: every dispatcher block runs
    // after the fault has fired. The zero mask fires without changing
    // the run, so it lasts as long as the golden one; 0x40 corrupts the
    // field widths.
    for (const u64 mask : {u64{0}, u64{0x40}}) {
        SCOPED_TRACE(mask);
        const auto plan = fault::FaultPlan::single(
            Probe::CompCsrWidths, fault::FaultMode::OneShot, 1, mask);
        const FaultedRun ff = run_faulted(plan, true);
        const FaultedRun ref = run_faulted(plan, false);
        expect_same_faulted(ff, ref);
        EXPECT_EQ(ff.fires, 1u);
        EXPECT_EQ(ref.dbt.block_execs, 0u);
        if (mask != 0) continue;
        EXPECT_EQ(ff.result->instret, f.golden.instret);
        EXPECT_LT(ff.first_fire, f.golden.instret / 4);
        if (dispatcher_available()) {
            EXPECT_GT(ff.dbt.block_execs, 0u);
            EXPECT_EQ(ff.dbt.fallback_runs, 1u);
        }
    }
}

TEST(FastForward, StuckAtAtTheSameTriggerStaysOnTheInterpreter)
{
    const auto plan = fault::FaultPlan::single(
        Probe::CompCsrWidths, fault::FaultMode::StuckAt, 1, 0);
    const FaultedRun ff = run_faulted(plan, true);
    expect_same_faulted(ff, run_faulted(plan, false));
    EXPECT_GT(ff.fires, 1u);
    EXPECT_EQ(ff.dbt.block_execs, 0u);
    if (dispatcher_available()) {
        EXPECT_EQ(ff.dbt.fallback_runs, 1u);
    }
}

TEST(FastForward, TwoOneShotFaultsResumeAfterEachFire)
{
    const auto& f = ff_fixture();
    const u64 g = f.golden.instret;
    const u64 early = g / 4;
    const u64 late = 3 * g / 4;
    // Listed late-first, so the early fire must still find the late
    // fault armed when it recomputes the quiet point.
    const fault::FaultPlan plan{{
        {Probe::KeybufferLookup, fault::FaultMode::OneShot, late, 0},
        {Probe::KeybufferLookup, fault::FaultMode::OneShot, early, 0},
    }};
    const ObservedRun ff = run_observed(plan);
    const FaultedRun ref = run_faulted(plan, false);
    expect_same_faulted(ff.run, ref);
    ASSERT_EQ(ref.fires, 2u);
    // Neither trigger lands on a tchk, so each interpreter segment
    // retires more than one instruction.
    EXPECT_GT(ref.log[0].instret, early);
    EXPECT_LT(ref.log[0].instret, late - 64);
    EXPECT_GT(ref.log[1].instret, late);
    EXPECT_LT(ref.log[1].instret, g - 64);
    if (dispatcher_available()) {
        EXPECT_EQ(ff.segments, "DIDID");
        EXPECT_EQ(ff.run.dbt.fallback_runs, 1u);
    } else {
        EXPECT_EQ(ff.segments, "I");
    }
}

TEST(FastForward, ResumedDispatcherStopsShortOfTheNextTrigger)
{
    const auto& f = ff_fixture();
    const u64 early = f.golden.instret / 4;
    // `exact` is a tchk, so a resumed segment that overshoots its stop
    // by one instruction would retire it without the hook.
    const u64 exact =
        run_faulted(fault::FaultPlan::single(Probe::KeybufferLookup,
                                             fault::FaultMode::OneShot,
                                             3 * f.golden.instret / 4, 0),
                    false)
            .first_fire;
    const fault::FaultPlan plan{{
        {Probe::KeybufferLookup, fault::FaultMode::OneShot, early, 0},
        {Probe::KeybufferLookup, fault::FaultMode::OneShot, exact, 0x1},
    }};
    const FaultedRun ff = run_faulted(plan, true);
    const FaultedRun ref = run_faulted(plan, false);
    expect_same_faulted(ff, ref);
    ASSERT_EQ(ref.fires, 2u);
    EXPECT_EQ(ref.log[1].instret, exact);
    if (dispatcher_available()) {
        EXPECT_EQ(ff.dbt.fallback_runs, 1u);
    }
}

TEST(FastForward, ArmedOneShotThatNeverFiresStaysInterpreted)
{
    const auto& f = ff_fixture();
    // Armed past the last D-cache miss refill, a few thousand
    // instructions before the end: the fault holds the run on the
    // interpreter to the end without ever firing.
    const u64 trigger = last_probe_call(Probe::DcacheFillData) + 1;
    ASSERT_GT(trigger, 1u);
    ASSERT_LT(trigger, f.golden.instret - 64);
    const auto plan = fault::FaultPlan::single(
        Probe::DcacheFillData, fault::FaultMode::OneShot, trigger, 0x1);
    const ObservedRun ff = run_observed(plan);
    expect_same_faulted(ff.run, run_faulted(plan, false));
    EXPECT_EQ(ff.run.fires, 0u);
    EXPECT_EQ(ff.segments, dispatcher_available() ? "DI" : "I");
}

TEST(FastForward, CancelInsideEitherSegmentResumesToTheSameRun)
{
    const auto& f = ff_fixture();
    const u64 trigger = f.golden.instret / 4;
    const auto plan = fault::FaultPlan::single(
        Probe::KeybufferLookup, fault::FaultMode::OneShot, trigger, 0);
    const FaultedRun ref = run_faulted(plan, false);
    ASSERT_EQ(ref.fires, 1u);
    const u64 fire = ref.first_fire;
    ASSERT_GT(fire, trigger);

    fault::Injector inj{plan};
    Machine m{f.cp.program, f.cp.machine_config};
    inj.attach(m);
    // Inside the interpreter segment: past the trigger, before the fire.
    const auto in_interp = [&] { return m.instret() >= trigger; };
    EXPECT_FALSE(m.run_cancellable(in_interp, 1).has_value());
    EXPECT_GE(m.instret(), trigger);
    EXPECT_LT(m.instret(), fire);
    EXPECT_EQ(inj.fires(), 0u);
    // Inside the resumed dispatcher segment: well past the fire.
    const u64 execs = m.dbt_stats().block_execs;
    const auto in_dispatch = [&] { return m.instret() > fire + 64; };
    EXPECT_FALSE(m.run_cancellable(in_dispatch, 16).has_value());
    EXPECT_EQ(inj.fires(), 1u);
    if (dispatcher_available()) {
        EXPECT_GT(m.dbt_stats().block_execs, execs);
    }
    const FaultedRun resumed = finish_faulted(m.run(), inj, m);
    expect_same_faulted(resumed, ref);
}

} // namespace
