// Tests of the metadata fault-injection engine (src/fault/) and the
// graceful-degradation paths it exercises: the injector's trigger
// semantics, the trap-or-survive oracle, saturating metadata
// compression at machine level, a small deterministic campaign,
// faulted runs on the probe-hooked dispatcher with per-point quiet
// points, and their golden-prefix checkpoints.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <functional>
#include <iterator>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "compiler/driver.hpp"
#include "env_guard.hpp"
#include "exec/report.hpp"
#include "fault/campaign.hpp"
#include "mir/builder.hpp"
#include "riscv/program.hpp"
#include "sim/checkpoint.hpp"
#include "sim/machine.hpp"
#include "sim/syscalls.hpp"
#include "workloads/dsl.hpp"
#include "workloads/workload.hpp"

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

TEST(FaultCampaign, DbtBlockIsHostSideAndCountsCheckpointActivity)
{
    // Sums over the simulated runs of each campaign; --equiv strips it,
    // so envelopes from both tiers still compare equal.
    fault::CampaignConfig cfg;
    cfg.workloads = {"crc32"};
    cfg.points = {Probe::LmsmLoad, Probe::KeybufferLookup};
    cfg.seeds_per_point = 4;
    cfg.jobs = 1;
    const auto on = [&](const char* tier) {
        const EnvGuard guard{"HWST_TIER", tier};
        return fault::run_campaign(cfg).to_json();
    };
    const auto interp = on("interp");
    const auto dbt = on("dbt");
    ASSERT_NE(interp.find("dbt"), nullptr);
    ASSERT_NE(dbt.find("dbt"), nullptr);
    for (const char* key : {"prefix_restores", "restored_instret", "rejoins"})
        EXPECT_EQ(interp.at("dbt").at(key).as_int(), 0) << key;
    // Each Program's first faulted run records; lmsm-load draws never
    // fire on crc32, so the later ones jump.
    EXPECT_GT(dbt.at("dbt").at("prefix_restores").as_int(), 0);
    EXPECT_GT(dbt.at("dbt").at("restored_instret").as_int(), 0);
    EXPECT_TRUE(hwst::exec::is_host_field("dbt"));
    EXPECT_FALSE(interp == dbt);
    EXPECT_TRUE(hwst::exec::strip_host_fields(interp) ==
                hwst::exec::strip_host_fields(dbt));
}

// ------------------------------------------- dispatcher fast-forward
//
// Injector::attach declares each probe point quiet below the earliest
// trigger armed there, and the whole run executes on the probe-hooked
// dispatcher. The reference installs the same perturb() with every
// point live on the interpreter tier; both must agree on every
// observable.

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
    std::optional<sim::State> state; ///< at the end of the run
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
    r.state = m.state();
    return r;
}

/// One faulted run of the fixture: through attach() (fast-forward) or
/// with the same hook, every point live, on the interpreter tier
/// (all-interpreter reference).
FaultedRun run_faulted(const fault::FaultPlan& plan, bool fast_forward,
                       sim::MachineConfig cfg = ff_fixture().cp.machine_config)
{
    fault::Injector inj{plan};
    if (!fast_forward) cfg.tier = sim::ExecTier::Interp;
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
    // the instruction that makes instret == T, so the dispatcher's first
    // live probe call is T. `boundary + 1` is the first instruction of a
    // block, `mid + 1` one inside a block, `g + 1` never fires.
    std::array<bool, sim::kNumProbes> fired{};
    for (unsigned pi = 0; pi < sim::kNumProbes; ++pi) {
        const auto point = static_cast<Probe>(pi);
        // `exact` is an instruction that itself exercises the datapath,
        // so a dispatcher that mis-counts by one would miss the fire.
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
        EXPECT_EQ(ff.dbt.fallback_runs, 0u);
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
    // HWST_TIER overrides MachineConfig::tier: unset it so the config
    // alone pins this run to the interpreter.
    const EnvGuard unset{"HWST_TIER", nullptr};
    sim::MachineConfig cfg = f.cp.machine_config;
    cfg.tier = sim::ExecTier::Interp;
    const FaultedRun ff = run_faulted(plan, true, cfg);
    expect_same_faulted(ff, run_faulted(plan, false));
    EXPECT_EQ(ff.dbt.block_execs, 0u);
}

/// Instret of the last call at `point` on the golden run, with every
/// point live on the interpreter tier.
u64 last_probe_call(Probe point)
{
    const auto& f = ff_fixture();
    sim::MachineConfig cfg = f.cp.machine_config;
    cfg.tier = sim::ExecTier::Interp;
    Machine m{f.cp.program, cfg};
    u64 last = 0;
    m.set_probe_hook([&](Probe p, u64 instret, u64 value) {
        if (p == point) last = instret;
        return value;
    });
    m.run();
    return last;
}

TEST(FastForward, LateTriggerRunsThePrefixOnTheDispatcher)
{
    // At the golden run's last D-cache refill: no checkpoint lets the
    // run skip that reach.
    const auto plan = fault::FaultPlan::single(
        Probe::DcacheFillData, fault::FaultMode::StuckAt,
        last_probe_call(Probe::DcacheFillData), 0x1);
    const FaultedRun ff = run_faulted(plan, true);
    const FaultedRun ref = run_faulted(plan, false);
    expect_same_faulted(ff, ref);
    EXPECT_EQ(ref.dbt.block_execs, 0u);
    if (dispatcher_available()) {
        EXPECT_GT(ff.dbt.block_execs, 0u);
        EXPECT_EQ(ff.dbt.fallback_runs, 0u);
    }
}

// ------------------------------------------- past the trigger
//
// Once a one-shot fault has fired, Injector::perturb re-declares the
// quiet points from the faults still armed, so its point is never
// called again. Stuck-at faults never disarm, so their point stays live
// from the trigger on. Either way the run stays on the dispatcher.

/// A fast-forwarded run of the fixture, polled after every block (on
/// the dispatcher) and every instruction (on the interpreter). Each
/// poll is labelled 'D' if a dispatcher block ran since the previous
/// one, else 'I'; `segments` keeps one letter per run of equal labels,
/// so "DID" would be dispatcher, interpreter, dispatcher again.
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

TEST(FastForward, EarlyOneShotTriggerStaysOnTheDispatcher)
{
    const auto& f = ff_fixture();
    // Trigger 1 leaves no quiet prefix: every dispatcher block but the
    // first few runs after the fault has fired. The zero mask fires without changing
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
            EXPECT_EQ(ff.dbt.fallback_runs, 0u);
        }
    }
}

TEST(FastForward, StuckAtAtTheSameTriggerStaysOnTheDispatcher)
{
    const auto plan = fault::FaultPlan::single(
        Probe::CompCsrWidths, fault::FaultMode::StuckAt, 1, 0);
    const FaultedRun ff = run_faulted(plan, true);
    expect_same_faulted(ff, run_faulted(plan, false));
    EXPECT_GT(ff.fires, 1u);
    if (dispatcher_available()) {
        EXPECT_GT(ff.dbt.block_execs, 0u);
        EXPECT_EQ(ff.dbt.fallback_runs, 0u);
    } else {
        EXPECT_EQ(ff.dbt.block_execs, 0u);
    }
}

TEST(FastForward, TwoOneShotFaultsStayOnTheDispatcher)
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
    // Neither trigger lands on a tchk, so each fire comes more than one
    // instruction after its trigger.
    EXPECT_GT(ref.log[0].instret, early);
    EXPECT_LT(ref.log[0].instret, late - 64);
    EXPECT_GT(ref.log[1].instret, late);
    EXPECT_LT(ref.log[1].instret, g - 64);
    if (dispatcher_available()) {
        EXPECT_EQ(ff.segments, "D");
        EXPECT_EQ(ff.run.dbt.fallback_runs, 0u);
    } else {
        EXPECT_EQ(ff.segments, "I");
    }
}

TEST(FastForward, SecondTriggerOnATchkFiresThere)
{
    const auto& f = ff_fixture();
    const u64 early = f.golden.instret / 4;
    // `exact` is a tchk, so a dispatcher that passed the probe the
    // wrong instret, or still held the point quiet after the first
    // fire, would retire it without the fault.
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
        EXPECT_EQ(ff.dbt.fallback_runs, 0u);
    }
}

TEST(FastForward, ArmedOneShotThatNeverFiresJumpsToTheEnd)
{
    const auto& f = ff_fixture();
    // Armed past the last D-cache miss refill, a few thousand
    // instructions before the end: the point stays live to the end
    // without the fault ever firing, so no instruction of the golden
    // run would call the hook, and the run jumps from its start to the
    // golden run's end without interpreting an instruction.
    const u64 trigger = last_probe_call(Probe::DcacheFillData) + 1;
    ASSERT_GT(trigger, 1u);
    ASSERT_LT(trigger, f.golden.instret - 64);
    const auto plan = fault::FaultPlan::single(
        Probe::DcacheFillData, fault::FaultMode::OneShot, trigger, 0x1);
    const ObservedRun ff = run_observed(plan);
    expect_same_faulted(ff.run, run_faulted(plan, false));
    EXPECT_EQ(ff.run.fires, 0u);
    if (dispatcher_available()) {
        EXPECT_EQ(ff.run.dbt.restored_instret, f.golden.instret);
        EXPECT_EQ(ff.run.dbt.fallback_runs, 0u);
    } else {
        EXPECT_EQ(ff.segments, "I");
    }
}

TEST(FastForward, CancelBeforeAndAfterTheFireResumesToTheSameRun)
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
    // Past the trigger, before the fire (the point is live there).
    const auto live = [&] { return m.instret() >= trigger; };
    EXPECT_FALSE(m.run_cancellable(live, 1).has_value());
    EXPECT_GE(m.instret(), trigger);
    EXPECT_LT(m.instret(), fire);
    EXPECT_EQ(inj.fires(), 0u);
    // Well past the fire.
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

// ------------------------------------------- per-point quiet points
//
// The Machine calls the hook at a point only from that point's quiet
// point on. Each run below is checked against the reference log: an
// identity hook with every point live on the interpreter tier, which
// never reads the compression memo.

struct ProbeCall {
    Probe point;
    u64 instret;
    u64 value;

    bool operator==(const ProbeCall&) const = default;
};

/// Every call an identity hook with quiet points `quiet` receives over
/// a run of the fixture on `tier`; the run itself must be the golden one.
std::vector<ProbeCall> record_probe_calls(const sim::ProbeQuiet& quiet,
                                          sim::ExecTier tier)
{
    const auto& f = ff_fixture();
    sim::MachineConfig cfg = f.cp.machine_config;
    cfg.tier = tier;
    Machine m{f.cp.program, cfg};
    std::vector<ProbeCall> calls;
    m.set_probe_hook(
        [&calls](Probe p, u64 instret, u64 value) {
            calls.push_back(ProbeCall{p, instret, value});
            return value;
        },
        quiet);
    expect_same_run(m.run(), f.golden);
    return calls;
}

/// The reference log's calls that `keep` selects.
template <class Keep>
std::vector<ProbeCall> reference_calls(Keep keep)
{
    static const std::vector<ProbeCall> all =
        record_probe_calls({}, sim::ExecTier::Interp);
    std::vector<ProbeCall> out;
    std::ranges::copy_if(all, std::back_inserter(out), keep);
    return out;
}

TEST(ProbeQuiet, ArmedPointIsTheOnlyOneThatReachesTheHook)
{
    const auto& f = ff_fixture();
    for (unsigned pi = 0; pi < sim::kNumProbes; ++pi) {
        const auto point = static_cast<Probe>(pi);
        for (const u64 trigger : {u64{1}, f.mid + 1}) {
            SCOPED_TRACE(std::string{sim::probe_name(point)} + " @" +
                         std::to_string(trigger));
            const fault::Injector inj{fault::FaultPlan::single(
                point, fault::FaultMode::StuckAt, trigger, 0x1)};
            const sim::ProbeQuiet quiet = inj.quiet();
            for (unsigned q = 0; q < sim::kNumProbes; ++q)
                EXPECT_EQ(quiet[q], q == pi ? trigger : ~u64{0});
            const auto want = reference_calls([&](const ProbeCall& c) {
                return c.point == point && c.instret >= trigger;
            });
            if (trigger == 1) {
                EXPECT_FALSE(want.empty());
            }
            for (const auto tier : {sim::ExecTier::Dbt, sim::ExecTier::Interp})
                EXPECT_EQ(record_probe_calls(quiet, tier), want)
                    << sim::tier_name(tier);
        }
        // A one-shot fault that has fired leaves every point quiet.
        fault::Injector inj{fault::FaultPlan::single(
            point, fault::FaultMode::OneShot, 1, 0)};
        Machine m{f.cp.program, f.cp.machine_config};
        inj.attach(m);
        m.run();
        EXPECT_EQ(inj.fires(), 1u);
        EXPECT_EQ(inj.quiet(), sim::kProbesQuiet);
    }
}

TEST(ProbeQuiet, CompressionMemoServesOnlyWhileCompCsrWidthsIsQuiet)
{
    const auto& f = ff_fixture();
    // LmsmLoad live throughout keeps the run hooked, so every metadata
    // op decodes the widths through active_compression(); with
    // CompCsrWidths quiet, those decodes never reach the hook.
    sim::ProbeQuiet quiet = sim::kProbesQuiet;
    quiet[static_cast<unsigned>(Probe::LmsmLoad)] = 0;
    const auto lmsm = reference_calls(
        [](const ProbeCall& c) { return c.point == Probe::LmsmLoad; });
    ASSERT_FALSE(lmsm.empty());
    for (const auto tier : {sim::ExecTier::Dbt, sim::ExecTier::Interp})
        EXPECT_EQ(record_probe_calls(quiet, tier), lmsm)
            << sim::tier_name(tier);
    // CompCsrWidths live from mid-run: the memo its quiet prefix built
    // must not serve a single decode from then on.
    const u64 live = f.mid + 1;
    quiet[static_cast<unsigned>(Probe::CompCsrWidths)] = live;
    const auto want = reference_calls([&](const ProbeCall& c) {
        return c.point == Probe::LmsmLoad ||
               (c.point == Probe::CompCsrWidths && c.instret >= live);
    });
    ASSERT_GT(want.size(), lmsm.size());
    for (const auto tier : {sim::ExecTier::Dbt, sim::ExecTier::Interp})
        EXPECT_EQ(record_probe_calls(quiet, tier), want)
            << sim::tier_name(tier);
}

/// Binds a0 and then a1 to 16-KiB objects and checks a load through a1:
/// fits the default csr.bitw widths, saturates under kNarrowWidths.
Built two_binds()
{
    return build([](Program& p) {
        const i64 base = static_cast<i64>(p.layout().data_base);
        p.emit_li(Reg::a0, base);
        p.emit_li(Reg::t4, base + 16384);
        p.emit(rtype(Opcode::BNDRS, Reg::a0, Reg::a0, Reg::t4));
        p.emit_li(Reg::a1, base);
        p.emit_li(Reg::t5, base + 16384);
        p.emit(rtype(Opcode::BNDRS, Reg::a1, Reg::a1, Reg::t5));
        p.emit(itype(Opcode::CLD, Reg::a1, Reg::a1, 0));
        p.emit_li(Reg::a0, 0);
    });
}

/// csr.bitw with a 10-bit range field (max 8184-byte objects).
constexpr u64 kNarrowWidths = 32 | (10 << 6) | (10 << 12);

TEST(ProbeQuiet, PerturbedWidthsNeverServeAQuietDecode)
{
    // The first decode sees narrowed widths, then the point goes quiet
    // (as a fired one-shot fault does): the second bind must decode the
    // CSR's own widths again.
    const Built b = two_binds();
    for (const auto tier : {sim::ExecTier::Dbt, sim::ExecTier::Interp}) {
        SCOPED_TRACE(sim::tier_name(tier));
        sim::MachineConfig cfg{};
        cfg.tier = tier;
        Machine m{b.program, cfg};
        u64 calls = 0;
        sim::ProbeQuiet quiet = sim::kProbesQuiet;
        quiet[static_cast<unsigned>(Probe::CompCsrWidths)] = 0;
        m.set_probe_hook(
            [&](Probe, u64, u64) {
                ++calls;
                m.set_probe_quiet(sim::kProbesQuiet);
                return kNarrowWidths;
            },
            quiet);
        const auto r = m.run();
        EXPECT_EQ(calls, 1u);
        EXPECT_TRUE(r.ok()) << trap_name(r.trap.kind);
        EXPECT_EQ(r.scu_saturated, 0u);
    }
}

TEST(ProbeQuiet, LiveWidthsDecodeFollowsEveryReturnedValue)
{
    // The hook passes the first decode through and narrows every later
    // one, at the same CSR version: the second bind must saturate and
    // the checked load trap.
    const Built b = two_binds();
    for (const auto tier : {sim::ExecTier::Dbt, sim::ExecTier::Interp}) {
        SCOPED_TRACE(sim::tier_name(tier));
        sim::MachineConfig cfg{};
        cfg.tier = tier;
        Machine m{b.program, cfg};
        u64 calls = 0;
        sim::ProbeQuiet quiet = sim::kProbesQuiet;
        quiet[static_cast<unsigned>(Probe::CompCsrWidths)] = 0;
        m.set_probe_hook(
            [&](Probe, u64, u64 value) {
                return calls++ == 0 ? value : kNarrowWidths;
            },
            quiet);
        const auto r = m.run();
        EXPECT_GE(calls, 3u); // both binds and the checked load
        EXPECT_EQ(r.trap.kind, TrapKind::SpatialViolation);
        EXPECT_EQ(r.scu_saturated, 1u);
    }
}

// ------------------------------------------- golden-prefix checkpoints
//
// Before its first instruction, a probe-hooked dispatcher run makes its
// Program's store hold the golden run under its config (fuel included):
// the first such run has a second Machine record the golden run's state
// every CheckpointStore::kSpacing instructions, with each point's latest
// reach, and at its end (the terminal checkpoint, at the fuel limit if
// the golden run gets that far). While the run is golden it jumps, at
// its start and at each checkpoint it stops at, to the furthest
// checkpoint before which the golden run reaches no live point; a
// faulted run whose state equals a stored checkpoint again rejoins the
// golden run and jumps the same way. Every run below is checked against
// the same plan on the interpreter, which never records, restores or
// rejoins.

constexpr u64 kSpacing = sim::CheckpointStore::kSpacing;

/// A registry workload compiled afresh (so with an empty store) under
/// full HWST128, its golden run, and fault_campaign's faulted-run config.
struct PrefixWorkload {
    hwst::compiler::CompiledProgram cp;
    sim::RunResult golden;
    sim::MachineConfig cfg;

    explicit PrefixWorkload(const std::string& name)
        : cp{hwst::compiler::compile(hwst::workloads::workload(name).build(),
                                     hwst::compiler::Scheme::Hwst128Tchk)}
    {
        golden = Machine{cp.program, cp.machine_config}.run();
        cfg = cp.machine_config;
        cfg.fuel = golden.instret * 4 + 100'000;
    }

    sim::CheckpointStore& store() const
    {
        return sim::CheckpointStore::of(cp.program);
    }
};

/// `plan` on `w` through Injector::attach: the dispatcher up to the
/// trigger, and the checkpoint store.
FaultedRun run_prefix(const Program& program, const fault::FaultPlan& plan,
                      const sim::MachineConfig& cfg)
{
    fault::Injector inj{plan};
    Machine m{program, cfg};
    inj.attach(m);
    return finish_faulted(m.run(), inj, m);
}

/// The reference: the same hook with every point live on the
/// interpreter tier.
FaultedRun run_interp(const Program& program, const fault::FaultPlan& plan,
                      sim::MachineConfig cfg)
{
    cfg.tier = sim::ExecTier::Interp;
    fault::Injector inj{plan};
    Machine m{program, cfg};
    m.set_probe_hook([&inj](Probe p, u64 instret, u64 value) {
        return inj.perturb(p, instret, value);
    });
    return finish_faulted(m.run(), inj, m);
}

/// The key the runs of `program` under `cfg` store their checkpoints
/// under.
sim::CheckpointKey key_of(const Program& program,
                          const sim::MachineConfig& cfg)
{
    return sim::CheckpointKey{cfg, program.layout()};
}

sim::CheckpointKey key_of(const PrefixWorkload& w)
{
    return key_of(w.cp.program, w.cfg);
}

/// Where the golden run of a Program reaches each probe point: the
/// instret of every reach, ascending. An identity hook with every point
/// live on the interpreter is called exactly there, once per probe site
/// (at comp-csr-widths once per metadata op), so these are the reaches
/// Machine::last_reaches() notes.
struct GoldenEvents {
    std::array<std::vector<u64>, sim::kNumProbes> at;
    std::optional<sim::State> end; ///< the golden run's end-of-run State

    GoldenEvents(const Program& program, sim::MachineConfig cfg)
    {
        cfg.tier = sim::ExecTier::Interp;
        Machine m{program, cfg};
        m.set_probe_hook([this](Probe p, u64 instret, u64 value) {
            at[static_cast<unsigned>(p)].push_back(instret);
            return value;
        });
        m.run();
        end = m.state();
    }

    /// The latest reach of `p` at or below `instret` (0: none).
    u64 last(unsigned p, u64 instret) const
    {
        const auto it = std::ranges::upper_bound(at[p], instret);
        return it == at[p].begin() ? 0 : *std::prev(it);
    }

    /// The first reach of `p` at or above `instret` (~0: none).
    u64 first_from(unsigned p, u64 instret) const
    {
        const auto it = std::ranges::lower_bound(at[p], instret);
        return it == at[p].end() ? ~u64{0} : *it;
    }
};

/// The quiet points Injector::attach declares for `plan`.
sim::ProbeQuiet quiet_of(const fault::FaultPlan& plan)
{
    return fault::Injector{plan}.quiet();
}

/// Where `plan` first changes a value on the golden run: the first reach
/// of a fault's point at or above its trigger (~0: never).
u64 first_fire(const GoldenEvents& events, const fault::FaultPlan& plan)
{
    u64 fire = ~u64{0};
    for (const auto& f : plan.faults)
        fire = std::min(fire, events.first_from(static_cast<unsigned>(f.point),
                                                f.trigger_instret));
    return fire;
}

/// The jumps a run made while it was golden: how many, and the
/// instructions they skipped (DbtStats::prefix_restores and
/// restored_instret).
struct Jumps {
    u64 restores = 0;
    u64 instret = 0;
    u64 to = 0; ///< where the last one landed
};

/// What one key's store holds once any run under it has started: every
/// multiple of kSpacing below `end`, and the terminal checkpoint at
/// `end`, where the golden run ends or its fuel runs out.
struct StoreShape {
    u64 end;

    /// Where a golden run at `from` with quiet points `quiet` jumps (0:
    /// nowhere), by CheckpointStore::jump_target's rule: the furthest
    /// checkpoint c above `from` such that, per point, the golden run's
    /// latest reach at or below c is at or below `from` or below the
    /// point's quiet point.
    u64 jump(const GoldenEvents& events, u64 from,
             const sim::ProbeQuiet& quiet) const
    {
        const auto safe = [&](u64 c) {
            if (c <= from) return false;
            for (unsigned p = 0; p < sim::kNumProbes; ++p) {
                const u64 bound = std::max(from, quiet[p] ? quiet[p] - 1 : 0);
                if (events.last(p, c) > bound) return false;
            }
            return true;
        };
        if (safe(end)) return end;
        for (u64 c = (end - 1) / kSpacing * kSpacing; c != 0; c -= kSpacing)
            if (safe(c)) return c;
        return 0;
    }

    /// A fresh run with quiet points `quiet` that stays golden below
    /// instret `fire` (its first changed value, ~0: none): its jumps
    /// while golden. It tries a jump at its start and at each checkpoint
    /// it stops at.
    Jumps fresh_run(const GoldenEvents& events, const sim::ProbeQuiet& quiet,
                    u64 fire) const
    {
        Jumps j;
        u64 x = 0;
        for (;;) {
            if (const u64 c = jump(events, x, quiet)) {
                ++j.restores;
                j.instret += c - x;
                x = j.to = c;
            }
            const u64 next = (x / kSpacing + 1) * kSpacing;
            if (next >= end || next >= fire) break;
            x = next;
        }
        return j;
    }

    std::size_t size() const
    {
        return static_cast<std::size_t>((end - 1) / kSpacing);
    }
};

/// A plan whose trigger lies past the end of `w`'s golden run: its runs
/// stay golden and jump from their start to the terminal checkpoint.
fault::FaultPlan never_fires(const PrefixWorkload& w)
{
    return fault::FaultPlan::single(Probe::LmsmLoad, fault::FaultMode::OneShot,
                                    w.golden.instret + 1, 0x1);
}

/// A CompCsrWidths mask above the 24 width bits: every fire changes the
/// probed value, and the decode ignores it, so nothing else changes.
constexpr u64 kIgnoredWidthBit = u64{1} << 40;

/// Equal end-of-run States.
void expect_same_end_state(const FaultedRun& a, const FaultedRun& b)
{
    ASSERT_TRUE(a.state && b.state);
    EXPECT_TRUE(*a.state == *b.state);
}

/// A run that rejoined nowhere: one jump, to `checkpoint`, at its start
/// (0: none).
void expect_restored(const FaultedRun& run, u64 checkpoint)
{
    EXPECT_EQ(run.dbt.rejoins, 0u);
    if (!dispatcher_available()) {
        EXPECT_EQ(run.dbt.prefix_restores, 0u);
        return;
    }
    EXPECT_EQ(run.dbt.prefix_restores, checkpoint ? 1u : 0u);
    EXPECT_EQ(run.dbt.restored_instret, checkpoint);
}

/// `golden`, the jumps a fresh run makes before its first changed value
/// (StoreShape::fresh_run), then forward jumps after its rejoins: at
/// most one per rejoin for a one-shot run, which never calls the hook
/// again once it has rejoined.
void expect_jumps(const FaultedRun& run, const Jumps& golden, bool one_shot)
{
    if (!dispatcher_available()) {
        EXPECT_EQ(run.dbt.prefix_restores, 0u);
        EXPECT_EQ(run.dbt.rejoins, 0u);
        return;
    }
    if (run.dbt.rejoins == 0) {
        EXPECT_EQ(run.dbt.prefix_restores, golden.restores);
        EXPECT_EQ(run.dbt.restored_instret, golden.instret);
        return;
    }
    ASSERT_GE(run.dbt.prefix_restores, golden.restores);
    const u64 later = run.dbt.prefix_restores - golden.restores;
    if (one_shot) {
        EXPECT_LE(later, run.dbt.rejoins);
    }
    EXPECT_GE(run.dbt.restored_instret, golden.instret + later);
}

/// The store under `key` holds exactly the shape `end` predicts.
void expect_store(const sim::CheckpointStore& store,
                  const sim::CheckpointKey& key, u64 end)
{
    if (!dispatcher_available()) {
        EXPECT_EQ(store.terminal(key), nullptr);
        return;
    }
    const auto terminal = store.terminal(key);
    ASSERT_NE(terminal, nullptr);
    EXPECT_EQ(terminal->counters.instret, end);
    std::size_t n = 0;
    for (auto c = store.next_above(key, 0); c;
         c = store.next_above(key, c->counters.instret)) {
        EXPECT_EQ(c->counters.instret, ++n * kSpacing);
    }
    EXPECT_EQ(n, StoreShape{end}.size());
}

TEST(PrefixCheckpoint, EveryProbeModeAndDrawMatchesTheInterpreter)
{
    // Runs whose jumps carried them past their trigger: crc32's
    // lmsm-load and keybuffer-fill draws (treeadd reaches every point
    // in every stretch).
    u64 past_the_trigger = 0;
    for (const char* name : {"crc32", "treeadd"}) {
        const PrefixWorkload w{name};
        ASSERT_GT(w.golden.instret, 2 * kSpacing) << name;
        const GoldenEvents events{w.cp.program, w.cfg};
        const StoreShape shape{w.golden.instret};
        u64 restores = 0;
        u64 one_shot_rejoins = 0;
        for (unsigned pi = 0; pi < sim::kNumProbes; ++pi) {
            const auto point = static_cast<Probe>(pi);
            for (const auto mode :
                 {fault::FaultMode::OneShot, fault::FaultMode::StuckAt}) {
                for (u64 draw = 0; draw < 2; ++draw) {
                    hwst::common::Xoshiro256 rng{pi * 16 + draw};
                    const fault::FaultPlan plan{{fault::FaultPlan::random_spec(
                        point, w.golden.instret, rng, mode)}};
                    SCOPED_TRACE(std::string{name} + " " +
                                 plan.faults[0].describe());
                    const bool one_shot = mode == fault::FaultMode::OneShot;
                    const u64 fire = first_fire(events, plan);
                    // Golden up to its first changed value.
                    const Jumps golden =
                        dispatcher_available()
                            ? shape.fresh_run(events, quiet_of(plan), fire)
                            : Jumps{};
                    const FaultedRun ff =
                        run_prefix(w.cp.program, plan, w.cfg);
                    const FaultedRun ref =
                        run_interp(w.cp.program, plan, w.cfg);
                    expect_same_faulted(ff, ref);
                    expect_same_end_state(ff, ref);
                    EXPECT_EQ(ref.fires ? ref.first_fire : ~u64{0}, fire);
                    expect_jumps(ff, golden, one_shot);
                    restores += golden.restores != 0;
                    // Only the latest reaches let a jump reach the
                    // trigger.
                    past_the_trigger +=
                        golden.to >= plan.faults[0].trigger_instret;
                    if (one_shot) one_shot_rejoins += ff.dbt.rejoins;
                }
            }
        }
        expect_store(w.store(), key_of(w), w.golden.instret);
        if (dispatcher_available()) {
            EXPECT_GT(restores, 8u) << name;
            EXPECT_GT(one_shot_rejoins, 0u) << name;
        }
    }
    if (dispatcher_available()) {
        EXPECT_GT(past_the_trigger, 0u);
    }
}

TEST(PrefixCheckpoint, TriggerPastTheLastFillJumpsFromTheStartToTheTerminal)
{
    // crc32 reaches keybuffer-fill at its first two keys only, the last
    // at instret 106. A trigger anywhere past it, below the first
    // checkpoint or not, lets a run jump from instret 0 straight to the
    // terminal checkpoint: the latest fill at or before any checkpoint
    // is 106. A trigger at or below 106 fires at the first fill it
    // reaches, and the run never jumps.
    const PrefixWorkload w{"crc32"};
    const GoldenEvents events{w.cp.program, w.cfg};
    const auto& fills =
        events.at[static_cast<unsigned>(Probe::KeybufferFill)];
    ASSERT_EQ(fills.size(), 2u);
    ASSERT_EQ(fills.back(), 106u);
    const u64 end = w.golden.instret;
    for (const u64 trigger : {u64{1}, u64{106}, u64{107}, kSpacing - 1,
                              kSpacing, kSpacing + 1, 3 * kSpacing}) {
        SCOPED_TRACE(trigger);
        const auto plan = fault::FaultPlan::single(
            Probe::KeybufferFill, fault::FaultMode::StuckAt, trigger, 0x4);
        const FaultedRun ff = run_prefix(w.cp.program, plan, w.cfg);
        const FaultedRun ref = run_interp(w.cp.program, plan, w.cfg);
        expect_same_faulted(ff, ref);
        expect_same_end_state(ff, ref);
        if (trigger <= fills.back()) {
            EXPECT_EQ(ref.first_fire, trigger <= fills.front()
                                          ? fills.front()
                                          : fills.back());
            expect_restored(ff, 0);
        } else {
            EXPECT_EQ(ref.fires, 0u);
            expect_restored(ff, end);
        }
    }
}

TEST(PrefixCheckpoint, RunPastTheGoldenRunsLastEventJumpsToTheTerminal)
{
    // crc32 never reaches lmsm-load, and keybuffer-fill only inside its
    // first stretch (see above): with its trigger past those reaches, a
    // fresh run jumps straight to the golden run's end.
    const PrefixWorkload w{"crc32"};
    const GoldenEvents events{w.cp.program, w.cfg};
    ASSERT_TRUE(events.at[static_cast<unsigned>(Probe::LmsmLoad)].empty());
    const u64 end = w.golden.instret;
    expect_restored(run_prefix(w.cp.program, never_fires(w), w.cfg), end);
    const std::vector<std::pair<Probe, u64>> cases{
        {Probe::LmsmLoad, 1},
        {Probe::LmsmLoad, kSpacing},
        {Probe::LmsmLoad, end - 1},
        {Probe::KeybufferFill, kSpacing + 1},
        {Probe::KeybufferFill, end / 2},
        {Probe::KeybufferFill, end - 1},
    };
    for (const auto& [point, trigger] : cases) {
        SCOPED_TRACE(std::string{sim::probe_name(point)} + " @" +
                     std::to_string(trigger));
        const auto plan = fault::FaultPlan::single(
            point, fault::FaultMode::OneShot, trigger, 0x4);
        const FaultedRun ff = run_prefix(w.cp.program, plan, w.cfg);
        const FaultedRun ref = run_interp(w.cp.program, plan, w.cfg);
        EXPECT_EQ(ref.fires, 0u);
        expect_same_faulted(ff, ref);
        expect_same_end_state(ff, ref);
        expect_restored(ff, end);
    }
}

TEST(PrefixCheckpoint, IdentityHookSeesTheInterpretersCallsAcrossJumps)
{
    // A run whose hook changes nothing is golden throughout and jumps
    // wherever the latest reaches allow: its hook must still see every
    // call the interpreter makes, in order.
    for (const char* name : {"crc32", "treeadd"}) {
        const PrefixWorkload w{name};
        const GoldenEvents events{w.cp.program, w.cfg};
        const u64 end = w.golden.instret;
        u64 skipped = 0;
        for (unsigned pi = 0; pi < sim::kNumProbes; ++pi) {
            const auto point = static_cast<Probe>(pi);
            for (u64 k = 0; k <= 8; ++k) {
                const u64 trigger = k * end / 8 + (k % 2);
                SCOPED_TRACE(std::string{name} + " " +
                             std::string{sim::probe_name(point)} + " @" +
                             std::to_string(trigger));
                sim::ProbeQuiet quiet = sim::kProbesQuiet;
                quiet[pi] = trigger;
                Machine m{w.cp.program, w.cfg};
                std::vector<ProbeCall> calls;
                m.set_probe_hook(
                    [&calls](Probe p, u64 instret, u64 value) {
                        calls.push_back(ProbeCall{p, instret, 0});
                        return value;
                    },
                    quiet);
                expect_same_run(m.run(), w.golden);
                EXPECT_TRUE(m.state() == *events.end);
                std::vector<ProbeCall> want;
                for (auto it = std::ranges::lower_bound(events.at[pi], trigger);
                     it != events.at[pi].end(); ++it)
                    want.push_back(ProbeCall{point, *it, 0});
                EXPECT_EQ(calls, want);
                skipped += m.dbt_stats().restored_instret;
            }
        }
        if (dispatcher_available()) {
            EXPECT_GT(skipped, 0u) << name;
        }
    }
}

TEST(PrefixCheckpoint, LatestReachesAreTheGoldenRuns)
{
    for (const char* name : {"crc32", "treeadd"}) {
        const PrefixWorkload w{name};
        const GoldenEvents events{w.cp.program, w.cfg};
        const u64 end = w.golden.instret;
        // On the dispatcher (jumping to the terminal, whose reaches it
        // takes) and on the interpreter.
        for (const auto tier : {sim::ExecTier::Auto, sim::ExecTier::Interp}) {
            SCOPED_TRACE(std::string{name} + " " +
                         std::string{sim::tier_name(tier)});
            sim::MachineConfig cfg = w.cfg;
            cfg.tier = tier;
            Machine m{w.cp.program, cfg};
            m.set_probe_hook([](Probe, u64, u64 value) { return value; },
                             sim::kProbesQuiet);
            expect_same_run(m.run(), w.golden);
            for (unsigned p = 0; p < sim::kNumProbes; ++p)
                EXPECT_EQ(m.last_reaches()[p], events.last(p, end)) << p;
        }
        // Every stored checkpoint carries the latest reaches at or before
        // its instret: the recording noted them on the dispatcher.
        const auto key = key_of(w);
        expect_store(w.store(), key, end);
        for (auto c = w.store().next_above(key, 0); c;
             c = w.store().next_above(key, c->counters.instret)) {
            for (unsigned p = 0; p < sim::kNumProbes; ++p)
                EXPECT_EQ(c->last_reach[p], events.last(p, c->counters.instret))
                    << c->counters.instret << " " << p;
        }
        if (const auto t = w.store().terminal(key)) {
            for (unsigned p = 0; p < sim::kNumProbes; ++p)
                EXPECT_EQ(t->last_reach[p], events.last(p, end)) << p;
        }
    }
}

TEST(PrefixCheckpoint, EachConfigRecordsAStoreOfItsOwn)
{
    // The key is the whole config, fuel included: a run under another
    // config records the golden run again and jumps along that one.
    const PrefixWorkload w{"treeadd"};
    const auto plan = fault::FaultPlan::single(
        Probe::KeybufferLookup, fault::FaultMode::OneShot,
        w.golden.instret - 1000, 0x10);
    sim::MachineConfig fewer_keys = w.cfg;
    fewer_keys.keybuffer_entries = 4;
    sim::MachineConfig bigger_dcache = w.cfg;
    bigger_dcache.dcache.sets *= 2;
    sim::MachineConfig more_fuel = w.cfg;
    more_fuel.fuel += 12345;
    std::size_t stored = 0;
    for (const auto& cfg : {w.cfg, fewer_keys, bigger_dcache, more_fuel}) {
        const GoldenEvents events{w.cp.program, cfg};
        const StoreShape shape{w.golden.instret};
        const FaultedRun ff = run_prefix(w.cp.program, plan, cfg);
        expect_same_faulted(ff, run_interp(w.cp.program, plan, cfg));
        expect_same_end_state(ff, run_interp(w.cp.program, plan, cfg));
        if (!dispatcher_available()) continue;
        const u64 to = shape.jump(events, 0, quiet_of(plan));
        EXPECT_GT(to, 0u);
        expect_jumps(ff, Jumps{1, to, to}, true);
        expect_store(w.store(), key_of(w.cp.program, cfg), w.golden.instret);
        stored += shape.size();
        EXPECT_EQ(w.store().size(), stored);
    }
}

TEST(PrefixCheckpoint, RequestingRunCountsTheRecordingsDispatcherWork)
{
    // The run that has the golden run recorded lends the recording its
    // block cache and takes over its translation and dispatch counts,
    // but not its jumps. A second run of the same plan finds the store
    // complete and does only its own work.
    const PrefixWorkload w{"crc32"};
    const auto plan = fault::FaultPlan::single(
        Probe::SrfSpatialWrite, fault::FaultMode::OneShot,
        w.golden.instret - 1000, 0x100);
    const FaultedRun first = run_prefix(w.cp.program, plan, w.cfg);
    const FaultedRun second = run_prefix(w.cp.program, plan, w.cfg);
    expect_same_faulted(first, second);
    EXPECT_EQ(first.dbt.prefix_restores, second.dbt.prefix_restores);
    EXPECT_EQ(first.dbt.restored_instret, second.dbt.restored_instret);
    EXPECT_EQ(first.dbt.rejoins, second.dbt.rejoins);
    if (!dispatcher_available()) {
        EXPECT_EQ(first.dbt.block_execs, 0u);
        return;
    }
    // The recording ran every instruction the jump skipped.
    ASSERT_GT(second.dbt.restored_instret, w.golden.instret / 2);
    EXPECT_GT(first.dbt.blocks, second.dbt.blocks);
    EXPECT_GT(first.dbt.translated_ops, second.dbt.translated_ops);
    EXPECT_GT(first.dbt.block_execs, second.dbt.block_execs);
}

TEST(PrefixCheckpoint, TraceHookNeitherRecordsNorRestores)
{
    const PrefixWorkload w{"crc32"};
    const auto plan = fault::FaultPlan::single(
        Probe::SrfSpatialWrite, fault::FaultMode::OneShot,
        w.golden.instret - 1000, 0x100);
    const auto traced = [&] {
        fault::Injector inj{plan};
        Machine m{w.cp.program, w.cfg};
        inj.attach(m);
        u64 traced_instrs = 0;
        m.set_trace([&](u64, const Instruction&) { ++traced_instrs; });
        FaultedRun r = finish_faulted(m.run(), inj, m);
        EXPECT_EQ(traced_instrs, r.result->instret);
        return r;
    };
    const FaultedRun ref = run_interp(w.cp.program, plan, w.cfg);
    FaultedRun r = traced();
    expect_same_faulted(r, ref);
    expect_restored(r, 0);
    EXPECT_EQ(w.store().size(), 0u);
    EXPECT_EQ(w.store().terminal(key_of(w)), nullptr);
    // With checkpoints in the store, a traced run still starts at 0.
    const FaultedRun ff = run_prefix(w.cp.program, plan, w.cfg);
    expect_same_faulted(ff, ref);
    if (dispatcher_available()) {
        EXPECT_GT(ff.dbt.restored_instret, 0u);
    }
    r = traced();
    expect_same_faulted(r, ref);
    expect_restored(r, 0);
}

TEST(PrefixCheckpoint, GoldenRunThatExhaustsItsFuelEndsAtAFuelTerminal)
{
    // Under a fuel below the golden run's end, the recording stops at the
    // fuel limit: its terminal checkpoint is the FuelExhausted end, and a
    // run whose trigger lies past it jumps straight there.
    const PrefixWorkload w{"crc32"};
    const auto plan = fault::FaultPlan::single(
        Probe::LmsmStore, fault::FaultMode::StuckAt, w.golden.instret - 10,
        0x1);
    for (const u64 fuel : {2 * kSpacing, 2 * kSpacing + 1,
                           w.golden.instret - 1}) {
        SCOPED_TRACE(fuel);
        sim::MachineConfig cfg = w.cfg;
        cfg.fuel = fuel;
        const FaultedRun ff = run_prefix(w.cp.program, plan, cfg);
        const FaultedRun ref = run_interp(w.cp.program, plan, cfg);
        expect_same_faulted(ff, ref);
        expect_same_end_state(ff, ref);
        EXPECT_EQ(ff.result->trap.kind, TrapKind::FuelExhausted);
        EXPECT_EQ(ff.result->instret, fuel);
        expect_restored(ff, fuel);
        expect_store(w.store(), key_of(w.cp.program, cfg), fuel);
        if (const auto t = w.store().terminal(key_of(w.cp.program, cfg))) {
            EXPECT_EQ(t->trap.kind, TrapKind::FuelExhausted);
        }
    }
}

TEST(PrefixCheckpoint, CancelAndResumeInsideTheRestoredSegment)
{
    const PrefixWorkload w{"crc32"};
    const u64 trigger = 3 * kSpacing + 5000;
    const auto plan = fault::FaultPlan::single(
        Probe::KeybufferLookup, fault::FaultMode::OneShot, trigger, 0x2);
    const FaultedRun ref = run_interp(w.cp.program, plan, w.cfg);
    const u64 to = dispatcher_available() ? 3 * kSpacing : 0;
    expect_restored(run_prefix(w.cp.program, plan, w.cfg), to);

    fault::Injector inj{plan};
    Machine m{w.cp.program, w.cfg};
    inj.attach(m);
    // After the restored checkpoint, before the trigger.
    const auto inside = [&] { return m.instret() > 3 * kSpacing + 1000; };
    EXPECT_FALSE(m.run_cancellable(inside, 16).has_value());
    EXPECT_LT(m.instret(), trigger);
    EXPECT_EQ(inj.fires(), 0u);
    const FaultedRun resumed = finish_faulted(m.run(), inj, m);
    expect_same_faulted(resumed, ref);
    expect_restored(resumed, to);
}

TEST(PrefixCheckpoint, CancelledRecordingResumesWhereItStopped)
{
    // A deadline that fires inside the recording leaves a prefix of the
    // golden run stored; the next run records the rest from there, and
    // both runs end as the interpreter does.
    const PrefixWorkload w{"crc32"};
    const auto plan = never_fires(w);
    Machine m{w.cp.program, w.cfg};
    fault::Injector inj{plan};
    inj.attach(m);
    u64 polls = 0;
    const auto deadline = [&polls] { return ++polls > 40; };
    const auto cut = m.run_cancellable(deadline, 4096);
    if (dispatcher_available()) {
        EXPECT_FALSE(cut.has_value());
        EXPECT_EQ(m.instret(), 0u);
        EXPECT_GT(w.store().size(), 0u);
        EXPECT_LT(w.store().size(), StoreShape{w.golden.instret}.size());
        EXPECT_EQ(w.store().terminal(key_of(w)), nullptr);
    }
    const FaultedRun ref = run_interp(w.cp.program, plan, w.cfg);
    const FaultedRun resumed = finish_faulted(m.run(), inj, m);
    expect_same_faulted(resumed, ref);
    expect_same_end_state(resumed, ref);
    expect_restored(resumed, w.golden.instret);
    expect_store(w.store(), key_of(w), w.golden.instret);
}

TEST(PrefixCheckpoint, TwoFaultPlansRestoreBelowTheEarlierTrigger)
{
    const PrefixWorkload w{"treeadd"};
    const u64 early = kSpacing + 777;
    const u64 late = 2 * kSpacing + 4321;
    const fault::FaultPlan plan{{
        {Probe::LmsmLoad, fault::FaultMode::StuckAt, late, 0x3},
        {Probe::CompCsrWidths, fault::FaultMode::OneShot, early, 0x40},
    }};
    const GoldenEvents events{w.cp.program, w.cfg};
    const StoreShape shape{w.golden.instret};
    for (int i = 0; i < 2; ++i) {
        SCOPED_TRACE(i);
        const Jumps golden =
            dispatcher_available()
                ? shape.fresh_run(events, quiet_of(plan),
                                  first_fire(events, plan))
                : Jumps{};
        const FaultedRun ff = run_prefix(w.cp.program, plan, w.cfg);
        expect_same_faulted(ff, run_interp(w.cp.program, plan, w.cfg));
        EXPECT_LT(golden.to, early);
        if (!dispatcher_available()) continue;
        // The one-shot fire leaves the golden run, which the run rejoins
        // at the next checkpoint; treeadd reaches lmsm-load in every
        // stretch, so no jump follows before the stuck-at fault.
        EXPECT_EQ(golden.restores, 1u);
        EXPECT_EQ(ff.dbt.rejoins, 1u);
        EXPECT_EQ(ff.dbt.prefix_restores, golden.restores);
        EXPECT_EQ(ff.dbt.restored_instret, golden.instret);
        expect_store(w.store(), key_of(w), w.golden.instret);
    }
}

TEST(PrefixCheckpoint, FaultedRunRejoinsAtTheFirstCheckpoint)
{
    // A masked one-shot fault below the first checkpoint: the run leaves
    // the golden run before it could jump anywhere. It rejoins at the
    // first checkpoint and, its point quiet again after the fire, jumps
    // to the terminal one, whether or not another run of the Program
    // came before it.
    const auto plan = fault::FaultPlan::single(
        Probe::CompCsrWidths, fault::FaultMode::OneShot, kSpacing / 2,
        kIgnoredWidthBit);
    for (const bool warm : {false, true}) {
        SCOPED_TRACE(warm ? "warm" : "fresh");
        const PrefixWorkload w{"crc32"};
        if (warm) {
            expect_restored(run_prefix(w.cp.program, never_fires(w), w.cfg),
                            dispatcher_available() ? w.golden.instret : 0);
        }
        const FaultedRun ref = run_interp(w.cp.program, plan, w.cfg);
        ASSERT_EQ(ref.fires, 1u);
        const FaultedRun ff = run_prefix(w.cp.program, plan, w.cfg);
        expect_same_faulted(ff, ref);
        expect_same_end_state(ff, ref);
        expect_store(w.store(), key_of(w), w.golden.instret);
        if (!dispatcher_available()) continue;
        EXPECT_EQ(ff.dbt.rejoins, 1u);
        EXPECT_EQ(ff.dbt.prefix_restores, 1u);
        EXPECT_EQ(ff.dbt.restored_instret, w.golden.instret - kSpacing);
    }
}

TEST(PrefixCheckpoint, MachineThatWasNeverGoldenCompletesTheStoreAndRejoins)
{
    // A Machine that handed out mutable state before its run began makes
    // no jump while its state is unproven, but it completes the store
    // like any other run, and once its state equals a stored checkpoint
    // it rejoins the golden run there.
    const PrefixWorkload w{"crc32"};
    const auto plan = fault::FaultPlan::single(
        Probe::CompCsrWidths, fault::FaultMode::OneShot, kSpacing / 2,
        kIgnoredWidthBit);
    fault::Injector inj{plan};
    Machine m{w.cp.program, w.cfg};
    (void)m.memory(); // hands out mutable state
    inj.attach(m);
    const FaultedRun ff = finish_faulted(m.run(), inj, m);
    const FaultedRun ref = run_interp(w.cp.program, plan, w.cfg);
    expect_same_faulted(ff, ref);
    expect_same_end_state(ff, ref);
    expect_store(w.store(), key_of(w), w.golden.instret);
    if (!dispatcher_available()) return;
    EXPECT_EQ(ff.dbt.rejoins, 1u);
    EXPECT_EQ(ff.dbt.prefix_restores, 1u);
    EXPECT_EQ(ff.dbt.restored_instret, w.golden.instret - kSpacing);
}

TEST(PrefixCheckpoint, RestoresTheOutputPrintedBeforeIt)
{
    // Prints every 64th count: about 1,500 values.
    const Built b = build([](Program& p) {
        p.emit_li(Reg::s0, 0);
        p.emit_li(Reg::s1, 100'000);
        p.label("loop");
        p.emit(itype(Opcode::ADDI, Reg::s0, Reg::s0, 1));
        p.emit(itype(Opcode::ANDI, Reg::t0, Reg::s0, 63));
        p.emit_branch(Opcode::BNE, Reg::t0, Reg::zero, "skip");
        p.emit(itype(Opcode::ADDI, Reg::a0, Reg::s0, 0));
        p.emit_li(Reg::a7, static_cast<i64>(Sys::PrintI64));
        p.emit(Instruction{Opcode::ECALL});
        p.label("skip");
        p.emit_branch(Opcode::BLT, Reg::s0, Reg::s1, "loop");
        p.emit_li(Reg::a0, 0);
    });
    const sim::MachineConfig cfg{};
    // LmsmLoad never fires here: its point stays live from the trigger
    // to the end, and the golden run never reaches it.
    const auto plan = fault::FaultPlan::single(
        Probe::LmsmLoad, fault::FaultMode::OneShot, 2 * kSpacing + 99, 0x1);
    const FaultedRun ref = run_interp(b.program, plan, cfg);
    ASSERT_GT(ref.result->instret, 6 * kSpacing);
    ASSERT_GT(ref.result->output.size(), 1500u);
    // Straight to the terminal checkpoint, which holds all of it.
    const FaultedRun ff = run_prefix(b.program, plan, cfg);
    expect_same_faulted(ff, ref);
    expect_same_end_state(ff, ref);
    expect_restored(ff, ref.result->instret);
    // A fuel two thirds of the way in: to the FuelExhausted terminal,
    // which holds the output printed below it.
    sim::MachineConfig cut = cfg;
    cut.fuel = ref.result->instret * 2 / 3;
    const FaultedRun cut_ref = run_interp(b.program, plan, cut);
    const FaultedRun cut_ff = run_prefix(b.program, plan, cut);
    expect_same_faulted(cut_ff, cut_ref);
    expect_same_end_state(cut_ff, cut_ref);
    ASSERT_GT(cut_ref.result->output.size(), 1000u);
    expect_restored(cut_ff, cut.fuel);
}

TEST(PrefixCheckpoint, FourThreadsShareOneProgram)
{
    const PrefixWorkload w{"crc32"};
    // Every trigger lies past the third checkpoint, so every run jumps
    // at its start, however the threads interleave.
    std::vector<fault::FaultPlan> plans;
    for (unsigned i = 0; i < 12; ++i) {
        const auto point = static_cast<Probe>(i % sim::kNumProbes);
        const auto mode = i % 3 == 0 ? fault::FaultMode::StuckAt
                                     : fault::FaultMode::OneShot;
        plans.push_back(fault::FaultPlan::single(
            point, mode, 3 * kSpacing + 1 + 9973 * i, u64{1} << i));
    }
    std::vector<FaultedRun> refs;
    for (const auto& plan : plans) refs.push_back(run_interp(w.cp.program, plan, w.cfg));
    std::vector<FaultedRun> runs(plans.size());
    std::vector<std::thread> threads;
    for (unsigned t = 0; t < 4; ++t) {
        threads.emplace_back([&, t] {
            for (std::size_t i = t; i < plans.size(); i += 4)
                runs[i] = run_prefix(w.cp.program, plans[i], w.cfg);
        });
    }
    for (auto& t : threads) t.join();
    for (std::size_t i = 0; i < plans.size(); ++i) {
        SCOPED_TRACE(i);
        expect_same_faulted(runs[i], refs[i]);
        expect_same_end_state(runs[i], refs[i]);
        if (dispatcher_available()) {
            EXPECT_GE(runs[i].dbt.restored_instret, 3 * kSpacing);
        }
    }
    expect_store(w.store(), key_of(w), w.golden.instret);
}

TEST(PrefixCheckpoint, RunThatDiffersOnlyInItsOutputDoesNotRejoin)
{
    // Prints the word it loads from an untouched stack slot, then clears
    // the register: a DcacheFillData fault on that load changes the
    // printed value and nothing else.
    const Built b = build([](Program& p) {
        p.emit(itype(Opcode::LD, Reg::a0, Reg::sp, -64));
        p.emit_li(Reg::a7, static_cast<i64>(Sys::PrintI64));
        p.emit(Instruction{Opcode::ECALL});
        p.emit_li(Reg::a0, 0);
        p.emit_li(Reg::s0, 0);
        p.emit_li(Reg::s1, 150'000);
        p.label("loop");
        p.emit(itype(Opcode::ADDI, Reg::s0, Reg::s0, 1));
        p.emit_branch(Opcode::BLT, Reg::s0, Reg::s1, "loop");
    });
    const sim::MachineConfig cfg{};
    const auto plan = fault::FaultPlan::single(
        Probe::DcacheFillData, fault::FaultMode::OneShot, 1, 0x5);
    const FaultedRun ref = run_interp(b.program, plan, cfg);
    ASSERT_EQ(ref.fires, 1u);
    ASSERT_EQ(ref.result->output, std::vector<i64>{5});
    ASSERT_GT(ref.result->instret, 2 * kSpacing);
    const FaultedRun ff = run_prefix(b.program, plan, cfg);
    expect_same_faulted(ff, ref);
    expect_same_end_state(ff, ref);
    expect_restored(ff, 0);
    expect_store(sim::CheckpointStore::of(b.program), key_of(b.program, cfg),
                 ref.result->instret);
}

TEST(PrefixCheckpoint, TwoFaultPlanRejoinsOnlyBelowItsSecondTrigger)
{
    const PrefixWorkload w{"crc32"};
    const u64 late = 3 * kSpacing + 4321;
    ASSERT_GT(w.golden.instret, late + kSpacing);
    const fault::FaultPlan plan{{
        {Probe::CompCsrWidths, fault::FaultMode::OneShot, kSpacing / 2,
         kIgnoredWidthBit},
        {Probe::CompCsrWidths, fault::FaultMode::StuckAt, late,
         kIgnoredWidthBit << 1},
    }};
    const FaultedRun ref = run_interp(w.cp.program, plan, w.cfg);
    ASSERT_GT(ref.fires, 1u);
    const FaultedRun ff = run_prefix(w.cp.program, plan, w.cfg);
    expect_same_faulted(ff, ref);
    expect_same_end_state(ff, ref);
    if (dispatcher_available()) {
        // Rejoined at kSpacing, then jumped to the last checkpoint below
        // the stuck-at trigger; the rejoins after it cannot jump.
        EXPECT_GE(ff.dbt.rejoins, 2u);
        EXPECT_EQ(ff.dbt.prefix_restores, 1u);
        EXPECT_EQ(ff.dbt.restored_instret, 2 * kSpacing);
    }
}

TEST(PrefixCheckpoint, RejoinJumpsToTheTerminalAtOrBelowTheFuel)
{
    const PrefixWorkload w{"crc32"};
    const auto plan = fault::FaultPlan::single(
        Probe::CompCsrWidths, fault::FaultMode::OneShot, kSpacing / 2,
        kIgnoredWidthBit);
    // The rejoin at kSpacing jumps to the terminal checkpoint: the
    // FuelExhausted end below the golden run's end, else that end.
    for (const u64 fuel :
         {w.golden.instret - 1000, w.golden.instret, w.golden.instret + 1}) {
        SCOPED_TRACE(fuel);
        sim::MachineConfig cfg = w.cfg;
        cfg.fuel = fuel;
        const FaultedRun ref = run_interp(w.cp.program, plan, cfg);
        EXPECT_EQ(ref.result->ok(), fuel >= w.golden.instret);
        const FaultedRun ff = run_prefix(w.cp.program, plan, cfg);
        expect_same_faulted(ff, ref);
        expect_same_end_state(ff, ref);
        const u64 end = std::min(fuel, w.golden.instret);
        expect_store(w.store(), key_of(w.cp.program, cfg), end);
        if (!dispatcher_available()) continue;
        EXPECT_EQ(ff.dbt.rejoins, 1u);
        EXPECT_EQ(ff.dbt.prefix_restores, 1u);
        EXPECT_EQ(ff.dbt.restored_instret, end - kSpacing);
    }
}

TEST(PrefixCheckpoint, StuckAtRunsRejoinButNeverJump)
{
    const PrefixWorkload w{"crc32"};
    for (const u64 trigger : {kSpacing / 2, 2 * kSpacing + 1}) {
        SCOPED_TRACE(trigger);
        const auto plan = fault::FaultPlan::single(
            Probe::CompCsrWidths, fault::FaultMode::StuckAt, trigger,
            kIgnoredWidthBit);
        const FaultedRun ref = run_interp(w.cp.program, plan, w.cfg);
        const FaultedRun ff = run_prefix(w.cp.program, plan, w.cfg);
        expect_same_faulted(ff, ref);
        expect_same_end_state(ff, ref);
        if (!dispatcher_available()) continue;
        // Equal at every checkpoint past the trigger. crc32 reaches
        // comp-csr-widths in every stretch, so the latest reaches allow
        // no jump after a rejoin: the only jump is the fresh one, to the
        // latest checkpoint below the trigger.
        EXPECT_EQ(ff.dbt.rejoins,
                  (w.golden.instret - 1) / kSpacing - (trigger - 1) / kSpacing);
        const u64 c = (trigger - 1) / kSpacing * kSpacing;
        EXPECT_EQ(ff.dbt.prefix_restores, c ? 1u : 0u);
        EXPECT_EQ(ff.dbt.restored_instret, c);
    }
}

TEST(PrefixCheckpoint, StuckAtRunJumpsOverAStretchWithoutEvents)
{
    // Binds a pointer (a comp-csr-widths reach), loops for 3.2
    // stretches, binds again and loops for 3 more.
    const auto loop = [](Program& p, const char* label, i64 trips) {
        p.emit_li(Reg::s0, 0);
        p.emit_li(Reg::s1, trips);
        p.label(label);
        p.emit(itype(Opcode::ADDI, Reg::s0, Reg::s0, 1));
        p.emit_branch(Opcode::BLT, Reg::s0, Reg::s1, label);
    };
    const Built b = build([&](Program& p) {
        const i64 base = static_cast<i64>(p.layout().data_base);
        p.emit_li(Reg::a0, base);
        p.emit_li(Reg::t4, base + 64);
        p.emit(rtype(Opcode::BNDRS, Reg::a0, Reg::a0, Reg::t4));
        loop(p, "first", static_cast<i64>(kSpacing * 16 / 10));
        p.emit(rtype(Opcode::BNDRS, Reg::a1, Reg::a0, Reg::t4));
        loop(p, "second", static_cast<i64>(kSpacing * 3 / 2));
        p.emit_li(Reg::a0, 0);
    });
    const sim::MachineConfig cfg{};
    const GoldenEvents events{b.program, cfg};
    const auto& widths = events.at[static_cast<unsigned>(Probe::CompCsrWidths)];
    ASSERT_EQ(widths.size(), 2u);
    ASSERT_LT(widths[0], kSpacing);
    ASSERT_GT(widths[1], 3 * kSpacing);
    ASSERT_LT(widths[1], 4 * kSpacing);
    // Each fire changes only bits the decode ignores: the run rejoins at
    // the checkpoint after it, jumps to the last checkpoint before the
    // second bind, fires there and rejoins again, then jumps to the end.
    const auto plan = fault::FaultPlan::single(
        Probe::CompCsrWidths, fault::FaultMode::StuckAt, 1, kIgnoredWidthBit);
    const FaultedRun ref = run_interp(b.program, plan, cfg);
    ASSERT_EQ(ref.fires, 2u);
    const FaultedRun ff = run_prefix(b.program, plan, cfg);
    expect_same_faulted(ff, ref);
    expect_same_end_state(ff, ref);
    if (!dispatcher_available()) return;
    EXPECT_EQ(ff.dbt.rejoins, 2u);
    EXPECT_EQ(ff.dbt.prefix_restores, 2u);
    EXPECT_EQ(ff.dbt.restored_instret, (3 * kSpacing - kSpacing) +
                                           (ref.result->instret - 4 * kSpacing));
}

TEST(PrefixCheckpoint, FourThreadsRaceToStoreOneTerminal)
{
    const PrefixWorkload w{"treeadd"};
    const auto plan = never_fires(w);
    std::vector<FaultedRun> runs(4);
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < runs.size(); ++t)
        threads.emplace_back(
            [&, t] { runs[t] = run_prefix(w.cp.program, plan, w.cfg); });
    for (auto& t : threads) t.join();
    const FaultedRun ref = run_interp(w.cp.program, plan, w.cfg);
    for (const auto& r : runs) {
        expect_same_faulted(r, ref);
        expect_same_end_state(r, ref);
        // One thread recorded; every one then jumped straight to the end.
        expect_restored(r, w.golden.instret);
    }
    const FaultedRun fifth = run_prefix(w.cp.program, plan, w.cfg);
    expect_same_faulted(fifth, ref);
    expect_same_end_state(fifth, ref);
    expect_restored(fifth, w.golden.instret);
    expect_store(w.store(), key_of(w), w.golden.instret);
    if (!dispatcher_available()) return;
    const auto terminal = w.store().terminal(key_of(w));
    ASSERT_NE(terminal, nullptr);
    EXPECT_EQ(terminal->output, w.golden.output);
    EXPECT_EQ(terminal->trap.kind, TrapKind::None);
}

// ------------------------------------------- counter conservation
//
// Machine::run_cancellable throws SimError when a finished run's
// counters do not add up; a faulted run may end anywhere, so it must
// still pass where its perturbed metadata took it.

TEST(CounterConservation, TchkWhoseKeyLoadFaultsLooksUpWithoutACheck)
{
    // Perturbed csr.bitw widths can decode a lock address outside every
    // mapped region: the keybuffer misses, and the key load then faults
    // before the TCU counts the check. Both tiers end the run there.
    // Draw 56 is the first of crc32's one-shot comp-csr-widths draws to
    // do so.
    const PrefixWorkload w{"crc32"};
    hwst::common::Xoshiro256 rng{56};
    const fault::FaultPlan plan{{fault::FaultPlan::random_spec(
        Probe::CompCsrWidths, w.golden.instret, rng,
        fault::FaultMode::OneShot)}};
    const FaultedRun ref = run_interp(w.cp.program, plan, w.cfg);
    const FaultedRun ff = run_prefix(w.cp.program, plan, w.cfg);
    expect_same_faulted(ff, ref);
    expect_same_end_state(ff, ref);
    const sim::RunResult& r = *ref.result;
    EXPECT_EQ(r.trap.kind, TrapKind::AccessFault);
    EXPECT_EQ(r.keybuffer.lookups, r.tcu_checks - r.tcu_saturated + 1);
}

} // namespace
