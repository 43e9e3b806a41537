// Execution tiers (src/sim/dispatch.cpp): the superblock dispatcher is
// a pure host-side accelerator, so every test here is a differential
// one — the same program runs under the interpreter and the dispatcher
// (MachineConfig::tier) and the full RunResult must be bit-identical:
// instret, cycles, traps, output, InstrMix and every cache/unit
// counter. Fuzzed programs cover ALU/memory/branch/loop shapes; the
// workload tests cover the HWST metadata ISA, checked accesses and
// ecalls; dedicated tests pin down tier resolution, block invalidation,
// chaining, hook-forced fallback, cancellation strides, fuel traps and
// mid-stream CSR reads of the batched counters.
#include <gtest/gtest.h>

#include <cstdlib>
#include <optional>
#include <string>
#include <vector>

#include "common/prng.hpp"
#include "compiler/driver.hpp"
#include "hwst/csr.hpp"
#include "riscv/instr.hpp"
#include "riscv/program.hpp"
#include "sim/machine.hpp"
#include "sim/syscalls.hpp"
#include "workloads/workload.hpp"

namespace {

using namespace hwst::riscv;
namespace sim = hwst::sim;
using hwst::common::i64;
using hwst::common::u64;
using hwst::common::Xoshiro256;

sim::MachineConfig with_dbt(sim::MachineConfig cfg, bool on)
{
    cfg.tier = on ? sim::ExecTier::Dbt : sim::ExecTier::Interp;
    return cfg;
}

/// Sets (value) or unsets (nullptr) an environment variable for one
/// scope, restoring whatever the process had before.
class EnvGuard {
public:
    EnvGuard(const char* name, const char* value) : name_{name}
    {
        if (const char* old = std::getenv(name)) old_ = old;
        if (value) ::setenv(name, value, 1);
        else ::unsetenv(name);
    }
    ~EnvGuard()
    {
        if (old_) ::setenv(name_.c_str(), old_->c_str(), 1);
        else ::unsetenv(name_.c_str());
    }
    EnvGuard(const EnvGuard&) = delete;
    EnvGuard& operator=(const EnvGuard&) = delete;

private:
    std::string name_;
    std::optional<std::string> old_;
};

void expect_bit_equal(const sim::RunResult& a, const sim::RunResult& b)
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
    EXPECT_EQ(a.mix.alu, b.mix.alu);
    EXPECT_EQ(a.mix.loads, b.mix.loads);
    EXPECT_EQ(a.mix.stores, b.mix.stores);
    EXPECT_EQ(a.mix.checked_loads, b.mix.checked_loads);
    EXPECT_EQ(a.mix.checked_stores, b.mix.checked_stores);
    EXPECT_EQ(a.mix.meta_moves, b.mix.meta_moves);
    EXPECT_EQ(a.mix.binds, b.mix.binds);
    EXPECT_EQ(a.mix.tchk, b.mix.tchk);
    EXPECT_EQ(a.mix.branches, b.mix.branches);
    EXPECT_EQ(a.mix.jumps, b.mix.jumps);
    EXPECT_EQ(a.mix.ecalls, b.mix.ecalls);
    EXPECT_EQ(a.mix.other, b.mix.other);
}

// ---- randomized program generator ------------------------------------

const std::vector<Opcode>& alu_ops()
{
    static const std::vector<Opcode> ops = {
        Opcode::ADDI,  Opcode::XORI,  Opcode::ORI,   Opcode::ANDI,
        Opcode::SLTI,  Opcode::SLTIU, Opcode::SLLI,  Opcode::SRLI,
        Opcode::SRAI,  Opcode::ADD,   Opcode::SUB,   Opcode::SLL,
        Opcode::SRL,   Opcode::SRA,   Opcode::SLT,   Opcode::SLTU,
        Opcode::XOR,   Opcode::OR,    Opcode::AND,   Opcode::MUL,
        Opcode::MULH,  Opcode::MULHSU, Opcode::MULHU, Opcode::DIV,
        Opcode::DIVU,  Opcode::REM,   Opcode::REMU,  Opcode::ADDIW,
        Opcode::ADDW,  Opcode::SUBW,  Opcode::SLLW,  Opcode::SRLW,
        Opcode::SRAW,  Opcode::MULW,  Opcode::DIVW,  Opcode::DIVUW,
        Opcode::REMW,  Opcode::REMUW, Opcode::SLLIW, Opcode::SRLIW,
        Opcode::SRAIW, Opcode::LUI,
    };
    return ops;
}

// Work registers only. s5/s6/s7 are reserved for the generator (memory
// base, loop induction, loop limit), sp/gp/tp/ra belong to the runtime.
Reg work_reg(Xoshiro256& rng)
{
    static const Reg pool[] = {Reg::t0, Reg::t1, Reg::t2, Reg::t3,
                               Reg::t4, Reg::t5, Reg::t6, Reg::s2,
                               Reg::s3, Reg::s4, Reg::a2, Reg::a3,
                               Reg::a4, Reg::a5, Reg::zero};
    return pool[rng.below(std::size(pool))];
}

/// One random instruction: ALU op, load/store through s5 (the mapped
/// scratch data region) or a FENCE (exercises the Nop fold).
void emit_random_op(Program& p, Xoshiro256& rng)
{
    const u64 pick = rng.below(100);
    if (pick < 12) { // load
        static const Opcode ops[] = {Opcode::LB,  Opcode::LH,  Opcode::LW,
                                     Opcode::LD,  Opcode::LBU, Opcode::LHU,
                                     Opcode::LWU};
        const Opcode op = ops[rng.below(std::size(ops))];
        const i64 off =
            static_cast<i64>(rng.below(256)) * mem_width(op);
        p.emit(itype(op, work_reg(rng), Reg::s5, off));
        return;
    }
    if (pick < 24) { // store
        static const Opcode ops[] = {Opcode::SB, Opcode::SH, Opcode::SW,
                                     Opcode::SD};
        const Opcode op = ops[rng.below(std::size(ops))];
        const i64 off =
            static_cast<i64>(rng.below(256)) * mem_width(op);
        p.emit(stype(op, Reg::s5, work_reg(rng), off));
        return;
    }
    if (pick < 27) {
        p.emit(Instruction{Opcode::FENCE});
        return;
    }
    const Opcode op = alu_ops()[rng.below(alu_ops().size())];
    Instruction in;
    in.op = op;
    in.rd = work_reg(rng);
    in.rs1 = work_reg(rng);
    in.rs2 = work_reg(rng);
    switch (op_format(op)) {
    case Format::I:
        in.rs2 = Reg::zero;
        in.imm = static_cast<i64>(rng.below(4096)) - 2048;
        break;
    case Format::ShiftI:
        in.rs2 = Reg::zero;
        in.imm = static_cast<i64>(rng.below(64));
        break;
    case Format::ShiftIW:
        in.rs2 = Reg::zero;
        in.imm = static_cast<i64>(rng.below(32));
        break;
    case Format::U:
        in.rs1 = in.rs2 = Reg::zero;
        in.imm = (static_cast<i64>(rng.below(1u << 20)) - (1 << 19)) << 12;
        break;
    default:
        break;
    }
    p.emit(in);
}

/// Random program with straight-line stretches, forward branches and
/// jumps (both edges reachable), a counted loop (hot block chaining)
/// and memory traffic into the data region. Terminates by construction:
/// branches only go forward, the loop trips a fixed induction count.
Program fuzz_program(Xoshiro256& rng)
{
    Program p;
    p.label("main");

    const i64 seeds[] = {0,
                         1,
                         -1,
                         0x7FFFFFFF,
                         -0x80000000ll,
                         static_cast<i64>(0x8000000000000000ull),
                         0x7FFFFFFFFFFFFFFFll,
                         static_cast<i64>(rng.next())};
    int si = 0;
    for (const Reg r : {Reg::t0, Reg::t1, Reg::t2, Reg::t3, Reg::t4,
                        Reg::t5, Reg::t6, Reg::s2}) {
        p.emit_li(r, seeds[si++]);
    }
    p.emit_li(Reg::s5, static_cast<i64>(p.layout().data_base));

    static const Opcode branches[] = {Opcode::BEQ,  Opcode::BNE,
                                      Opcode::BLT,  Opcode::BGE,
                                      Opcode::BLTU, Opcode::BGEU};
    for (int seg = 0; seg < 10; ++seg) {
        const std::string next = "seg" + std::to_string(seg);
        const u64 kind = rng.below(3);
        if (kind == 0) {
            p.emit_branch(branches[rng.below(std::size(branches))],
                          work_reg(rng), work_reg(rng), next);
        } else if (kind == 1) {
            p.emit_jal(Reg::zero, next);
        }
        const int n = 4 + static_cast<int>(rng.below(90));
        for (int k = 0; k < n; ++k) emit_random_op(p, rng);
        p.label(next);
    }

    // Counted loop: the same blocks execute repeatedly, so taken and
    // fall-through chain edges both get hot.
    p.emit_li(Reg::s6, 0);
    p.emit_li(Reg::s7, 40 + static_cast<i64>(rng.below(60)));
    p.label("loop");
    const int body = 3 + static_cast<int>(rng.below(12));
    for (int k = 0; k < body; ++k) emit_random_op(p, rng);
    p.emit(itype(Opcode::ADDI, Reg::s6, Reg::s6, 1));
    p.emit_branch(Opcode::BLT, Reg::s6, Reg::s7, "loop");

    // Fold every work register into a0 and exit with the checksum.
    p.emit_li(Reg::a0, 0);
    for (const Reg r : {Reg::t0, Reg::t1, Reg::t2, Reg::t3, Reg::t4,
                        Reg::t5, Reg::t6, Reg::s2, Reg::s3, Reg::s4,
                        Reg::a2, Reg::a3, Reg::a4, Reg::a5}) {
        p.emit(rtype(Opcode::XOR, Reg::a0, Reg::a0, r));
        p.emit(itype(Opcode::SLLI, Reg::a1, Reg::a0, 1));
        p.emit(rtype(Opcode::XOR, Reg::a0, Reg::a0, Reg::a1));
    }
    p.emit_li(Reg::a7, static_cast<i64>(sim::Sys::Exit));
    p.emit(Instruction{Opcode::ECALL});
    p.finalize();
    return p;
}

// ---- tier resolution -------------------------------------------------

TEST(TierResolution, AutoIsDbtAndHwstTierOverridesConfig)
{
    Program p;
    p.label("main");
    p.emit_li(Reg::a0, 7);
    p.emit_li(Reg::a7, static_cast<i64>(sim::Sys::Exit));
    p.emit(Instruction{Opcode::ECALL});
    p.finalize();

    {
        const EnvGuard unset{"HWST_TIER", nullptr};
        EXPECT_EQ(sim::env_tier(), std::nullopt);
        sim::Machine dflt{p};
        EXPECT_EQ(dflt.tier(), sim::ExecTier::Dbt);
        sim::Machine interp{p, with_dbt({}, false)};
        EXPECT_EQ(interp.tier(), sim::ExecTier::Interp);
    }
    {
        const EnvGuard env{"HWST_TIER", "interp"};
        EXPECT_EQ(sim::env_tier(), sim::ExecTier::Interp);
        sim::Machine m{p, with_dbt({}, true)};
        EXPECT_EQ(m.tier(), sim::ExecTier::Interp);
    }
    {
        // A retired tier name is not in the vocabulary: env_choice warns
        // once and ignores it, so the config's Auto still means dbt.
        const EnvGuard env{"HWST_TIER", "jit"};
        EXPECT_EQ(sim::env_tier(), std::nullopt);
        sim::Machine m{p};
        EXPECT_EQ(m.tier(), sim::ExecTier::Dbt);
        const sim::RunResult r = m.run();
        EXPECT_EQ(r.exit_code, 7);
        EXPECT_EQ(m.jit_stats().translated, 0u);
        EXPECT_EQ(m.jit_stats().code_bytes, 0u);
    }
}

// ---- fuzzed programs -------------------------------------------------

class SuperblockFuzz : public ::testing::TestWithParam<u64> {};

TEST_P(SuperblockFuzz, DbtMatchesInterpreterBitForBit)
{
    Xoshiro256 rng{0x5B10C + GetParam() * 6271};
    const Program p = fuzz_program(rng);

    sim::Machine dbt{p, with_dbt({}, true)};
    const sim::RunResult a = dbt.run();

    sim::Machine interp{p, with_dbt({}, false)};
    const sim::RunResult b = interp.run();

    ASSERT_EQ(a.trap.kind, hwst::hwst::TrapKind::None);
    expect_bit_equal(a, b);
    EXPECT_GT(dbt.dbt_stats().block_execs, 0u);
    EXPECT_EQ(interp.dbt_stats().block_execs, 0u);
    // fallback_runs counts runs where the tier was configured on but a
    // hook blocked it; configuring it off is not a fallback.
    EXPECT_EQ(interp.dbt_stats().fallback_runs, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SuperblockFuzz, ::testing::Range<u64>(0, 16));

// ---- real workloads, all instrumentation schemes ---------------------

TEST(SuperblockWorkloads, SchemesBitIdenticalAcrossTiers)
{
    const auto& w = hwst::workloads::all_workloads().front();
    for (const auto scheme : {hwst::compiler::Scheme::None,
                              hwst::compiler::Scheme::Hwst128Tchk}) {
        const auto cp = hwst::compiler::compile(w.build(), scheme);

        sim::Machine dbt{cp.program, with_dbt(cp.machine_config, true)};
        const sim::RunResult a = dbt.run();
        EXPECT_EQ(a.exit_code, w.expected);

        sim::Machine interp{cp.program,
                            with_dbt(cp.machine_config, false)};
        const sim::RunResult b = interp.run();
        expect_bit_equal(a, b);
    }
}

// ---- block-cache invalidation ----------------------------------------

TEST(SuperblockCacheTest, MapRegionFlushesTranslatedBlocks)
{
    const auto& w = hwst::workloads::all_workloads().front();
    const auto cp =
        hwst::compiler::compile(w.build(), hwst::compiler::Scheme::None);

    sim::Machine plain{cp.program, with_dbt(cp.machine_config, false)};
    const sim::RunResult full = plain.run();

    // Pause mid-run, remap, resume: the remap must drop every block
    // (dbt_stats.flushes) and the resumed run must still be bit-equal
    // to the uninterrupted interpreter run.
    sim::Machine m{cp.program, with_dbt(cp.machine_config, true)};
    const auto paused = m.run_cancellable([] { return true; },
                                          /*stride=*/1000);
    EXPECT_FALSE(paused.has_value());
    EXPECT_TRUE(m.running());
    EXPECT_GT(m.dbt_stats().blocks, 0u);
    EXPECT_EQ(m.dbt_stats().flushes, 0u);

    m.memory().map_region("late", 0x6000'0000, 4096);
    EXPECT_EQ(m.dbt_stats().flushes, 1u);

    const u64 blocks_before_resume = m.dbt_stats().blocks;
    const auto resumed = m.run_cancellable([] { return false; });
    ASSERT_TRUE(resumed.has_value());
    expect_bit_equal(*resumed, full);
    // Resuming had to retranslate the dropped blocks.
    EXPECT_GT(m.dbt_stats().blocks, blocks_before_resume);
}

// ---- chaining --------------------------------------------------------

TEST(SuperblockChaining, HotLoopEdgesChain)
{
    Program p;
    p.label("main");
    p.emit_li(Reg::t0, 0);
    p.emit_li(Reg::t1, 10000);
    p.label("loop");
    p.emit(itype(Opcode::ADDI, Reg::t0, Reg::t0, 1));
    p.emit_branch(Opcode::BLT, Reg::t0, Reg::t1, "loop");
    p.emit(mv(Reg::a0, Reg::t0));
    p.emit_li(Reg::a7, static_cast<i64>(sim::Sys::Exit));
    p.emit(Instruction{Opcode::ECALL});
    p.finalize();

    sim::Machine m{p, with_dbt({}, true)};
    const auto r = m.run();
    EXPECT_EQ(r.exit_code, 10000);
    const auto& st = m.dbt_stats();
    EXPECT_GT(st.blocks, 0u);
    EXPECT_GT(st.block_execs, st.blocks);
    // Every loop iteration after the first transfers through a cached
    // chain edge, not the dispatcher's outer loop.
    EXPECT_GT(st.chained, 9000u);
}

// ---- hook-forced interpreter fallback --------------------------------

TEST(SuperblockFallback, TraceAndProbeHooksFallBackBitIdentical)
{
    const auto& w = hwst::workloads::all_workloads().front();
    const auto cp =
        hwst::compiler::compile(w.build(), hwst::compiler::Scheme::None);

    sim::Machine dbt{cp.program, with_dbt(cp.machine_config, true)};
    const sim::RunResult a = dbt.run();
    EXPECT_EQ(dbt.dbt_stats().fallback_runs, 0u);

    // A trace hook observes every retired instruction; the tier cannot
    // honor that, so the run must take the interpreter and still
    // produce the exact same result.
    sim::Machine traced{cp.program, with_dbt(cp.machine_config, true)};
    u64 traced_instrs = 0;
    traced.set_trace([&](u64, const Instruction&) { ++traced_instrs; });
    const sim::RunResult b = traced.run();
    expect_bit_equal(a, b);
    EXPECT_EQ(traced_instrs, a.instret);
    EXPECT_EQ(traced.dbt_stats().fallback_runs, 1u);
    EXPECT_EQ(traced.dbt_stats().block_execs, 0u);

    // Same for a probe hook, even a transparent one, unless it declares
    // a quiet prefix (set_probe_hook's quiet_before; see fault_test).
    sim::Machine probed{cp.program, with_dbt(cp.machine_config, true)};
    probed.set_probe_hook(
        [](sim::Probe, u64, u64 value) { return value; });
    const sim::RunResult c = probed.run();
    expect_bit_equal(a, c);
    EXPECT_EQ(probed.dbt_stats().fallback_runs, 1u);
}

// ---- cancellation strides --------------------------------------------

TEST(SuperblockCancellation, AnyStrideIsBitIdenticalToRun)
{
    const auto& w = hwst::workloads::all_workloads().front();
    const auto cp =
        hwst::compiler::compile(w.build(), hwst::compiler::Scheme::None);

    sim::Machine plain{cp.program, with_dbt(cp.machine_config, false)};
    const sim::RunResult r = plain.run();

    for (const u64 stride : {u64{1}, u64{3}, u64{37}, u64{4096}}) {
        sim::Machine m{cp.program, with_dbt(cp.machine_config, true)};
        const auto maybe = m.run_cancellable([] { return false; }, stride);
        ASSERT_TRUE(maybe.has_value()) << "stride " << stride;
        expect_bit_equal(*maybe, r);
    }
}

// ---- fuel ------------------------------------------------------------

TEST(SuperblockFuel, FuelTrapBitIdentical)
{
    const auto& w = hwst::workloads::all_workloads().front();
    auto cp =
        hwst::compiler::compile(w.build(), hwst::compiler::Scheme::None);
    // An awkward fuel value lands mid-superblock, forcing the
    // dispatcher onto its per-instruction tail.
    cp.machine_config.fuel = 10'007;

    sim::Machine dbt{cp.program, with_dbt(cp.machine_config, true)};
    const sim::RunResult a = dbt.run();
    sim::Machine interp{cp.program, with_dbt(cp.machine_config, false)};
    const sim::RunResult b = interp.run();

    EXPECT_EQ(a.trap.kind, hwst::hwst::TrapKind::FuelExhausted);
    EXPECT_EQ(a.instret, 10'007u);
    expect_bit_equal(a, b);
}

// ---- mid-stream CSR reads of the batched counters --------------------

TEST(SuperblockCsr, CycleAndInstretReadsSeeBatchedCounters)
{
    Program p;
    p.label("main");
    p.emit_li(Reg::a0, 0);
    p.emit_li(Reg::s6, 0);
    p.emit_li(Reg::s7, 500);
    p.label("loop");
    // Some plain work so the csr reads land mid-block-stream with
    // nontrivial cycle deltas (mul extra, memory, hazards).
    p.emit_li(Reg::s5, static_cast<i64>(p.layout().data_base));
    p.emit(stype(Opcode::SD, Reg::s5, Reg::s6, 0));
    p.emit(itype(Opcode::LD, Reg::t0, Reg::s5, 0));
    p.emit(rtype(Opcode::MUL, Reg::t1, Reg::t0, Reg::s7));
    p.emit(csr_op(Opcode::CSRRS, Reg::t2, Reg::zero, hwst::hwst::kCsrCycle));
    p.emit(csr_op(Opcode::CSRRS, Reg::t3, Reg::zero,
                  hwst::hwst::kCsrInstret));
    p.emit(rtype(Opcode::XOR, Reg::a0, Reg::a0, Reg::t2));
    p.emit(rtype(Opcode::ADD, Reg::a0, Reg::a0, Reg::t3));
    p.emit(rtype(Opcode::ADD, Reg::a0, Reg::a0, Reg::t1));
    p.emit(itype(Opcode::ADDI, Reg::s6, Reg::s6, 1));
    p.emit_branch(Opcode::BLT, Reg::s6, Reg::s7, "loop");
    p.emit_li(Reg::a7, static_cast<i64>(sim::Sys::Exit));
    p.emit(Instruction{Opcode::ECALL});
    p.finalize();

    sim::Machine dbt{p, with_dbt({}, true)};
    const sim::RunResult a = dbt.run();
    sim::Machine interp{p, with_dbt({}, false)};
    const sim::RunResult b = interp.run();

    ASSERT_EQ(a.trap.kind, hwst::hwst::TrapKind::None);
    expect_bit_equal(a, b);
}

} // namespace
