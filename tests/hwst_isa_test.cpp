// Tests of the HWST128 instruction-set extension at the machine level:
// metadata binding, through-memory propagation, checked accesses, the
// temporal check + keybuffer, and in-pipeline SRF propagation rules.
#include <gtest/gtest.h>

#include <functional>

#include "riscv/program.hpp"
#include "sim/machine.hpp"
#include "sim/syscalls.hpp"

namespace {

using namespace hwst::riscv;
namespace hw = hwst::hwst;
namespace sim = hwst::sim;
using hwst::common::i64;
using hwst::common::u64;
using hw::TrapKind;
using sim::Machine;
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

/// Bind a0 -> [base, base+len) spatially and (key, lock) temporally,
/// with base pre-materialised in a0.
void bind_object(Program& p, i64 base, i64 len)
{
    p.emit_li(Reg::a0, base);
    p.emit_li(Reg::t4, base + len);
    p.emit(rtype(Opcode::BNDRS, Reg::a0, Reg::a0, Reg::t4));
    // Temporal: mint a real lock via the runtime.
    p.emit(mv(Reg::s2, Reg::a0)); // ecall clobbers a0
    p.emit_li(Reg::a7, static_cast<i64>(Sys::LockAlloc));
    p.emit(Instruction{Opcode::ECALL}); // a0 = lock, a1 = key
    p.emit(rtype(Opcode::BNDRT, Reg::s2, Reg::a1, Reg::a0));
    p.emit(mv(Reg::s3, Reg::a0)); // keep the lock address in s3
    p.emit(mv(Reg::a0, Reg::s2));
    // SRF[a0] now needs rebinding since mv propagated s2's entry; the
    // propagation rule handles that: a0 inherited s2's metadata.
}

TEST(HwstIsa, CheckedLoadInBoundsPasses)
{
    auto b = build([](Program& p) {
        const i64 base = static_cast<i64>(p.layout().data_base);
        bind_object(p, base, 64);
        p.emit(itype(Opcode::CLD, Reg::a0, Reg::a0, 56)); // last word: ok
    });
    Machine m{b.program};
    const auto r = m.run();
    EXPECT_TRUE(r.ok()) << trap_name(r.trap.kind);
    EXPECT_GT(r.scu_checks, 0u);
}

TEST(HwstIsa, CheckedLoadOutOfBoundsTraps)
{
    auto b = build([](Program& p) {
        const i64 base = static_cast<i64>(p.layout().data_base);
        bind_object(p, base, 64);
        p.emit(itype(Opcode::CLD, Reg::a0, Reg::a0, 64)); // one past end
    });
    Machine m{b.program};
    const auto r = m.run();
    EXPECT_EQ(r.trap.kind, TrapKind::SpatialViolation);
    EXPECT_EQ(r.trap.addr, b.program.layout().data_base + 64);
    // CSR cause recorded as well (paper Fig. 3 trap plumbing).
    EXPECT_EQ(m.csrs().read(hw::kCsrViolation).value_or(0),
              static_cast<u64>(TrapKind::SpatialViolation));
}

TEST(HwstIsa, CheckedLoadStraddlingTheBoundTrapsOnBothTiers)
{
    // The SCU checks the whole access, not its first byte: a 4-byte load
    // at +62 of a 64-byte object starts in bounds and ends out of them.
    auto b = build([](Program& p) {
        const i64 base = static_cast<i64>(p.layout().data_base);
        bind_object(p, base, 64);
        p.emit(itype(Opcode::CLW, Reg::t1, Reg::a0, 62));
    });
    for (const sim::ExecTier tier :
         {sim::ExecTier::Interp, sim::ExecTier::Dbt}) {
        sim::MachineConfig cfg;
        cfg.tier = tier;
        Machine m{b.program, cfg};
        const auto r = m.run();
        EXPECT_EQ(r.trap.kind, TrapKind::SpatialViolation)
            << sim::tier_name(tier);
        EXPECT_EQ(r.trap.addr, b.program.layout().data_base + 62)
            << sim::tier_name(tier);
    }
}

TEST(HwstIsa, CheckedStoreUnderflowTraps)
{
    auto b = build([](Program& p) {
        const i64 base = static_cast<i64>(p.layout().data_base + 64);
        bind_object(p, base, 64);
        p.emit(stype(Opcode::CSD, Reg::a0, Reg::t4, -8)); // below base
    });
    Machine m{b.program};
    EXPECT_EQ(m.run().trap.kind, TrapKind::SpatialViolation);
}

TEST(HwstIsa, UncheckedLoadIgnoresMetadata)
{
    auto b = build([](Program& p) {
        const i64 base = static_cast<i64>(p.layout().data_base);
        bind_object(p, base, 64);
        p.emit(itype(Opcode::LD, Reg::a0, Reg::a0, 64)); // plain ld: no check
    });
    Machine m{b.program};
    EXPECT_TRUE(m.run().ok());
}

TEST(HwstIsa, MetadatalessPointerIsUnchecked)
{
    // SoftBound convention: no metadata -> checks pass (coverage loss,
    // not false positives).
    auto b = build([](Program& p) {
        p.emit_li(Reg::t0, static_cast<i64>(p.layout().data_base));
        p.emit(itype(Opcode::CLD, Reg::a0, Reg::t0, 0));
    });
    Machine m{b.program};
    EXPECT_TRUE(m.run().ok());
}

TEST(HwstIsa, TchkPassesForLiveKey)
{
    auto b = build([](Program& p) {
        const i64 base = static_cast<i64>(p.layout().data_base);
        bind_object(p, base, 64);
        p.emit(rtype(Opcode::TCHK, Reg::zero, Reg::a0, Reg::zero));
        p.emit(rtype(Opcode::TCHK, Reg::zero, Reg::a0, Reg::zero));
        p.emit_li(Reg::a0, 0);
    });
    Machine m{b.program};
    const auto r = m.run();
    EXPECT_TRUE(r.ok());
    EXPECT_EQ(r.tcu_checks, 2u);
    // Second tchk hits the keybuffer.
    EXPECT_EQ(r.keybuffer.hits, 1u);
    EXPECT_EQ(r.keybuffer.lookups, 2u);
}

TEST(HwstIsa, TchkTrapsAfterKeyErased)
{
    auto b = build([](Program& p) {
        const i64 base = static_cast<i64>(p.layout().data_base);
        bind_object(p, base, 64);
        // Erase the key (what the free wrapper does), then tchk.
        p.emit(stype(Opcode::SD, Reg::s3, Reg::zero, 0));
        p.emit(rtype(Opcode::TCHK, Reg::zero, Reg::a0, Reg::zero));
    });
    Machine m{b.program};
    EXPECT_EQ(m.run().trap.kind, TrapKind::TemporalViolation);
}

TEST(HwstIsa, KeybufferSnoopsLockStores)
{
    // A stale keybuffer entry must not mask a freed key: the store of 0
    // into the lock region flushes the buffer (paper §3.5).
    auto b = build([](Program& p) {
        const i64 base = static_cast<i64>(p.layout().data_base);
        bind_object(p, base, 64);
        p.emit(rtype(Opcode::TCHK, Reg::zero, Reg::a0, Reg::zero)); // fill
        p.emit(stype(Opcode::SD, Reg::s3, Reg::zero, 0)); // erase key
        p.emit(rtype(Opcode::TCHK, Reg::zero, Reg::a0, Reg::zero));
    });
    Machine m{b.program};
    EXPECT_EQ(m.run().trap.kind, TrapKind::TemporalViolation);
}

/// Free a lock, let the allocator recycle the same lock_location for a
/// new object, and check the stale pointer with it: the snoop flush on
/// the freeing zero-store must have evicted the old lock->key entry, so
/// the fresh pointer's tchk passes (and re-fills with the new key) while
/// the stale pointer's tchk traps. A stale keybuffer entry surviving the
/// free would fail this both ways: spurious trap on the fresh pointer,
/// or — worse — a masked use-after-free on the stale one.
Built build_recycled_lock_uaf()
{
    return build([](Program& p) {
        const i64 base = static_cast<i64>(p.layout().data_base);
        bind_object(p, base, 64);
        p.emit(rtype(Opcode::TCHK, Reg::zero, Reg::a0, Reg::zero)); // fill
        p.emit(mv(Reg::s6, Reg::a0)); // keep the soon-stale pointer
        // Free: erase the key (snooped by the keybuffer), release lock.
        p.emit(stype(Opcode::SD, Reg::s3, Reg::zero, 0));
        p.emit(mv(Reg::a0, Reg::s3));
        p.emit_li(Reg::a7, static_cast<i64>(Sys::LockFree));
        p.emit(Instruction{Opcode::ECALL});
        // Reallocate: the allocator recycles the freed lock_location.
        p.emit_li(Reg::a7, static_cast<i64>(Sys::LockAlloc));
        p.emit(Instruction{Opcode::ECALL}); // a0 = same lock, a1 = new key
        p.emit_li(Reg::t0, base + 128);
        p.emit_li(Reg::t5, base + 192);
        p.emit(rtype(Opcode::BNDRS, Reg::t0, Reg::t0, Reg::t5));
        p.emit(rtype(Opcode::BNDRT, Reg::t0, Reg::a1, Reg::a0));
        p.emit(rtype(Opcode::TCHK, Reg::zero, Reg::t0, Reg::zero)); // fresh
        p.emit(rtype(Opcode::TCHK, Reg::zero, Reg::s6, Reg::zero)); // stale
    });
}

TEST(HwstIsa, RecycledLockStaleTchkTrapsFreshTchkPasses)
{
    auto b = build_recycled_lock_uaf();
    Machine m{b.program};
    const auto r = m.run();
    EXPECT_EQ(r.trap.kind, TrapKind::TemporalViolation);
    // All three tchks executed: fill, fresh (passed), stale (trapped).
    EXPECT_EQ(r.tcu_checks, 3u);
}

TEST(HwstIsa, RecycledLockStaleTchkTrapsWithoutKeybuffer)
{
    auto b = build_recycled_lock_uaf();
    sim::MachineConfig cfg;
    cfg.keybuffer_enabled = false; // WDL-style: key loaded every check
    Machine m{b.program, cfg};
    const auto r = m.run();
    EXPECT_EQ(r.trap.kind, TrapKind::TemporalViolation);
    EXPECT_EQ(r.tcu_checks, 3u);
    EXPECT_EQ(r.keybuffer.lookups, 0u);
}

TEST(HwstIsa, KbflushClearsBuffer)
{
    auto b = build([](Program& p) {
        const i64 base = static_cast<i64>(p.layout().data_base);
        bind_object(p, base, 64);
        p.emit(rtype(Opcode::TCHK, Reg::zero, Reg::a0, Reg::zero));
        p.emit(rtype(Opcode::KBFLUSH, Reg::zero, Reg::zero, Reg::zero));
        p.emit(rtype(Opcode::TCHK, Reg::zero, Reg::a0, Reg::zero));
        p.emit_li(Reg::a0, 0);
    });
    Machine m{b.program};
    const auto r = m.run();
    EXPECT_TRUE(r.ok());
    EXPECT_EQ(r.keybuffer.hits, 0u); // both lookups missed
    EXPECT_EQ(r.keybuffer.flushes, 1u);
}

TEST(HwstIsa, ThroughMemoryPropagationRoundTrip)
{
    // sbdl/sbdu to the shadow of a container, then lbdls/lbdus back
    // into another SRF entry; the checked access through the restored
    // pointer still traps out of bounds.
    auto b = build([](Program& p) {
        const i64 base = static_cast<i64>(p.layout().data_base);
        const i64 container = base + 512;
        bind_object(p, base, 64);
        p.emit_li(Reg::t0, container);
        p.emit(stype(Opcode::SD, Reg::t0, Reg::a0, 0)); // store the pointer
        p.emit(stype(Opcode::SBDL, Reg::t0, Reg::a0, 0));
        p.emit(stype(Opcode::SBDU, Reg::t0, Reg::a0, 0));
        // Reload into a different register.
        p.emit(itype(Opcode::LD, Reg::s4, Reg::t0, 0));
        p.emit(itype(Opcode::LBDLS, Reg::s4, Reg::t0, 0));
        p.emit(itype(Opcode::LBDUS, Reg::s4, Reg::t0, 0));
        p.emit(itype(Opcode::CLD, Reg::a0, Reg::s4, 72)); // out of bounds
    });
    Machine m{b.program};
    EXPECT_EQ(m.run().trap.kind, TrapKind::SpatialViolation);
}

TEST(HwstIsa, FieldLoadsDecompress)
{
    // lbas/lbnd/lkey/lloc recover the uncompressed fields from shadow
    // memory (wrapper-code path, Fig. 1-d7).
    auto b = build([](Program& p) {
        const i64 base = static_cast<i64>(p.layout().data_base);
        const i64 container = base + 512;
        bind_object(p, base, 64);
        p.emit_li(Reg::t0, container);
        p.emit(stype(Opcode::SBDL, Reg::t0, Reg::a0, 0));
        p.emit(stype(Opcode::SBDU, Reg::t0, Reg::a0, 0));
        p.emit(rtype(Opcode::LBAS, Reg::t1, Reg::t0, Reg::zero));
        p.emit(rtype(Opcode::LBND, Reg::t2, Reg::t0, Reg::zero));
        p.emit(rtype(Opcode::LLOC, Reg::t3, Reg::t0, Reg::zero));
        // a0 = (bound - base) + (lock == s3 ? 0 : 1000)
        p.emit(rtype(Opcode::SUB, Reg::a0, Reg::t2, Reg::t1));
        p.emit(rtype(Opcode::XOR, Reg::t3, Reg::t3, Reg::s3));
        p.emit(rtype(Opcode::ADD, Reg::a0, Reg::a0, Reg::t3));
    });
    Machine m{b.program};
    const auto r = m.run();
    EXPECT_TRUE(r.ok());
    EXPECT_EQ(r.exit_code, 64); // exact bound (aligned), matching lock
}

TEST(HwstIsa, SrfPropagatesThroughMovesAndPointerArith)
{
    auto b = build([](Program& p) {
        const i64 base = static_cast<i64>(p.layout().data_base);
        bind_object(p, base, 64);
        p.emit(mv(Reg::t0, Reg::a0));                          // mv
        p.emit(itype(Opcode::ADDI, Reg::t0, Reg::t0, 16));     // ptr + 16
        p.emit_li(Reg::t1, 8);
        p.emit(rtype(Opcode::ADD, Reg::t0, Reg::t0, Reg::t1)); // ptr + idx
        p.emit(itype(Opcode::CLD, Reg::a0, Reg::t0, 48));      // 72: OOB
    });
    Machine m{b.program};
    EXPECT_EQ(m.run().trap.kind, TrapKind::SpatialViolation);
}

TEST(HwstIsa, SrfClearedByNonPointerOps)
{
    auto b = build([](Program& p) {
        const i64 base = static_cast<i64>(p.layout().data_base);
        bind_object(p, base, 64);
        // xor destroys provenance -> SRF cleared -> OOB access passes
        p.emit(rtype(Opcode::XOR, Reg::a0, Reg::a0, Reg::zero));
        p.emit(itype(Opcode::CLD, Reg::a0, Reg::a0, 128));
        p.emit_li(Reg::a0, 0);
    });
    Machine m{b.program};
    EXPECT_TRUE(m.run().ok());
}

TEST(HwstIsa, SrfclrDropsMetadata)
{
    auto b = build([](Program& p) {
        const i64 base = static_cast<i64>(p.layout().data_base);
        bind_object(p, base, 64);
        p.emit(rtype(Opcode::SRFCLR, Reg::a0, Reg::zero, Reg::zero));
        p.emit(itype(Opcode::CLD, Reg::a0, Reg::a0, 128)); // unchecked now
        p.emit_li(Reg::a0, 0);
    });
    Machine m{b.program};
    EXPECT_TRUE(m.run().ok());
}

TEST(HwstIsa, SrfmvCopiesBetweenRegisters)
{
    auto b = build([](Program& p) {
        const i64 base = static_cast<i64>(p.layout().data_base);
        bind_object(p, base, 64);
        p.emit_li(Reg::s5, static_cast<i64>(p.layout().data_base));
        p.emit(rtype(Opcode::SRFMV, Reg::s5, Reg::a0, Reg::zero));
        p.emit(itype(Opcode::CLD, Reg::a0, Reg::s5, 64)); // OOB via copy
    });
    Machine m{b.program};
    EXPECT_EQ(m.run().trap.kind, TrapKind::SpatialViolation);
}

TEST(HwstIsa, StatusCsrDisablesChecks)
{
    auto b = build([](Program& p) {
        const i64 base = static_cast<i64>(p.layout().data_base);
        bind_object(p, base, 64);
        p.emit(csri_op(Opcode::CSRRWI, Reg::zero, 0, hw::kCsrStatus));
        p.emit(itype(Opcode::CLD, Reg::a0, Reg::a0, 128)); // disabled
        p.emit(rtype(Opcode::TCHK, Reg::zero, Reg::a0, Reg::zero));
        p.emit_li(Reg::a0, 0);
    });
    Machine m{b.program};
    EXPECT_TRUE(m.run().ok());
}

TEST(HwstIsa, CompressionSlackAdmitsSubGranuleOverflow)
{
    // The mechanism behind the paper's CWE122 gap: a 60-byte object's
    // bound is rounded up to 64, so a +3 overflow passes the SCU.
    auto b = build([](Program& p) {
        const i64 base = static_cast<i64>(p.layout().data_base);
        bind_object(p, base, 60);
        p.emit(itype(Opcode::CLB, Reg::t1, Reg::a0, 62));  // slack: passes
        p.emit(itype(Opcode::CLB, Reg::t1, Reg::a0, 64));  // granule: traps
    });
    Machine m{b.program};
    EXPECT_EQ(m.run().trap.kind, TrapKind::SpatialViolation);
    EXPECT_EQ(m.csrs().read(hw::kCsrVaddr).value_or(0),
              b.program.layout().data_base + 64);
}

} // namespace
