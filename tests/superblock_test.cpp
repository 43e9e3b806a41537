// Execution tiers (src/sim/dispatch.cpp): the superblock dispatcher is
// a pure host-side accelerator, so every test here is a differential
// one — the same program runs under the interpreter and the dispatcher
// (MachineConfig::tier) and the full RunResult must be bit-identical:
// instret, cycles, traps, output, InstrMix and every cache/unit
// counter. Fuzzed programs cover ALU/memory/branch/loop shapes and the
// HWST metadata ISA (checked accesses, shadow moves, tchk with the
// keybuffer on and off, csr writes, traps planted mid-block); since both
// tiers run one definition of each op (src/sim/ops.hpp), the fuzzed runs
// are also pinned to golden digests. The workload tests cover compiled
// schemes and ecalls; dedicated tests pin down tier resolution, block
// invalidation and arena overflow, chaining (jalr inline-cache evictions
// included), hook-forced fallback, cancellation strides, fuel traps and
// mid-stream CSR reads of the batched counters.
#include <gtest/gtest.h>

#include <array>
#include <cstdlib>
#include <initializer_list>
#include <iterator>
#include <map>
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
        Opcode::SRAIW, Opcode::LUI,   Opcode::AUIPC,
    };
    return ops;
}

// Work registers only. s5/s6/s7 are reserved for the generators (memory
// base, loop induction, loop limit), tp for the value accumulator
// (kAcc), and s0, s1, s8-s11, gp, a6 and a7 for the HWST one (pointers,
// spill-slot base, temporaries).
const Reg kWorkRegs[] = {Reg::t0, Reg::t1, Reg::t2, Reg::t3, Reg::t4,
                         Reg::t5, Reg::t6, Reg::s2, Reg::s3, Reg::s4,
                         Reg::a2, Reg::a3, Reg::a4, Reg::a5};

Reg work_reg(Xoshiro256& rng)
{
    const u64 i = rng.below(std::size(kWorkRegs) + 1);
    return i < std::size(kWorkRegs) ? kWorkRegs[i] : Reg::zero;
}

/// Sums every loaded or computed value, so that one wrong result shows
/// in the exit checksum even when its register is overwritten later.
constexpr Reg kAcc = Reg::tp;

void emit_fold(Program& p, Reg r)
{
    p.emit(rtype(Opcode::ADD, kAcc, kAcc, r));
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
        const Reg rd = work_reg(rng);
        p.emit(itype(op, rd, Reg::s5, off));
        emit_fold(p, rd);
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
    emit_fold(p, in.rd);
}

/// Fold every work register (and `extra`) into a0 and exit with the
/// checksum.
void emit_checksum_exit(Program& p, std::initializer_list<Reg> extra = {})
{
    p.emit_li(Reg::a0, 0);
    std::vector<Reg> regs(std::begin(kWorkRegs), std::end(kWorkRegs));
    regs.push_back(kAcc);
    regs.insert(regs.end(), extra.begin(), extra.end());
    for (const Reg r : regs) {
        p.emit(rtype(Opcode::XOR, Reg::a0, Reg::a0, r));
        p.emit(itype(Opcode::SLLI, Reg::a1, Reg::a0, 1));
        p.emit(rtype(Opcode::XOR, Reg::a0, Reg::a0, Reg::a1));
    }
    p.emit_li(Reg::a7, static_cast<i64>(sim::Sys::Exit));
    p.emit(Instruction{Opcode::ECALL});
}

/// `n` random bytes at the start of the data region, so that loads see
/// every bit pattern.
void add_random_data(Program& p, Xoshiro256& rng, std::size_t n)
{
    std::vector<hwst::common::u8> bytes(n);
    for (auto& b : bytes) b = static_cast<hwst::common::u8>(rng.next());
    p.add_data(bytes);
}

/// Seed the first eight work registers with edge-case values.
void emit_seed_regs(Program& p, Xoshiro256& rng)
{
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
}

const Opcode kBranches[] = {Opcode::BEQ, Opcode::BNE,  Opcode::BLT,
                            Opcode::BGE, Opcode::BLTU, Opcode::BGEU};

/// Random program with straight-line stretches, forward branches and
/// jumps (both edges reachable), a counted loop (hot block chaining)
/// and memory traffic into the data region. Terminates by construction:
/// branches only go forward, the loop trips a fixed induction count.
Program fuzz_program(Xoshiro256& rng)
{
    Program p;
    p.label("main");
    add_random_data(p, rng, 2048);
    emit_seed_regs(p, rng);
    p.emit_li(Reg::s5, static_cast<i64>(p.layout().data_base));

    for (int seg = 0; seg < 10; ++seg) {
        const std::string next = "seg" + std::to_string(seg);
        const u64 kind = rng.below(3);
        if (kind == 0) {
            p.emit_branch(kBranches[rng.below(std::size(kBranches))],
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

    emit_checksum_exit(p);
    p.finalize();
    return p;
}

// ---- HWST metadata program generator ---------------------------------

/// The violation fuzz_hwst_program plants mid-block (None: the program
/// exits cleanly).
enum class Plant { None, OutOfBounds, ErasedKey, SaturatedBounds, SaturatedLock };

/// A generated HWST program and the trap its plant must raise.
struct HwstCase {
    Program program;
    hwst::hwst::TrapKind kind = hwst::hwst::TrapKind::None;
    u64 tval = 0;
    u64 pc = 0;
};

/// Emits programs over the HWST metadata ISA: bndrs/bndrt, sbdl/sbdu,
/// lbdls/lbdus, lbas/lbnd/lkey/lloc, srfmv/srfclr, tchk, kbflush,
/// checked loads/stores, csr.bitw/lock.base/status writes, key erasure
/// and ADD/SUB (rd = x0 included) over pointer operands. A model of what
/// each pointer register points into, which lock its key lives at and
/// what each spill slot holds keeps every check passing, so the only
/// trap is the planted one.
class HwstGen {
public:
    HwstGen(Xoshiro256& rng, Plant plant) : rng_{rng}, plant_{plant} {}

    HwstCase generate()
    {
        const auto& lay = p_.layout();
        p_.label("main");
        add_random_data(p_, rng_, 3072); // up to the spill slots
        emit_seed_regs(p_, rng_);
        p_.emit_li(Reg::s5, static_cast<i64>(lay.data_base));
        p_.emit_li(kSlotBase, static_cast<i64>(slot_base()));

        // csr.bitw from widths every object and lock fits, csr.lock.base
        // at or below the lock region.
        static const hwst::metadata::CompressionConfig kWidths[] = {
            {35, 29, 20, 0}, {30, 12, 16, 0}, {28, 20, 24, 0}, {40, 24, 12, 0}};
        widths_ = kWidths[rng_.below(std::size(kWidths))];
        bitw_ = static_cast<i64>(widths_.to_csr());
        p_.emit_li(Reg::a6, bitw_);
        p_.emit(csr_op(Opcode::CSRRW, Reg::zero, Reg::a6,
                       hwst::hwst::kCsrBitw));
        p_.emit_li(Reg::a6, static_cast<i64>(lay.lock_base - 8 * rng_.below(16)));
        p_.emit(csr_op(Opcode::CSRRW, Reg::zero, Reg::a6,
                       hwst::hwst::kCsrLockBase));

        for (u64 j = 0; j < kLocks; ++j) {
            p_.emit_li(Reg::a6, static_cast<i64>(lock_addr(j)));
            p_.emit_li(Reg::a7, static_cast<i64>(key(j)));
            p_.emit(stype(Opcode::SD, Reg::a6, Reg::a7, 0));
        }
        // Five objects in the data region, one in the lock region (its
        // checked stores of zero erase keys).
        for (u64 k = 0; k < kPtrs.size(); ++k) {
            const bool in_locks = k + 1 == kPtrs.size();
            objs_.push_back({in_locks ? lay.lock_base + 8 * 64
                                      : lay.data_base + 2048 + 192 * k,
                             in_locks ? 64 : 8 * (1 + rng_.below(24))});
            ptrs_.push_back({static_cast<int>(k), 0, -1});
            p_.emit_li(kPtrs[k], static_cast<i64>(objs_[k].base));
            p_.emit_li(Reg::a6, static_cast<i64>(objs_[k].base + objs_[k].len));
            p_.emit(rtype(Opcode::BNDRS, kPtrs[k], kPtrs[k], Reg::a6));
            bind_lock(k, rng_.below(kLocks));
        }

        // A segment that a forward branch or jump may skip emits only
        // ops that leave the model as it is; the plant's always runs.
        const int plant_seg = static_cast<int>(rng_.below(8));
        for (int seg = 0; seg < 8; ++seg) {
            const std::string next = "hseg" + std::to_string(seg);
            const u64 kind = seg == plant_seg ? 2 : rng_.below(3);
            if (kind == 0) {
                p_.emit_branch(kBranches[rng_.below(std::size(kBranches))],
                               work_reg(rng_), work_reg(rng_), next);
            } else if (kind == 1) {
                p_.emit_jal(Reg::zero, next);
            }
            const int n = 4 + static_cast<int>(rng_.below(40));
            for (int k = 0; k < n; ++k) emit_op(kind != 2);
            if (plant_ != Plant::None && seg == plant_seg) emit_plant();
            p_.label(next);
        }

        // Counted loop (keybuffer hits, chained blocks): its body leaves
        // the model as it is, so every iteration stays legal.
        p_.emit_li(Reg::s6, 0);
        p_.emit_li(Reg::s7, 20 + static_cast<i64>(rng_.below(30)));
        p_.label("hloop");
        const int body = 3 + static_cast<int>(rng_.below(12));
        for (int k = 0; k < body; ++k) emit_op(true);
        p_.emit(itype(Opcode::ADDI, Reg::s6, Reg::s6, 1));
        p_.emit_branch(Opcode::BLT, Reg::s6, Reg::s7, "hloop");

        // At least one check of each kind, whatever csr.status was left.
        p_.emit(csri_op(Opcode::CSRRWI, Reg::zero, 3, hwst::hwst::kCsrStatus));
        emit_checked(0, false);
        p_.emit(rtype(Opcode::TCHK, Reg::zero, kPtrs[0], Reg::zero));

        // Fold into a5 the shadow words of every spill slot and every
        // register's shadow register: its raw halves, and whether it has
        // any valid half (ADD s0 with it propagates s0's metadata only if
        // it has none).
        std::vector<Reg> dumped = {Reg::zero};
        dumped.insert(dumped.end(), kPtrs.begin(), kPtrs.end());
        dumped.insert(dumped.end(), std::begin(kWorkRegs), std::end(kWorkRegs));
        std::vector<u64> words;
        const auto container = [&](u64 slot) {
            return static_cast<i64>(8 * slot);
        };
        const auto shadow = [&](u64 slot) {
            return ((slot_base() + 8 * slot) << 2) + lay.shadow_offset;
        };
        for (u64 slot = 0; slot < kSlots; ++slot) {
            words.push_back(shadow(slot));
            words.push_back(shadow(slot) + 8);
        }
        for (u64 i = 0; i < dumped.size(); ++i) {
            p_.emit(stype(Opcode::SBDL, kSlotBase, dumped[i],
                          container(kSlots + i)));
            p_.emit(stype(Opcode::SBDU, kSlotBase, dumped[i],
                          container(kSlots + i)));
            words.push_back(shadow(kSlots + i));
            words.push_back(shadow(kSlots + i) + 8);
        }
        for (u64 i = 0; i < dumped.size(); ++i) {
            const u64 slot = kSlots + dumped.size() + i;
            p_.emit(rtype(Opcode::ADD, Reg::t1, Reg::s0, dumped[i]));
            p_.emit(stype(Opcode::SBDL, kSlotBase, Reg::t1, container(slot)));
            words.push_back(shadow(slot));
        }
        for (const u64 word : words) {
            p_.emit_li(Reg::t1, static_cast<i64>(word));
            p_.emit(itype(Opcode::LD, Reg::t1, Reg::t1, 0));
            p_.emit(rtype(Opcode::XOR, Reg::a5, Reg::a5, Reg::t1));
            p_.emit(itype(Opcode::SLLI, Reg::t1, Reg::a5, 1));
            p_.emit(rtype(Opcode::XOR, Reg::a5, Reg::a5, Reg::t1));
        }
        emit_checksum_exit(p_, {Reg::s0, Reg::s1, Reg::s8, Reg::s9,
                                Reg::s10, Reg::s11});
        p_.finalize();
        out_.program = std::move(p_);
        return std::move(out_);
    }

private:
    struct Obj {
        u64 base;
        u64 len;
    };
    /// What a pointer register (or a spill slot) holds: object, offset
    /// into it, and the lock its temporal half names (-1: none).
    struct Ptr {
        int obj;
        u64 cur;
        int lock;
    };

    static constexpr std::array<Reg, 6> kPtrs = {Reg::s0, Reg::s1, Reg::s8,
                                                 Reg::s9, Reg::s10, Reg::s11};
    static constexpr Reg kSlotBase = Reg::gp;
    static constexpr u64 kSlots = 80; ///< the exit dump uses the 48 above
    static constexpr u64 kLocks = 12;  ///< more than the keybuffer holds

    u64 slot_base() const { return p_.layout().data_base + 3072; }
    u64 lock_addr(u64 j) const { return p_.layout().lock_base + 8 * (32 + j); }
    static u64 key(u64 j) { return 0x5000 + 17 * j; }
    u64 addr(const Ptr& ptr) const { return objs_[ptr.obj].base + ptr.cur; }
    /// The next emitted instruction must raise `kind` with `tval`.
    void expect(hwst::hwst::TrapKind kind, u64 tval)
    {
        out_.kind = kind;
        out_.tval = tval;
        out_.pc = p_.text_addr(p_.code().size());
    }
    std::size_t pick_ptr() { return rng_.below(kPtrs.size()); }

    void bind_lock(std::size_t k, u64 j)
    {
        p_.emit_li(Reg::a6, static_cast<i64>(lock_addr(j)));
        p_.emit_li(Reg::a7, static_cast<i64>(key(j)));
        p_.emit(rtype(Opcode::BNDRT, kPtrs[k], Reg::a7, Reg::a6));
        ptrs_[k].lock = static_cast<int>(j);
    }

    /// A checked access through pointer k, `target` bytes from its
    /// object's base (default: a random aligned in-bounds offset).
    void emit_checked(std::size_t k, bool store,
                      std::optional<i64> target = {})
    {
        static const Opcode kLoads[] = {Opcode::CLB, Opcode::CLH, Opcode::CLW,
                                        Opcode::CLD, Opcode::CLBU,
                                        Opcode::CLHU, Opcode::CLWU};
        static const Opcode kStores[] = {Opcode::CSB, Opcode::CSH,
                                         Opcode::CSW, Opcode::CSD};
        const Opcode op = store ? kStores[rng_.below(std::size(kStores))]
                                : kLoads[rng_.below(std::size(kLoads))];
        const u64 w = mem_width(op);
        const i64 t = target ? *target
                             : static_cast<i64>(w * rng_.below(
                                                        objs_[ptrs_[k].obj].len / w));
        const i64 imm = t - static_cast<i64>(ptrs_[k].cur);
        if (store) {
            p_.emit(stype(op, kPtrs[k], work_reg(rng_), imm));
        } else {
            const Reg rd = work_reg(rng_);
            p_.emit(itype(op, rd, kPtrs[k], imm));
            emit_fold(p_, rd);
        }
    }

    /// One op; `neutral` ops leave the pointer registers as they are
    /// and only ever forget spill slots.
    void emit_op(bool neutral)
    {
        if (rng_.chance(2, 5)) {
            emit_random_op(p_, rng_);
            return;
        }
        const u64 pick = rng_.below(100);
        const std::size_t k = pick_ptr();
        Ptr& ptr = ptrs_[k];
        const Reg w = work_reg(rng_);
        const u64 slot = rng_.below(kSlots);
        const i64 slot_off = static_cast<i64>(8 * slot);
        if (pick < 20) {
            emit_checked(k, false);
        } else if (pick < 35) {
            emit_checked(k, true);
        } else if (pick < 47) { // tchk: pointer, work register or x0
            const u64 r = rng_.below(10);
            p_.emit(rtype(Opcode::TCHK, Reg::zero,
                          r < 7 ? kPtrs[k] : r < 9 ? w : Reg::zero,
                          Reg::zero));
        } else if (pick < 57) { // ADD/SUB over pointer operands
            const Reg other = rng_.chance(1, 2) ? kPtrs[pick_ptr()] : w;
            const Reg rd = rng_.chance(1, 2) ? Reg::zero : work_reg(rng_);
            if (rd == Reg::zero && !slots_.empty() && rng_.chance(1, 2)) {
                // Metadata in SRF entry 0 for the rule to clear.
                p_.emit(itype(Opcode::LBDLS, Reg::zero, kSlotBase,
                              static_cast<i64>(8 * slots_.begin()->first)));
            }
            const bool sub = rng_.chance(1, 2);
            const bool swap = !sub && rng_.chance(1, 2);
            p_.emit(rtype(sub ? Opcode::SUB : Opcode::ADD, rd,
                          swap ? other : kPtrs[k], swap ? kPtrs[k] : other));
            if (rd != Reg::zero) { // what the rule left, for the exit dump
                p_.emit(stype(Opcode::SBDL, kSlotBase, rd, slot_off));
                p_.emit(stype(Opcode::SBDU, kSlotBase, rd, slot_off));
                slots_.erase(slot);
            }
        } else if (pick < 65) { // spill: value + both SRF halves
            p_.emit(stype(Opcode::SD, kSlotBase, kPtrs[k], slot_off));
            p_.emit(stype(Opcode::SBDL, kSlotBase, kPtrs[k], slot_off));
            p_.emit(stype(Opcode::SBDU, kSlotBase, kPtrs[k], slot_off));
            if (neutral) slots_.erase(slot);
            else slots_[slot] = ptr;
        } else if (pick < 70) { // shadow moves of x0 or a work register
            // Loading into x0 gives SRF entry 0 metadata for ADD/SUB with
            // rd = x0 to clear.
            const Reg r = rng_.chance(1, 2) ? Reg::zero : w;
            if (rng_.chance(1, 2)) {
                p_.emit(stype(rng_.chance(1, 2) ? Opcode::SBDL : Opcode::SBDU,
                              kSlotBase, r, slot_off));
                slots_.erase(slot);
            } else {
                p_.emit(itype(rng_.chance(1, 2) ? Opcode::LBDLS
                                                : Opcode::LBDUS,
                              r, kSlotBase, slot_off));
            }
        } else if (pick < 76) { // decode a slot into a work register
            static const Opcode kQueries[] = {Opcode::LBAS, Opcode::LBND,
                                              Opcode::LKEY, Opcode::LLOC};
            p_.emit(itype(Opcode::ADDI, Reg::t6, kSlotBase, slot_off));
            p_.emit(rtype(kQueries[rng_.below(4)], w, Reg::t6, Reg::zero));
            emit_fold(p_, w);
        } else if (pick < 81) { // srfmv/srfclr, never into a pointer
            const Reg rd = rng_.chance(1, 3) ? Reg::zero : w;
            if (rng_.chance(1, 4)) {
                p_.emit(rtype(Opcode::SRFCLR, rd, Reg::zero, Reg::zero));
            } else {
                p_.emit(rtype(Opcode::SRFMV, rd,
                              rng_.chance(2, 3) ? kPtrs[k] : work_reg(rng_),
                              Reg::zero));
            }
        } else if (pick < 85) { // key erasure, then the key minted again
            const u64 j = rng_.below(kLocks);
            p_.emit_li(Reg::a6, static_cast<i64>(lock_addr(j)));
            p_.emit(stype(Opcode::SD, Reg::a6, Reg::zero, 0));
            p_.emit_li(Reg::a7, static_cast<i64>(key(j)));
            p_.emit(stype(Opcode::SD, Reg::a6, Reg::a7, 0));
        } else if (pick < 87) {
            p_.emit(rtype(Opcode::KBFLUSH, Reg::zero, Reg::zero, Reg::zero));
        } else if (pick < 91) { // csr.status, csr.bitw rewrite, csr read
            const u64 r = rng_.below(3);
            if (r == 0) {
                const u64 status = rng_.chance(1, 2) ? 3 : rng_.below(3);
                p_.emit(csri_op(Opcode::CSRRWI, Reg::zero,
                                static_cast<unsigned>(status),
                                hwst::hwst::kCsrStatus));
            } else if (r == 1) {
                p_.emit_li(Reg::a6, bitw_);
                p_.emit(csr_op(Opcode::CSRRW, Reg::zero, Reg::a6,
                               hwst::hwst::kCsrBitw));
            } else {
                p_.emit(csr_op(Opcode::CSRRS, w, Reg::zero,
                               hwst::hwst::kCsrBitw));
            }
        } else if (neutral) { // the rest would change the model
            emit_checked(k, false);
        } else if (pick < 95) { // pointer arithmetic within the object
            const u64 cur = rng_.below(objs_[ptr.obj].len + 1);
            p_.emit(itype(Opcode::ADDI, kPtrs[k], kPtrs[k],
                          static_cast<i64>(cur) - static_cast<i64>(ptr.cur)));
            ptr.cur = cur;
        } else if (pick < 98 && !slots_.empty()) { // reload a spilled pointer
            auto it = slots_.begin();
            std::advance(it, static_cast<long>(rng_.below(slots_.size())));
            const i64 off = static_cast<i64>(8 * it->first);
            p_.emit(itype(Opcode::LD, kPtrs[k], kSlotBase, off));
            p_.emit(itype(Opcode::LBDLS, kPtrs[k], kSlotBase, off));
            ptr = it->second;
            if (rng_.chance(4, 5))
                p_.emit(itype(Opcode::LBDUS, kPtrs[k], kSlotBase, off));
            else
                ptr.lock = -1;
        } else {
            bind_lock(k, rng_.below(kLocks));
        }
    }

    /// Re-enable both checks, then (after filler, so the violation sits
    /// mid-block) the planted violation.
    void emit_plant()
    {
        using hwst::hwst::TrapKind;
        p_.emit(csri_op(Opcode::CSRRWI, Reg::zero, 3, hwst::hwst::kCsrStatus));
        const int filler = 2 + static_cast<int>(rng_.below(3));
        for (int i = 0; i < filler; ++i) emit_random_op(p_, rng_);
        std::size_t k = pick_ptr();
        Plant plant = plant_;
        if (plant == Plant::ErasedKey) {
            // Needs a pointer with a temporal half.
            for (std::size_t i = 0; i < kPtrs.size() && ptrs_[k].lock < 0; ++i)
                k = (k + 1) % kPtrs.size();
            if (ptrs_[k].lock < 0) plant = Plant::OutOfBounds;
        }
        const Ptr& ptr = ptrs_[k];
        const Obj& obj = objs_[ptr.obj];
        switch (plant) {
        case Plant::OutOfBounds: {
            const i64 target =
                rng_.chance(1, 2)
                    ? static_cast<i64>(obj.len + 8 * rng_.below(3))
                    : -8 * static_cast<i64>(1 + rng_.below(2));
            expect(TrapKind::SpatialViolation,
                   obj.base + static_cast<u64>(target));
            emit_checked(k, rng_.chance(1, 2), target);
            break;
        }
        case Plant::ErasedKey:
            p_.emit_li(Reg::a6, static_cast<i64>(lock_addr(ptr.lock)));
            p_.emit(stype(Opcode::SD, Reg::a6, Reg::zero, 0));
            emit_random_op(p_, rng_);
            expect(TrapKind::TemporalViolation, lock_addr(ptr.lock));
            p_.emit(rtype(Opcode::TCHK, Reg::zero, kPtrs[k], Reg::zero));
            break;
        case Plant::SaturatedBounds:
            // A range one bit wider than csr.bitw allows.
            p_.emit_li(Reg::a6, static_cast<i64>(
                                    addr(ptr) + (u64{1} << (widths_.range_bits + 4))));
            p_.emit(rtype(Opcode::BNDRS, kPtrs[k], kPtrs[k], Reg::a6));
            emit_random_op(p_, rng_);
            expect(TrapKind::SpatialViolation, addr(ptr));
            p_.emit(itype(Opcode::CLD, work_reg(rng_), kPtrs[k], 0));
            break;
        case Plant::SaturatedLock:
            // A lock below csr.lock.base.
            p_.emit_li(Reg::a6, 8);
            p_.emit_li(Reg::a7, static_cast<i64>(key(0)));
            p_.emit(rtype(Opcode::BNDRT, kPtrs[k], Reg::a7, Reg::a6));
            emit_random_op(p_, rng_);
            expect(TrapKind::TemporalViolation, addr(ptr));
            p_.emit(rtype(Opcode::TCHK, Reg::zero, kPtrs[k], Reg::zero));
            break;
        case Plant::None:
            break;
        }
    }

    Xoshiro256& rng_;
    const Plant plant_;
    Program p_;
    HwstCase out_;
    hwst::metadata::CompressionConfig widths_;
    i64 bitw_ = 0;
    std::vector<Obj> objs_;
    std::vector<Ptr> ptrs_;
    std::map<u64, Ptr> slots_;
};

HwstCase fuzz_hwst_program(Xoshiro256& rng, Plant plant)
{
    return HwstGen{rng, plant}.generate();
}

/// FNV-1a over every RunResult observable: pins the simulated outcome
/// of a generated program, so a change to an op's semantics shows even
/// when both tiers share it.
u64 digest(const sim::RunResult& r)
{
    u64 h = 0xCBF29CE484222325ull;
    const auto mix = [&h](u64 v) {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xFF;
            h *= 0x100000001B3ull;
        }
    };
    for (const u64 v :
         {static_cast<u64>(r.trap.kind), r.trap.addr, r.trap.pc,
          static_cast<u64>(r.exit_code), r.cycles, r.instret,
          r.dcache.accesses, r.dcache.misses, r.icache.accesses,
          r.icache.misses, r.keybuffer.lookups, r.keybuffer.hits,
          r.keybuffer.flushes, r.scu_checks, r.tcu_checks, r.scu_saturated,
          r.tcu_saturated, r.smac_translations, r.mix.alu, r.mix.loads,
          r.mix.stores, r.mix.checked_loads, r.mix.checked_stores,
          r.mix.meta_moves, r.mix.binds, r.mix.tchk, r.mix.branches,
          r.mix.jumps, r.mix.ecalls, r.mix.other})
        mix(v);
    for (const i64 v : r.output) mix(static_cast<u64>(v));
    return h;
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
    static const u64 kGolden[] = {
        0xd5c3345c48a31237ull, 0x95e3708db437832full, 0xd7ed4f94931d426full,
        0x6d1232d431be8abfull, 0xd36b0c04e0c3aaadull, 0xa356cbbd362d0011ull,
        0x51a1c919b74a7a04ull, 0xb932884848bfc5bull, 0x323e70442d8a9c5dull,
        0x8f484e34356320bbull, 0xf6093851662b91dfull, 0x57a9c3a6a70b930aull,
        0x659c9ec05ef44d29ull, 0x8e0b04b55f5a8b9full, 0x2719220534ff3b3bull,
        0xa17f87c603f58c9cull,
    };
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
    EXPECT_EQ(digest(a), kGolden[GetParam()])
        << "digest 0x" << std::hex << digest(a);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SuperblockFuzz, ::testing::Range<u64>(0, 16));

// ---- fuzzed HWST metadata programs -----------------------------------
//
// Both tiers execute every op from one definition, so a tier-vs-tier
// comparison alone cannot see a change to an op's semantics: each seed
// also pins the digest() of its run.

/// Runs `c` on both tiers, with the keybuffer on or off, and checks
/// they agree on the RunResult and on the final State, in full.
sim::RunResult run_both_tiers(const HwstCase& c, bool keybuffer)
{
    sim::MachineConfig cfg;
    cfg.keybuffer_enabled = keybuffer;
    sim::Machine dbt{c.program, with_dbt(cfg, true)};
    const sim::RunResult a = dbt.run();
    sim::Machine interp{c.program, with_dbt(cfg, false)};
    const sim::RunResult b = interp.run();
    expect_bit_equal(a, b);
    EXPECT_TRUE(dbt.state() == interp.state());
    EXPECT_GT(dbt.dbt_stats().block_execs, 0u);
    return a;
}

class SuperblockHwstFuzz : public ::testing::TestWithParam<u64> {};

TEST_P(SuperblockHwstFuzz, DbtMatchesInterpreterAndGolden)
{
    static const u64 kGolden[] = {
        0xf335c036ffcd01a9ull, 0x3740f3b10f31eeabull, 0xd35b0aaf9b10ad3eull,
        0xcbe6e657e4749f1aull, 0x1a0caecf493a90cull, 0xbe9d5a786ae55be9ull,
        0xf8039feaaf680c64ull, 0x61dc12686a3f160eull, 0x3824026e56077447ull,
        0x7ed64dee81010e73ull, 0x586ef849df592e96ull, 0x1f20342b31756e09ull,
        0x547d47feec0fda3ull, 0xe708507f76c20992ull, 0xc87234edc63a472eull,
        0x9345cad7e6c4003bull,
    };
    Xoshiro256 rng{0x4857F + GetParam() * 7919};
    const HwstCase c = fuzz_hwst_program(rng, Plant::None);
    const sim::RunResult r = run_both_tiers(c, GetParam() % 2 == 0);
    ASSERT_EQ(r.trap.kind, hwst::hwst::TrapKind::None);
    EXPECT_GT(r.scu_checks, 0u);
    EXPECT_GT(r.tcu_checks, 0u);
    EXPECT_EQ(digest(r), kGolden[GetParam()])
        << "digest 0x" << std::hex << digest(r);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SuperblockHwstFuzz,
                         ::testing::Range<u64>(0, 16));

class SuperblockHwstTrap : public ::testing::TestWithParam<u64> {};

TEST_P(SuperblockHwstTrap, MidBlockTrapMatchesInterpreterAndGolden)
{
    static const u64 kGolden[] = {
        0x15039a2897e0dbe3ull, 0x162db23639a235f1ull, 0xd10f075c7d74ca10ull,
        0xe367137dc95d1544ull, 0x1a6d86d97275844bull, 0xd60384f79f25e23bull,
        0x9e7c768626b2a136ull, 0x14f56d73bc3f0e78ull, 0xe9a50e13faa26baaull,
        0x6424f7f6d0d4c7c6ull, 0x1b2f657cd796bccdull, 0xd053999da207b609ull,
        0xe94c75c77f400afeull, 0x24083f5d6cb03b02ull, 0x81782e35705d437aull,
        0xc4eec14af6e8f3fbull,
    };
    static const Plant kPlants[] = {Plant::OutOfBounds, Plant::ErasedKey,
                                    Plant::SaturatedBounds,
                                    Plant::SaturatedLock};
    Xoshiro256 rng{0x7A9F + GetParam() * 104729};
    const HwstCase c = fuzz_hwst_program(rng, kPlants[GetParam() % 4]);
    const sim::RunResult r = run_both_tiers(c, GetParam() / 4 % 2 == 0);
    EXPECT_EQ(r.trap.kind, c.kind);
    EXPECT_EQ(r.trap.addr, c.tval);
    EXPECT_EQ(r.trap.pc, c.pc);
    EXPECT_EQ(digest(r), kGolden[GetParam()])
        << "digest 0x" << std::hex << digest(r);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SuperblockHwstTrap,
                         ::testing::Range<u64>(0, 16));

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

TEST(SuperblockCacheTest, ArenaOverflowAndFlushesStayBitIdentical)
{
    // A loop whose body alone is more ops than one arena chunk, paused
    // twice with a map_region (a flush of every block) each time: the
    // blocks spill into further chunks, are dropped, re-translate, and
    // the run still matches the interpreter bit for bit.
    Xoshiro256 rng{0xA4E7A};
    Program p;
    p.label("main");
    p.emit_li(Reg::s5, static_cast<i64>(p.layout().data_base));
    p.emit_li(Reg::s6, 0);
    p.emit_li(Reg::s7, 6);
    p.label("loop");
    const u64 body = sim::SuperblockCache::kOpsPerChunk * 3 / 2;
    for (u64 k = 0; k < body; ++k) emit_random_op(p, rng);
    p.emit(itype(Opcode::ADDI, Reg::s6, Reg::s6, 1));
    // The body is beyond a branch's reach: jal closes the loop.
    p.emit_branch(Opcode::BGE, Reg::s6, Reg::s7, "done");
    p.emit_jal(Reg::zero, "loop");
    p.label("done");
    emit_checksum_exit(p);
    p.finalize();

    sim::Machine interp{p, with_dbt({}, false)};
    const sim::RunResult full = interp.run();
    ASSERT_EQ(full.trap.kind, hwst::hwst::TrapKind::None);

    sim::Machine m{p, with_dbt({}, true)};
    const u64 stride = body + body / 2;
    for (const u64 region : {u64{0x6000'0000}, u64{0x6100'0000}}) {
        const u64 ops_before = m.dbt_stats().translated_ops;
        EXPECT_FALSE(m.run_cancellable([] { return true; }, stride).has_value());
        EXPECT_TRUE(m.running());
        // The paused segment ran the whole body at least once.
        EXPECT_GT(m.dbt_stats().translated_ops - ops_before,
                  sim::SuperblockCache::kOpsPerChunk);
        m.memory().map_region("late", region, 4096);
    }
    EXPECT_EQ(m.dbt_stats().flushes, 2u);
    const auto resumed = m.run_cancellable([] { return false; });
    ASSERT_TRUE(resumed.has_value());
    expect_bit_equal(*resumed, full);
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

TEST(SuperblockChaining, JalrSiteCyclingTargetsEvictsInlineCache)
{
    // One jalr site calls four targets in turn: a 2-way inline cache
    // misses on every call (under any replacement policy), so its ways
    // are refilled and re-chained all the time.
    constexpr i64 kIters = 400;
    Program p;
    p.label("main");
    p.emit_li(Reg::a0, 1);
    p.emit_li(Reg::s2, 0); // target index, 0..3
    p.emit_li(Reg::s6, 0);
    p.emit_li(Reg::s7, kIters);
    p.label("loop");
    p.emit_la_text(Reg::t0, "targets");
    p.emit(itype(Opcode::SLLI, Reg::t1, Reg::s2, 4));
    p.emit(rtype(Opcode::ADD, Reg::t0, Reg::t0, Reg::t1));
    p.emit(itype(Opcode::JALR, Reg::ra, Reg::t0, 0));
    p.emit(itype(Opcode::ADDI, Reg::s2, Reg::s2, 1));
    p.emit(itype(Opcode::ANDI, Reg::s2, Reg::s2, 3));
    p.emit(itype(Opcode::ADDI, Reg::s6, Reg::s6, 1));
    p.emit_branch(Opcode::BLT, Reg::s6, Reg::s7, "loop");
    p.emit(itype(Opcode::ANDI, Reg::a0, Reg::a0, 0xFF));
    p.emit_li(Reg::a7, static_cast<i64>(sim::Sys::Exit));
    p.emit(Instruction{Opcode::ECALL});
    // Four targets, 16 bytes apart; each changes a0 its own way.
    p.label("targets");
    for (const Instruction& in :
         {itype(Opcode::ADDI, Reg::a0, Reg::a0, 3),
          itype(Opcode::XORI, Reg::a0, Reg::a0, 0x5A),
          itype(Opcode::SLLI, Reg::a0, Reg::a0, 1),
          rtype(Opcode::MUL, Reg::a0, Reg::a0, Reg::s6)}) {
        p.emit(in);
        p.emit_ret();
        p.emit(Instruction{Opcode::FENCE}); // padding, never runs
        p.emit(Instruction{Opcode::FENCE});
    }
    p.finalize();

    sim::Machine dbt{p, with_dbt({}, true)};
    const sim::RunResult a = dbt.run();
    sim::Machine interp{p, with_dbt({}, false)};
    const sim::RunResult b = interp.run();

    ASSERT_EQ(a.trap.kind, hwst::hwst::TrapKind::None);
    expect_bit_equal(a, b);
    const auto& st = dbt.dbt_stats();
    EXPECT_GE(st.jalr_misses, static_cast<u64>(kIters));
    // The four returns each go back to one site and hit after warm-up.
    EXPECT_GT(st.jalr_hits, 0u);
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

// ---- I$ fetches across lines -----------------------------------------

TEST(SuperblockFetch, StraightLineAcrossLinesMatchesInterpreter)
{
    // Two passes over 100 straight-line instructions: seven 64-byte I$
    // lines, each entered by a sequential fetch and, in the second pass,
    // re-entered after a taken branch. The interpreter counts repeat
    // fetches on a line without the set lookup; the dispatcher batches
    // them per block. Both must count every fetch and one miss per line.
    Program p;
    p.label("main");
    p.emit_li(Reg::s6, 0);
    p.emit_li(Reg::s7, 2);
    p.label("loop");
    for (int i = 0; i < 100; ++i)
        p.emit(itype(Opcode::ADDI, Reg::t0, Reg::t0, 1));
    p.emit(itype(Opcode::ADDI, Reg::s6, Reg::s6, 1));
    p.emit_branch(Opcode::BLT, Reg::s6, Reg::s7, "loop");
    p.emit_li(Reg::a7, static_cast<i64>(sim::Sys::Exit));
    p.emit(Instruction{Opcode::ECALL});
    p.finalize();

    sim::Machine dbt{p, with_dbt({}, true)};
    const sim::RunResult a = dbt.run();
    sim::Machine interp{p, with_dbt({}, false)};
    const sim::RunResult b = interp.run();

    ASSERT_EQ(b.trap.kind, hwst::hwst::TrapKind::None);
    expect_bit_equal(a, b);
    EXPECT_EQ(b.instret, 2u + 2 * 102 + 2);
    EXPECT_EQ(b.icache.accesses, b.instret);
    const u64 first = p.label_addr("main") / 64;
    const u64 last = (p.label_addr("main") + 4 * (p.code().size() - 1)) / 64;
    EXPECT_EQ(b.icache.misses, last - first + 1);
    EXPECT_TRUE(dbt.state() == interp.state());
}

TEST(SuperblockFetch, InterpreterRefetchesLineTheDispatcherEvicted)
{
    // The loop's head and its four jump targets sit 4 KiB apart, so their
    // lines share one set of the 4-way I$ and each iteration evicts the
    // head's line. The interpreter steps up to the head's jump, the
    // dispatcher runs one iteration, and the interpreter steps the head
    // again: that fetch must miss, as on an all-interpreter run, however
    // recently the interpreter itself fetched the same line.
    Program p;
    p.label("main");
    p.emit_li(Reg::s6, 0);
    p.emit_li(Reg::s7, 3);
    p.label("loop");
    p.emit(itype(Opcode::ADDI, Reg::t0, Reg::t0, 1));
    p.emit_jal(Reg::zero, "b1");
    const char* const targets[] = {"b1", "b2", "b3", "b4"};
    for (int i = 0; i < 4; ++i) {
        while (p.code().size() % 1024 != 0) p.emit(nop());
        p.label(targets[i]);
        p.emit(itype(Opcode::ADDI, Reg::t1, Reg::t1, 1));
        if (i < 3) p.emit_jal(Reg::zero, targets[i + 1]);
    }
    p.emit(itype(Opcode::ADDI, Reg::s6, Reg::s6, 1));
    p.emit_branch(Opcode::BGE, Reg::s6, Reg::s7, "done");
    p.emit_jal(Reg::zero, "loop"); // out of a branch's reach
    p.label("done");
    p.emit_li(Reg::a7, static_cast<i64>(sim::Sys::Exit));
    p.emit(Instruction{Opcode::ECALL});
    p.finalize();

    sim::Machine m{p, with_dbt({}, true)};
    for (int i = 0; i < 3; ++i)
        ASSERT_EQ(m.step().kind, hwst::hwst::TrapKind::None);
    // Stride 1 polls at every block boundary; the sixth poll comes after
    // the blocks at the head's jump, b1, b2, b3, b4 and the jump back.
    unsigned polls = 0;
    ASSERT_FALSE(
        m.run_cancellable([&] { return ++polls == 6; }, 1).has_value());
    ASSERT_EQ(m.pc(), p.label_addr("loop"));
    ASSERT_EQ(m.step().kind, hwst::hwst::TrapKind::None);

    // Right here, not only at the end: the dispatcher's next fetch of
    // the head's line would make up for a missed miss.
    sim::Machine interp{p, with_dbt({}, false)};
    while (interp.instret() < m.instret()) interp.step();
    const sim::Counters got = m.counters();
    const sim::Counters want = interp.counters();
    EXPECT_EQ(got.icache.accesses, want.icache.accesses);
    EXPECT_EQ(got.icache.misses, want.icache.misses);
    EXPECT_EQ(got.cycles, want.cycles);

    const sim::RunResult a = m.run();
    const sim::RunResult b = interp.run();
    ASSERT_EQ(b.trap.kind, hwst::hwst::TrapKind::None);
    expect_bit_equal(a, b);
    EXPECT_TRUE(m.state() == interp.state());
}

} // namespace
