#include "sim/machine.hpp"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <utility>

#include "common/env.hpp"
#include "common/error.hpp"
#include "riscv/encoding.hpp"
#include "sim/checkpoint.hpp"
#include "sim/dispatch.hpp"
#include "sim/ops.hpp"
#include "sim/period.hpp"
#include "sim/syscalls.hpp"

namespace hwst::sim {

using common::SimError;
using common::u8;
using hwst::Trap;
using hwst::TrapKind;
using mem::Access;
using mem::MemFault;
using riscv::Format;
using riscv::Instruction;
using riscv::Opcode;

namespace {

constexpr bool reads_rs1(Format f)
{
    switch (f) {
    case Format::R: case Format::I: case Format::ShiftI:
    case Format::ShiftIW: case Format::S: case Format::B: case Format::Csr:
        return true;
    default:
        return false;
    }
}

constexpr bool reads_rs2(Format f)
{
    return f == Format::R || f == Format::S || f == Format::B;
}

/// Everything a Uop holds that depends on its opcode alone, so
/// predecode is one table read per instruction.
struct UopTraits {
    Format fmt{};
    bool reads_rs1 = false;
    bool reads_rs2 = false;
    bool is_load = false;
    Fu fu = Fu::None;
    u64 InstrMix::* bucket = nullptr;
};

constexpr std::array<UopTraits, riscv::kNumOpcodes> kUopTraits = [] {
    std::array<UopTraits, riscv::kNumOpcodes> t{};
    for (unsigned i = 0; i < riscv::kNumOpcodes; ++i) {
        const auto op = static_cast<Opcode>(i);
        const Format fmt = riscv::op_format(op);
        t[i] = UopTraits{fmt,           reads_rs1(fmt),     reads_rs2(fmt),
                         riscv::is_load(op), op_traits(op).fu,
                         op_traits(op).bucket};
    }
    return t;
}();

} // namespace

Machine::Machine(const riscv::Program& program, MachineConfig cfg)
    : program_{program},
      cfg_{cfg},
      dcache_{cfg.dcache},
      icache_{cfg.icache},
      keybuffer_{cfg.keybuffer_entries}
{
    const auto& lay = program.layout();
    const std::span<const Instruction> code = program.code();
    text_base_ = lay.text_base;
    code_bytes_ = code.size() * 4;
    lock_base_ = lay.lock_base;
    lock_bytes_ = lay.lock_entries * 8;

    // Process address-space map, with one translation-cache
    // invalidation for the whole layout.
    const u64 text_size =
        common::align_up(std::max<u64>(code.size() * 4, 4), 4096);
    const u64 data_size = common::align_up(program.data().size() + 4096, 4096);
    // Shadow spaces cover the <<2 image of everything below stack_top.
    mem_.map_regions({
        {"text", lay.text_base, text_size},
        {"data", lay.data_base, data_size},
        {"heap", lay.heap_base, lay.heap_size},
        {"stack", lay.stack_top - lay.stack_size, lay.stack_size},
        {"lock", lay.lock_base, lay.lock_entries * 8},
        {"swss", lay.sw_arg_base, lay.sw_arg_size},
        {"lmsm", lay.shadow_offset, lay.stack_top << 2},
        {"swmeta", lay.sw_meta_offset, lay.stack_top << 2},
        {"swl2", lay.sw_l2_offset,
         lay.sw_l1_entries() * lay.sw_l2_bytes_per_entry()},
        {"asan", lay.asan_shadow_offset, lay.stack_top >> 3},
    });

    if (cfg_.runtime.init_sw_trie) {
        for (u64 i = 0; i < lay.sw_l1_entries(); ++i) {
            mem_.store_u64(lay.sw_meta_offset + 8 * i,
                           lay.sw_l2_offset +
                               i * lay.sw_l2_bytes_per_entry());
        }
    }

    // One pass over the code: encode each instruction straight into its
    // text page (for fidelity: fetches read memory) and predecode it
    // into the uop side table, so the per-step format/classify work
    // disappears from the hot loop (docs/performance.md).
    const std::array<u32, 4> fu_extra = {
        fu_cycles(Fu::None, cfg_.timing), fu_cycles(Fu::Mul, cfg_.timing),
        fu_cycles(Fu::Div, cfg_.timing), fu_cycles(Fu::Jump, cfg_.timing)};
    constexpr u64 kPageMask = mem::Memory::kPageSize - 1;
    uops_.reserve(code.size());
    u8* page = nullptr;
    u64 page_base = ~u64{0};
    for (std::size_t i = 0; i < code.size(); ++i) {
        const Instruction& in = code[i];
        const u32 word = riscv::encode(in);
        const u64 addr = lay.text_base + 4 * i;
        if ((addr & kPageMask) <= mem::Memory::kPageSize - 4) {
            if ((addr & ~kPageMask) != page_base) {
                page_base = addr & ~kPageMask;
                page = mem_.materialize_page(addr);
            }
            std::memcpy(page + (addr & kPageMask), &word, 4);
        } else { // a misaligned text base: the word straddles two pages
            mem_.write_bytes(
                addr, std::span{reinterpret_cast<const u8*>(&word), 4});
        }
        const UopTraits& t = kUopTraits[static_cast<unsigned>(in.op)];
        uops_.push_back(Uop{in, t.fmt, t.reads_rs1, t.reads_rs2, t.is_load,
                            fu_extra[static_cast<unsigned>(t.fu)], t.bucket});
    }
    mem_.write_bytes(lay.data_base, program.data());

    heap_ = std::make_unique<mem::HeapAllocator>(lay.heap_base, lay.heap_size);
    locks_ = std::make_unique<mem::LockAllocator>(lay.lock_base,
                                                  lay.lock_entries);
    // The global lock_location permanently holds the global key (CETS).
    mem_.store_u64(locks_->global_lock_addr(), mem::LockAllocator::kGlobalKey);
    // CETS stack-lock allocator state (manipulated inline by function
    // prologues/epilogues): cursor at lock_base+16 grows down from the
    // top of the region; the stack-key counter lives at lock_base+24
    // in a key space disjoint from the heap allocator's (bit 43 set).
    mem_.store_u64(lay.lock_base + 16,
                   lay.lock_base + 8 * (lay.lock_entries - 1));
    mem_.store_u64(lay.lock_base + 24, (u64{1} << 43) + 1);

    // Reset state: sp at the stack top, HWST CSRs preset from the layout
    // (program prologues may overwrite them, as the paper does).
    pc_ = program.entry_addr();
    set_reg(Reg::sp, lay.stack_top - 256);
    csrs_.write(hwst::kCsrSmOffset, lay.shadow_offset);
    csrs_.write(hwst::kCsrLockBase, lay.lock_base);
    csrs_.write(hwst::kCsrLockSize, lay.lock_entries);
    csrs_.write(hwst::kCsrStatus,
                hwst::kStatusSpatialEnable | hwst::kStatusTemporalEnable);

    // Execution-tier resolution (docs/performance.md): HWST_TIER
    // overrides cfg.tier, and Auto means the dispatcher.
    if (const auto t = env_tier()) cfg_.tier = *t;
    tier_ = cfg_.tier == ExecTier::Interp ? ExecTier::Interp : ExecTier::Dbt;
}

const Machine::ActiveCompression& Machine::active_compression()
{
    // Memoized against the CSR file's version counter: the decode +
    // validate work only reruns after a CSR write. A live CompCsrWidths
    // point still calls the hook on every invocation (it must observe,
    // and may perturb, each one); the decode is reused while the widths
    // it returns and the version are unchanged.
    const bool live = probe_live(Probe::CompCsrWidths);
    const u64 version = csrs_.version();
    if (!live && comp_version_ == version) return comp_memo_;
    const u64 bitw = csrs_.read(hwst::kCsrBitw).value_or(0);
    const u32 csr = static_cast<u32>(bitw) & 0xFFFFFF;
    const u32 widths =
        static_cast<u32>(call_probe_if_live(Probe::CompCsrWidths, bitw)) &
        0xFFFFFF;
    if (comp_memo_key_.version != version || comp_memo_key_.widths != widths) {
        auto cfg = metadata::CompressionConfig::from_csr(
            widths, csrs_.read(hwst::kCsrLockBase).value_or(0));
        bool valid = true;
        try {
            cfg.validate();
        } catch (const common::ConfigError&) {
            valid = false;
        }
        comp_memo_ = ActiveCompression{cfg, valid};
        comp_memo_key_ = {version, widths};
    }
    // The quiet fast paths may serve only a decode of the CSR's own
    // widths.
    comp_version_ = widths == csr ? version : ~u64{0};
    return comp_memo_;
}

Trap Machine::retire_one()
{
    if (!running_)
        throw SimError{"Machine::step called after the program stopped"};

    // Unsigned wrap folds the pc < text_base case into one compare;
    // pc % 4 is checked against pc itself, as before (text_base is
    // page-aligned, so off & 3 would be equivalent for our layouts).
    const u64 off = pc_ - text_base_;
    if (off >= code_bytes_ || (pc_ & 3) != 0) {
        running_ = false;
        return Trap{TrapKind::AccessFault, pc_, pc_};
    }
    const Uop& uop = uops_[off >> 2];
    const Instruction& in = uop.in;

    if (trace_) trace_(pc_, in);
    ++instret_;
    cycles_ += 1 + uop.fu_cycles; // issue + the op's functional unit
    if (cfg_.icache_enabled) {
        // line_bytes is a power of two: same line iff the pcs differ
        // only below it (kNoFetch differs in the top bit).
        if ((pc_ ^ fetch_pc_) < cfg_.icache.line_bytes) {
            icache_.count_repeat_hits(1);
        } else {
            cycles_ += icache_.access(pc_) - cfg_.icache.hit_cycles;
            fetch_pc_ = pc_;
        }
    }
    ++(mix_.*uop.bucket);

    // Load-use hazard: the instruction right after a load stalls one
    // cycle if it consumes the loaded register.
    if (last_load_rd_ != Reg::zero) {
        if ((uop.reads_rs1 && in.rs1 == last_load_rd_) ||
            (uop.reads_rs2 && in.rs2 == last_load_rd_)) {
            cycles_ += cfg_.timing.load_use_stall;
        }
    }
    last_load_rd_ = Reg::zero;

    u64 next_pc = pc_ + 4;
    Trap trap{};
    try {
        trap = exec(in, next_pc);
    } catch (const MemFault& fault) {
        trap = Trap{TrapKind::AccessFault, fault.addr, pc_};
    }

    if (trap.kind != TrapKind::None) {
        running_ = false;
        return trap;
    }
    if (uop.is_load) last_load_rd_ = in.rd;
    pc_ = next_pc;
    return Trap{};
}

Trap Machine::exec(const Instruction& in, u64& next_pc)
{
    const u64 rs1 = reg(in.rs1);
    const u64 rs2 = reg(in.rs2);
    const u64 imm = static_cast<u64>(in.imm);

    switch (in.op) {
#define HWST_EXEC_ALU(name, kind, fu, srf, expr)                          \
    case Opcode::name:                                                    \
        write_rd<SrfRule::srf, false>(in.rd, in.rs1, in.rs2,              \
                                      ops::name(rs1, rs2, imm));          \
        break;
        HWST_ALU_OPS(HWST_EXEC_ALU)
#undef HWST_EXEC_ALU
#define HWST_EXEC_CONST(name, expr)                                       \
    case Opcode::name:                                                    \
        write_rd<SrfRule::Clear, false>(in.rd, in.rs1, in.rs2,            \
                                        ops::name(imm, pc_));             \
        break;
        HWST_CONST_OPS(HWST_EXEC_CONST)
#undef HWST_EXEC_CONST
#define HWST_EXEC_LOAD(name, kind, width, sign)                           \
    case Opcode::name: load<true>(in.rd, rs1 + imm, width, sign); break;
        HWST_LOAD_OPS(HWST_EXEC_LOAD)
#undef HWST_EXEC_LOAD
#define HWST_EXEC_STORE(name, kind, width)                                \
    case Opcode::name: mem_store(rs1 + imm, width, rs2); break;
        HWST_STORE_OPS(HWST_EXEC_STORE)
#undef HWST_EXEC_STORE
#define HWST_EXEC_BRANCH(name, kind, cond)                                \
    case Opcode::name:                                                    \
        if (ops::name(rs1, rs2)) {                                        \
            next_pc = pc_ + imm;                                          \
            cycles_ += cfg_.timing.branch_taken_penalty;                  \
        }                                                                 \
        break;
        HWST_BRANCH_OPS(HWST_EXEC_BRANCH)
#undef HWST_EXEC_BRANCH

    // ---- control transfer ------------------------------------------
    case Opcode::JAL:
        write_rd<SrfRule::Clear, false>(in.rd, in.rs1, in.rs2, pc_ + 4);
        next_pc = pc_ + imm;
        break;
    case Opcode::JALR:
        write_rd<SrfRule::Clear, false>(in.rd, in.rs1, in.rs2, pc_ + 4);
        next_pc = ops::jalr_target(rs1, imm);
        break;

    // ---- system ---------------------------------------------------------
    case Opcode::FENCE: break;
    case Opcode::ECALL: return exec_ecall();
    case Opcode::EBREAK: return Trap{TrapKind::Breakpoint, 0, pc_};
    case Opcode::CSRRW: case Opcode::CSRRS: case Opcode::CSRRC:
    case Opcode::CSRRWI: case Opcode::CSRRSI: case Opcode::CSRRCI: {
        cycles_ += cfg_.timing.csr_extra;
        u64 old = 0;
        if (in.csr == hwst::kCsrCycle || in.csr == hwst::kCsrInstret) {
            old = in.csr == hwst::kCsrCycle ? cycles_ : instret_;
            counters_read_ = true;
        } else if (const auto v = csrs_.read(in.csr)) old = *v;
        else return Trap{TrapKind::IllegalInstruction, in.csr, pc_};

        const bool is_imm = riscv::op_format(in.op) == Format::CsrI;
        const u64 src = is_imm ? imm : rs1;
        u64 next = old;
        switch (in.op) {
        case Opcode::CSRRW: case Opcode::CSRRWI: next = src; break;
        case Opcode::CSRRS: case Opcode::CSRRSI: next = old | src; break;
        default: next = old & ~src; break;
        }
        const bool writes =
            (in.op == Opcode::CSRRW || in.op == Opcode::CSRRWI) ||
            (!is_imm && in.rs1 != Reg::zero) || (is_imm && imm != 0);
        if (writes && in.csr != hwst::kCsrCycle &&
            in.csr != hwst::kCsrInstret) {
            // Graceful degradation: reject csr.bitw / csr.lock.base
            // values COMP/DECOMP could not operate under (zero-width
            // fields, spatial half over 64 bits, misaligned lock base)
            // at the write, instead of computing garbage at every later
            // metadata operation.
            if (in.csr == hwst::kCsrBitw || in.csr == hwst::kCsrLockBase) {
                const u64 bitw = in.csr == hwst::kCsrBitw
                                     ? next
                                     : csrs_.read(hwst::kCsrBitw).value_or(0);
                const u64 lock_base =
                    in.csr == hwst::kCsrLockBase
                        ? next
                        : csrs_.read(hwst::kCsrLockBase).value_or(0);
                auto cc = metadata::CompressionConfig::from_csr(
                    static_cast<u32>(bitw) & 0xFFFFFF, lock_base);
                try {
                    cc.validate();
                } catch (const common::ConfigError&) {
                    return Trap{TrapKind::IllegalInstruction, in.csr, pc_};
                }
            }
            csrs_.write(in.csr, next);
        }
        write_rd<SrfRule::Clear, false>(in.rd, in.rs1, in.rs2, old);
        break;
    }

    default:
        return exec_hwst<true>(in);
    }
    return Trap{};
}

template <bool Hooked>
Trap Machine::exec_hwst(const Instruction& in)
{
    const u64 rs1 = reg(in.rs1);
    const u64 imm = static_cast<u64>(in.imm);
    const u64 sm_off = csrs_.sm_offset();

    switch (in.op) {
    case Opcode::BNDRS: case Opcode::BNDRT:
        return bndr<Hooked>(in.op == Opcode::BNDRT, in.rd, rs1, reg(in.rs2));
    case Opcode::SBDL: case Opcode::SBDU:
        sbd<Hooked>(ops::shadow_slot(in.op), rs1 + imm, in.rs2);
        break;
    case Opcode::LBDLS: case Opcode::LBDUS:
        lbd<Hooked>(ops::shadow_slot(in.op), in.rd, rs1 + imm);
        break;
    case Opcode::TCHK:
        return tchk<Hooked>(in.rs1);

    case Opcode::LBAS: case Opcode::LBND: {
        const ActiveCompression& ac = compression<Hooked>();
        if (!ac.valid) return bad_widths();
        const u64 addr = smac_.map(rs1, sm_off);
        const u64 lo = probe<Hooked>(Probe::LmsmLoad,
                                     mem_load<Hooked>(addr, 8, false));
        if (metadata::is_saturated_spatial(lo, ac.cfg)) {
            scu_.note_saturated();
            return violation(TrapKind::SpatialViolation, rs1);
        }
        u64 base = 0, bound = 0;
        metadata::decompress_spatial(lo, ac.cfg, base, bound);
        write_rd<SrfRule::Clear, false>(in.rd, in.rs1, in.rs2,
                                        in.op == Opcode::LBAS ? base : bound);
        break;
    }
    case Opcode::LKEY: case Opcode::LLOC: {
        const ActiveCompression& ac = compression<Hooked>();
        if (!ac.valid) return bad_widths();
        const u64 addr =
            smac_.map(rs1, sm_off) + hwst::Smac::upper_slot_offset();
        const u64 hi = probe<Hooked>(Probe::LmsmLoad,
                                     mem_load<Hooked>(addr, 8, false));
        if (metadata::is_saturated_temporal(hi, ac.cfg)) {
            tcu_.note_saturated();
            return violation(TrapKind::TemporalViolation, rs1);
        }
        u64 key = 0, lock = 0;
        metadata::decompress_temporal(hi, ac.cfg, key, lock);
        write_rd<SrfRule::Clear, false>(in.rd, in.rs1, in.rs2,
                                        in.op == Opcode::LKEY ? key : lock);
        break;
    }

    case Opcode::KBFLUSH:
        keybuffer_.flush();
        break;
    case Opcode::SRFMV:
        srf_.propagate(in.rd, in.rs1);
        break;
    case Opcode::SRFCLR:
        srf_.clear(in.rd);
        break;

#define HWST_EXEC_CHECKED_LOAD(name, width, sign)                         \
    case Opcode::name:                                                    \
        return checked_load<Hooked>(in.rd, in.rs1, rs1 + imm, width, sign);
        HWST_CHECKED_LOAD_OPS(HWST_EXEC_CHECKED_LOAD)
#undef HWST_EXEC_CHECKED_LOAD
#define HWST_EXEC_CHECKED_STORE(name, width)                              \
    case Opcode::name:                                                    \
        return checked_store<Hooked>(in.rs1, rs1 + imm, width, in.rs2);
        HWST_CHECKED_STORE_OPS(HWST_EXEC_CHECKED_STORE)
#undef HWST_EXEC_CHECKED_STORE

    default:
        return Trap{TrapKind::IllegalInstruction, 0, pc_};
    }
    return Trap{};
}

// The interpreter and the probe-hooked dispatcher run the hooked form,
// the hook-free dispatcher's generic HWST executor (SbKind::Hwst) the
// other.
template Trap Machine::exec_hwst<true>(const Instruction&);
template Trap Machine::exec_hwst<false>(const Instruction&);

Trap Machine::exec_ecall()
{
    cycles_ += cfg_.timing.ecall_cost;
    const auto nr = static_cast<Sys>(reg(Reg::a7));
    const u64 a0 = reg(Reg::a0);
    const u64 a1 = reg(Reg::a1);
    const u64 a2 = reg(Reg::a2);
    const auto& rt = cfg_.runtime;
    const auto& lay = program_.layout();

    const auto poison = [&](u64 addr, u64 len, bool flag) {
        const u64 first = addr >> 3;
        const u64 last = (addr + len + 7) >> 3;
        for (u64 g = first; g < last; ++g)
            mem_.store_u8(lay.asan_shadow_offset + g, flag ? 1 : 0);
    };

    switch (nr) {
    case Sys::Exit:
        running_ = false;
        exit_code_ = static_cast<i64>(a0);
        break;

    case Sys::Malloc: {
        const u64 size = a0 == 0 ? 1 : a0;
        if (rt.asan_redzone == 0) {
            set_reg(Reg::a0, heap_->malloc(size));
            break;
        }
        const u64 rz = rt.asan_redzone;
        const u64 raw = heap_->malloc(size + 2 * rz);
        if (raw == 0) {
            set_reg(Reg::a0, 0);
            break;
        }
        poison(raw, rz, true);
        poison(raw + rz + size, rz, true);
        // Unpoison the payload last: a sub-granule tail shares its
        // shadow byte with the right redzone; ASAN resolves the overlap
        // in favour of addressability (our model has 1-byte granule
        // resolution only at 8-byte granularity, like real ASAN's
        // partial-poison corner).
        poison(raw + rz, size, false);
        set_reg(Reg::a0, raw + rz);
        break;
    }

    case Sys::Free: {
        if (rt.asan_redzone == 0) {
            const auto size = heap_->free(a0);
            if (!size) {
                if (rt.libc_free_aborts) {
                    running_ = false;
                    return Trap{TrapKind::LibcAbort, a0, pc_};
                }
                set_reg(Reg::a0, ~u64{0});
            } else {
                set_reg(Reg::a0, *size);
            }
            break;
        }
        const u64 rz = rt.asan_redzone;
        const u64 raw = a0 - rz;
        // Double free: the payload is already poisoned (freed earlier,
        // possibly still sitting in quarantine).
        if (mem_.load_u8(lay.asan_shadow_offset + (a0 >> 3)) != 0) {
            running_ = false;
            return Trap{TrapKind::AsanReport, a0, pc_};
        }
        const auto size = heap_->block_size(raw);
        if (!size) {
            running_ = false;
            return Trap{TrapKind::AsanReport, a0, pc_};
        }
        poison(raw, *size, true);
        if (rt.quarantine) {
            quarantine_.emplace_back(raw, *size);
            quarantine_used_ += *size;
            while (quarantine_used_ > rt.quarantine_bytes &&
                   !quarantine_.empty()) {
                const auto [qa, qs] = quarantine_.front();
                quarantine_.erase(quarantine_.begin());
                quarantine_used_ -= qs;
                heap_->free(qa);
            }
        } else {
            heap_->free(raw);
        }
        set_reg(Reg::a0, *size);
        break;
    }

    case Sys::LockAlloc: {
        const auto grant = locks_->allocate();
        mem_.store_u64(grant.lock_addr, grant.key);
        set_reg(Reg::a0, grant.lock_addr);
        set_reg(Reg::a1, grant.key);
        break;
    }

    case Sys::LockFree:
        // The free wrapper hands us a lock address it recovered from
        // (possibly corrupted) metadata. A bad or double release is
        // simulated-program misbehaviour — abort like glibc would on a
        // bad free(), never crash the host.
        if (!locks_->release(a0)) {
            running_ = false;
            return Trap{TrapKind::LibcAbort, a0, pc_};
        }
        break;

    case Sys::PrintI64:
        output_.push_back(static_cast<i64>(a0));
        break;

    case Sys::ReadCycle:
        set_reg(Reg::a0, cycles_);
        counters_read_ = true;
        break;

    case Sys::SoftViolation:
        running_ = false;
        return Trap{a0 == 0 ? TrapKind::SoftSpatialViolation
                            : TrapKind::SoftTemporalViolation,
                    a1, pc_};

    case Sys::AsanReport:
        running_ = false;
        return Trap{TrapKind::AsanReport, a1, pc_};

    case Sys::StackGuardFail:
        running_ = false;
        return Trap{TrapKind::StackGuardViolation, a1, pc_};

    case Sys::AsanPoison:
        poison(a0, a1, a2 != 0);
        cycles_ += a1 / 8; // shadow writes the runtime would perform
        break;

    case Sys::BogoScan: {
        // BOGO (ASPLOS'19) scans resident bound-table pages when a
        // pointer is freed and nullifies entries whose base matches, so
        // later dereferences through stale table entries fail the
        // spatial check. Poison value: base 0 / bound 1 (bound 0 means
        // "no metadata").
        auto pages = mem_.resident_pages_in(lay.sw_meta_offset,
                                            lay.stack_top << 2);
        const auto l2_pages = mem_.resident_pages_in(
            lay.sw_l2_offset,
            lay.sw_l1_entries() * lay.sw_l2_bytes_per_entry());
        pages.insert(pages.end(), l2_pages.begin(), l2_pages.end());
        for (const u64 page : pages) {
            for (u64 rec = page; rec + 16 <= page + mem::Memory::kPageSize;
                 rec += 32) {
                if (mem_.load_u64(rec) == a0 &&
                    mem_.load_u64(rec + 8) != 0) {
                    mem_.store_u64(rec, 0);
                    mem_.store_u64(rec + 8, 1);
                }
            }
        }
        cycles_ += 64 * pages.size(); // modeled page-scan cost
        break;
    }

    default:
        // An unknown ecall number is simulated-program behaviour (a
        // stray jump could land on any ecall with any a7), not a host
        // error: deliver it as a trap so harnesses classify it.
        running_ = false;
        return Trap{TrapKind::IllegalInstruction, reg(Reg::a7), pc_};
    }
    return Trap{};
}

RunResult Machine::run()
{
    // run_cancellable never cancels with a null callback.
    return *run_cancellable({});
}

std::optional<RunResult> Machine::run_cancellable(
    const std::function<bool()>& cancel, u64 stride)
{
    RunResult result;
    if (stride == 0) stride = 1;
    const bool finished =
        tier_ == ExecTier::Interp || trace_
            ? run_interpreted(cancel, stride, result.trap)
        : probe_hook_ ? run_probe_hooked(cancel, stride, result.trap)
                      : run_hook_free(cancel, stride, result.trap);
    if (!finished) return std::nullopt;
    result.exit_code = exit_code_;
    result.cycles = cycles_;
    result.instret = instret_;
    result.output = output_;
    result.dcache = dcache_.stats();
    result.icache = icache_.stats();
    result.keybuffer = keybuffer_.stats();
    result.scu_checks = scu_.checks();
    result.tcu_checks = tcu_.checks();
    result.scu_saturated = scu_.saturated();
    result.tcu_saturated = tcu_.saturated();
    result.smac_translations = smac_.translations();
    result.mix = mix_;
    // Counter conservation, whichever tier, block batch, trap prefix,
    // periodic skip or checkpoint restore got the run here: each retired
    // instruction lands in exactly one InstrMix bucket, and each TCU
    // check that did not short-circuit on the saturating encoding looked
    // its lock up in the keybuffer once, if there is one. A tchk whose
    // key load faults after a keybuffer miss has looked up without a
    // check, and ends the run with an AccessFault.
    if (result.mix.total() != result.instret)
        throw SimError{"counter conservation: InstrMix total " +
                       std::to_string(result.mix.total()) + " != instret " +
                       std::to_string(result.instret)};
    const u64 checked = cfg_.keybuffer_enabled
                            ? result.tcu_checks - result.tcu_saturated
                            : 0;
    const u64 lookups = result.keybuffer.lookups;
    if (lookups != checked &&
        !(lookups == checked + 1 && result.trap.kind == TrapKind::AccessFault))
        throw SimError{"counter conservation: keybuffer lookups " +
                       std::to_string(lookups) +
                       " != unsaturated TCU checks " +
                       std::to_string(checked)};
    return result;
}

bool Machine::run_interpreted(const std::function<bool()>& cancel,
                              u64 stride, Trap& out)
{
    // The tier pinned to interp, or a trace hook that must see every
    // instruction. The state stops being the golden run's.
    prefix_golden_ = false;
    if (tier_ != ExecTier::Interp) ++dbt_stats_.fallback_runs;
    // Countdown poll: one decrement per step instead of re-deriving the
    // next poll point from instret_.
    u64 countdown = stride;
    while (running_) {
        if (cancel && --countdown == 0) {
            if (cancel()) return false;
            countdown = stride;
        }
        if (instret_ >= cfg_.fuel) {
            out = Trap{TrapKind::FuelExhausted, 0, pc_};
            running_ = false;
            break;
        }
        if (const Trap trap = retire_one(); trap.kind != TrapKind::None) {
            out = trap;
            break;
        }
    }
    return true;
}

template <bool Hooked>
bool Machine::dispatch(const std::function<bool()>& cancel, u64 stride,
                       u64 stop, Trap& out)
{
    // Cancellation polls move to block boundaries — every >= stride
    // retired instructions — which cannot change simulated results (a
    // poll that does not fire has no architectural effect).
    auto& sc = sbcache<Hooked>();
    if (!sc) sc = std::make_unique<SuperblockCache>();
    const bool finished = run_superblocks<Hooked>(
        *this, cancel ? &cancel : nullptr, stride, stop, out);
    // An instruction that traps inside a block leaves pc_ and
    // last_load_rd_ as the block found them; step() leaves its own pc
    // and clears last_load_rd_ before executing it. Only a fetch fault
    // has no instruction (its pc lies outside the text), and there both
    // tiers keep both.
    if (!running_ && out.kind != TrapKind::None &&
        out.kind != TrapKind::FuelExhausted &&
        out.pc - text_base_ < code_bytes_ && (out.pc & 3) == 0) {
        pc_ = out.pc;
        last_load_rd_ = Reg::zero;
    }
    return finished;
}

bool Machine::run_hook_free(const std::function<bool()>& cancel, u64 stride,
                            Trap& out)
{
    // Periodic fast-forward (sim/period.hpp): each segment stops at the
    // detector's next checkpoint. Only probe-hooked dispatcher runs
    // keep track of whether the state is the golden run's.
    prefix_golden_ = false;
    PeriodDetector period{*this};
    while (running_) {
        const u64 stop = std::min(cfg_.fuel, period.next_checkpoint());
        if (!dispatch<false>(cancel, stride, stop, out)) return false;
    }
    return true;
}

bool Machine::run_probe_hooked(const std::function<bool()>& cancel,
                               u64 stride, Trap& out)
{
    // No periodic fast-forward: the hook may perturb any later
    // instruction. Golden-prefix checkpoints (sim/checkpoint.hpp)
    // instead: once the store holds the golden run, a golden run jumps
    // ahead along it, and a run that a probe call took off it compares
    // itself with every stored checkpoint it reaches and rejoins it on
    // equality.
    if (!running_) return true;
    CheckpointStore& store = CheckpointStore::of(program_);
    const CheckpointKey key{cfg_, program_.layout()};
    if (!store.complete(key,
                        [&] { return record(store, key, cancel, stride); }))
        return false;
    // Skip ahead as far as no skipped instruction would have called
    // the hook (its quiet points and the latest reaches say where).
    const auto jump = [&] {
        const auto c = store.jump_target(*this, key);
        if (!c) return;
        restore(*c);
        if (!running_) out = c->trap;
    };
    if (prefix_golden_) jump();
    while (running_) {
        // Every stored checkpoint lies below the fuel.
        const auto next = store.next_above(key, instret_);
        const u64 stop = next ? next->counters.instret : cfg_.fuel;
        if (!dispatch<true>(cancel, stride, stop, out)) return false;
        if (!running_) break;
        if (!prefix_golden_) {
            if (!matches(*next)) continue;
            prefix_golden_ = true;
            ++dbt_stats_.rejoins;
        }
        jump();
    }
    return true;
}

bool Machine::record(CheckpointStore& store, const CheckpointKey& key,
                     const std::function<bool()>& cancel, u64 stride)
{
    // No hook: every point is quiet, and the probe sites still note
    // their reaches. The golden Machine borrows this Machine's
    // probe-hooked block cache (superblocks depend only on the text and
    // the config), so that it neither translates nor holds a second one.
    Machine golden{program_, cfg_};
    if (const auto c = store.jump_target(golden, key)) golden.restore(*c);
    golden.sbcache_hooked_ = std::move(sbcache_hooked_);
    Trap end{};
    bool finished;
    do {
        const u64 at = (golden.instret_ / CheckpointStore::kSpacing + 1) *
                       CheckpointStore::kSpacing;
        finished = golden.dispatch<true>(cancel, stride,
                                         std::min(at, cfg_.fuel), end);
    } while (finished && store.record(golden, key, end) && golden.running_);
    sbcache_hooked_ = std::move(golden.sbcache_hooked_);
    // The recording's translation and dispatch work is this run's host
    // cost; its jump to a stored checkpoint is not one of this run's.
    const DbtStats& g = golden.dbt_stats_;
    dbt_stats_.blocks += g.blocks;
    dbt_stats_.translated_ops += g.translated_ops;
    dbt_stats_.block_execs += g.block_execs;
    dbt_stats_.chained += g.chained;
    dbt_stats_.jalr_hits += g.jalr_hits;
    dbt_stats_.jalr_misses += g.jalr_misses;
    return finished;
}

namespace {

/// Applies `f` to each pair of matching fields of `a` and `b`: the one
/// list of Counters' fields.
template <class F>
void zip_counters(Counters& a, const Counters& b, F f)
{
    f(a.cycles, b.cycles);
    f(a.instret, b.instret);
    f(a.mix.alu, b.mix.alu);
    f(a.mix.loads, b.mix.loads);
    f(a.mix.stores, b.mix.stores);
    f(a.mix.checked_loads, b.mix.checked_loads);
    f(a.mix.checked_stores, b.mix.checked_stores);
    f(a.mix.meta_moves, b.mix.meta_moves);
    f(a.mix.binds, b.mix.binds);
    f(a.mix.tchk, b.mix.tchk);
    f(a.mix.branches, b.mix.branches);
    f(a.mix.jumps, b.mix.jumps);
    f(a.mix.ecalls, b.mix.ecalls);
    f(a.mix.other, b.mix.other);
    f(a.dcache.accesses, b.dcache.accesses);
    f(a.dcache.misses, b.dcache.misses);
    f(a.icache.accesses, b.icache.accesses);
    f(a.icache.misses, b.icache.misses);
    f(a.keybuffer.lookups, b.keybuffer.lookups);
    f(a.keybuffer.hits, b.keybuffer.hits);
    f(a.keybuffer.flushes, b.keybuffer.flushes);
    f(a.scu.checks, b.scu.checks);
    f(a.scu.violations, b.scu.violations);
    f(a.scu.saturated, b.scu.saturated);
    f(a.tcu.checks, b.tcu.checks);
    f(a.tcu.violations, b.tcu.violations);
    f(a.tcu.saturated, b.tcu.saturated);
    f(a.smac_translations, b.smac_translations);
}

} // namespace

Counters Counters::operator-(const Counters& o) const
{
    Counters d = *this;
    zip_counters(d, o, [](u64& x, u64 y) { x -= y; });
    return d;
}

void Counters::add_scaled(const Counters& delta, u64 k)
{
    zip_counters(*this, delta, [k](u64& x, u64 y) { x += k * y; });
}

Counters Machine::counters() const
{
    return Counters{cycles_,
                    instret_,
                    mix_,
                    dcache_.stats(),
                    icache_.stats(),
                    keybuffer_.stats(),
                    scu_.stats(),
                    tcu_.stats(),
                    smac_.translations()};
}

void Machine::set_counters(const Counters& c)
{
    cycles_ = c.cycles;
    instret_ = c.instret;
    mix_ = c.mix;
    dcache_.set_stats(c.dcache);
    icache_.set_stats(c.icache);
    keybuffer_.set_stats(c.keybuffer);
    scu_.set_stats(c.scu);
    tcu_.set_stats(c.tcu);
    smac_.set_translations(c.smac_translations);
}

bool Machine::matches(const Checkpoint& c) const
{
    // Cheapest first: a run that still carries its fault mostly differs
    // in a register or a counter already. The pages come last.
    const State& s = c.state;
    if (pc_ != s.pc || regs_ != s.regs) return false;
    Counters mine = counters();
    bool same = true;
    zip_counters(mine, c.counters,
                 [&same](u64& x, u64 y) { same = same && x == y; });
    return same && output_ == c.output && srf_.entries() == s.srf &&
           csrs_.registers() == s.csrs && running_ == s.running &&
           exit_code_ == s.exit_code && last_load_rd_ == s.last_load_rd &&
           keybuffer_.ranked_slots() == s.keybuffer &&
           dcache_.holds(s.dcache) && icache_.holds(s.icache) &&
           *heap_ == *s.heap && *locks_ == *s.locks &&
           quarantine_ == s.quarantine &&
           quarantine_used_ == s.quarantine_used &&
           mem_.holds(s.regions, c.pages);
}

State Machine::state() const
{
    State s = state_except_pages(nullptr);
    s.pages = mem_.page_image();
    return s;
}

State Machine::state_except_pages(const State* share) const
{
    return State{pc_,
                 regs_,
                 srf_.entries(),
                 csrs_.registers(),
                 running_,
                 exit_code_,
                 last_load_rd_,
                 keybuffer_.ranked_slots(),
                 dcache_.snapshot(),
                 icache_.snapshot(),
                 common::Shared<mem::HeapAllocator>::reuse(
                     share ? &share->heap : nullptr, *heap_),
                 common::Shared<mem::LockAllocator>::reuse(
                     share ? &share->locks : nullptr, *locks_),
                 quarantine_,
                 quarantine_used_,
                 mem_.regions(),
                 {},
                 output_.size()};
}

void Machine::restore(const Checkpoint& c)
{
    dbt_stats_.restored_instret += c.counters.instret - instret_;
    ++dbt_stats_.prefix_restores;
    const State& s = c.state;
    pc_ = s.pc;
    regs_ = s.regs;
    srf_.restore(s.srf);
    csrs_.restore(s.csrs);
    running_ = s.running;
    exit_code_ = s.exit_code;
    last_load_rd_ = s.last_load_rd;
    keybuffer_.restore(s.keybuffer);
    dcache_.restore(s.dcache);
    icache_.restore(s.icache);
    fetch_pc_ = kNoFetch;
    *heap_ = *s.heap;
    *locks_ = *s.locks;
    quarantine_ = s.quarantine;
    quarantine_used_ = s.quarantine_used;
    mem_.restore(s.regions, c.pages); // drops the translation cache
    output_ = c.output;
    set_counters(c.counters);
    last_reach_ = c.last_reach;
    // Host caches derived from simulated state: the compression memo
    // (and the translation cache, dropped above). Superblocks depend
    // only on the text.
    comp_version_ = ~u64{0};
    comp_memo_key_.version = ~u64{0};
    // Unknown whether the prefix read the counters: assume it did (a
    // later periodic fast-forward then restarts its proof).
    counters_read_ = true;
}

std::optional<ExecTier> env_tier()
{
    // Vocabulary index == ExecTier value.
    const auto t = common::env_choice("HWST_TIER", {"auto", "interp", "dbt"});
    if (!t) return std::nullopt;
    return static_cast<ExecTier>(*t);
}

} // namespace hwst::sim
