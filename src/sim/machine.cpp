#include "sim/machine.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <utility>

#include "common/env.hpp"
#include "common/error.hpp"
#include "riscv/encoding.hpp"
#include "sim/dispatch.hpp"
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

using common::i32;

u64 sext32(u64 v) { return static_cast<u64>(static_cast<i64>(static_cast<i32>(v))); }

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

/// InstrMix counter for `op` — the predecoded form of the old
/// per-step classify() switch (same mapping, applied once per static
/// instruction at construction instead of once per retired one).
u64 sim::InstrMix::* mix_bucket(Opcode op)
{
    using Mix = sim::InstrMix;
    switch (op) {
    case Opcode::CLB: case Opcode::CLH: case Opcode::CLW: case Opcode::CLD:
    case Opcode::CLBU: case Opcode::CLHU: case Opcode::CLWU:
        return &Mix::checked_loads;
    case Opcode::CSB: case Opcode::CSH: case Opcode::CSW: case Opcode::CSD:
        return &Mix::checked_stores;
    case Opcode::SBDL: case Opcode::SBDU: case Opcode::LBDLS:
    case Opcode::LBDUS: case Opcode::LBAS: case Opcode::LBND:
    case Opcode::LKEY: case Opcode::LLOC:
        return &Mix::meta_moves;
    case Opcode::BNDRS: case Opcode::BNDRT:
        return &Mix::binds;
    case Opcode::TCHK:
        return &Mix::tchk;
    case Opcode::JAL: case Opcode::JALR:
        return &Mix::jumps;
    case Opcode::ECALL:
        return &Mix::ecalls;
    default:
        break;
    }
    if (riscv::is_load(op)) return &Mix::loads;
    if (riscv::is_store(op)) return &Mix::stores;
    if (riscv::is_branch(op)) return &Mix::branches;
    if (op == Opcode::KBFLUSH || op == Opcode::SRFMV ||
        op == Opcode::SRFCLR || op == Opcode::FENCE ||
        op == Opcode::EBREAK)
        return &Mix::other;
    return &Mix::alu;
}

} // namespace

Machine::Machine(const riscv::Program& program, MachineConfig cfg)
    : program_{program},
      cfg_{cfg},
      dcache_{cfg.dcache},
      icache_{cfg.icache},
      keybuffer_{cfg.keybuffer_entries}
{
    const auto& lay = program.layout();

    // Predecode: lower the instruction stream into the uop side table
    // so the per-step format/classify work disappears from the hot
    // loop (docs/performance.md).
    text_base_ = lay.text_base;
    code_bytes_ = program.code().size() * 4;
    uops_.reserve(program.code().size());
    for (const riscv::Instruction& in : program.code()) {
        const Format fmt = riscv::op_format(in.op);
        uops_.push_back(Uop{in, fmt, reads_rs1(fmt), reads_rs2(fmt),
                            riscv::is_load(in.op), mix_bucket(in.op)});
    }

    // Process address-space map.
    const u64 text_size =
        common::align_up(std::max<u64>(program.code().size() * 4, 4), 4096);
    const u64 data_size = common::align_up(program.data().size() + 4096, 4096);
    mem_.map_region("text", lay.text_base, text_size);
    mem_.map_region("data", lay.data_base, data_size);
    mem_.map_region("heap", lay.heap_base, lay.heap_size);
    mem_.map_region("stack", lay.stack_top - lay.stack_size, lay.stack_size);
    mem_.map_region("lock", lay.lock_base, lay.lock_entries * 8);
    mem_.map_region("swss", lay.sw_arg_base, lay.sw_arg_size);
    // Shadow spaces cover the <<2 image of everything below stack_top.
    mem_.map_region("lmsm", lay.shadow_offset, lay.stack_top << 2);
    mem_.map_region("swmeta", lay.sw_meta_offset, lay.stack_top << 2);
    mem_.map_region("swl2", lay.sw_l2_offset,
                    lay.sw_l1_entries() * lay.sw_l2_bytes_per_entry());
    mem_.map_region("asan", lay.asan_shadow_offset, lay.stack_top >> 3);

    if (cfg_.runtime.init_sw_trie) {
        for (u64 i = 0; i < lay.sw_l1_entries(); ++i) {
            mem_.store_u64(lay.sw_meta_offset + 8 * i,
                           lay.sw_l2_offset +
                               i * lay.sw_l2_bytes_per_entry());
        }
    }

    // Load text (encoded, for fidelity) and data.
    std::vector<u8> text(program.code().size() * 4);
    for (std::size_t i = 0; i < program.code().size(); ++i) {
        const u32 word = riscv::encode(program.code()[i]);
        std::memcpy(text.data() + 4 * i, &word, 4);
    }
    mem_.write_bytes(lay.text_base, text);
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

    // Translated-block invalidation: any remap drops every superblock.
    // Registered after the address-space map above (sbcache_ does not
    // exist yet, so those initial map_region calls cost nothing), and
    // deferred while the dispatcher is on-stack.
    mem_.set_invalidation_hook([this] {
        if (!sbcache_) return;
        if (in_dispatch_) sbcache_->request_flush();
        else sbcache_->flush(dbt_stats_);
    });
}

unsigned Machine::dcache_extra(u64 addr)
{
    return dcache_.access(addr) - cfg_.dcache.hit_cycles;
}

u64 Machine::mem_load(u64 addr, unsigned width, bool sign_extend)
{
    cycles_ += dcache_extra(addr);
    u64 value = mem_.load(addr, width, sign_extend);
    // Fill data is the one datapath HWST metadata does not cover (the
    // paper leaves data integrity to ECC); expose it as its own probe.
    if (probe_hook_ && dcache_.last_access_missed())
        value = probe_hook_(Probe::DcacheFillData, instret_, value);
    return value;
}

void Machine::mem_store(u64 addr, unsigned width, u64 value)
{
    cycles_ += dcache_extra(addr);
    // Keybuffer coherence: a key *erasure* (store of 0 into the lock
    // region — what frees do) clears the keybuffer (paper §3.5).
    // Non-zero writes mint fresh keys, which cannot be cached yet.
    const auto& lay = program_.layout();
    if (value == 0 && addr >= lay.lock_base &&
        addr < lay.lock_base + lay.lock_entries * 8) {
        keybuffer_.flush();
    }
    mem_.store(addr, width, value);
}

Machine::ActiveCompression Machine::active_compression()
{
    // Memoized against the CSR file's version counter: the decode +
    // validate work only reruns after a CSR write. A probe hook
    // bypasses the memo entirely — it must observe (and may perturb)
    // every single invocation.
    if (!probe_hook_ && comp_version_ == csrs_.version()) return comp_memo_;
    const u64 bitw = probe(Probe::CompCsrWidths,
                           csrs_.read(hwst::kCsrBitw).value_or(0));
    auto cfg = metadata::CompressionConfig::from_csr(
        static_cast<u32>(bitw) & 0xFFFFFF,
        csrs_.read(hwst::kCsrLockBase).value_or(0));
    bool valid = true;
    try {
        cfg.validate();
    } catch (const common::ConfigError&) {
        valid = false;
    }
    if (!probe_hook_) {
        comp_memo_ = ActiveCompression{cfg, valid};
        comp_version_ = csrs_.version();
    }
    return ActiveCompression{cfg, valid};
}

std::optional<Trap> Machine::spatial_check(Reg ptr_reg, u64 addr,
                                           unsigned width)
{
    if (!csrs_.spatial_enabled()) return std::nullopt;
    const auto& entry = srf_.entry(ptr_reg);
    // No (or cleared) spatial metadata: the access is unchecked, exactly
    // like SoftBound pointers whose provenance the analysis lost.
    if (!entry.valid_lo || entry.value.lo == 0) return std::nullopt;
    const ActiveCompression ac = active_compression();
    if (!ac.valid) {
        csrs_.record_violation(static_cast<u64>(TrapKind::IllegalInstruction),
                               hwst::kCsrBitw);
        return Trap{TrapKind::IllegalInstruction, hwst::kCsrBitw, pc_};
    }
    if (metadata::is_saturated_spatial(entry.value.lo, ac.cfg)) {
        scu_.note_saturated();
        csrs_.record_violation(static_cast<u64>(TrapKind::SpatialViolation),
                               addr);
        return Trap{TrapKind::SpatialViolation, addr, pc_};
    }
    u64 base = 0, bound = 0;
    metadata::decompress_spatial(entry.value.lo, ac.cfg, base, bound);
    if (scu_.check(addr, width, base, bound).pass) return std::nullopt;
    csrs_.record_violation(static_cast<u64>(TrapKind::SpatialViolation), addr);
    return Trap{TrapKind::SpatialViolation, addr, pc_};
}

Trap Machine::step()
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
    ++cycles_;
    if (cfg_.icache_enabled)
        cycles_ += icache_.access(pc_) - cfg_.icache.hit_cycles;
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
    srf_effects(in, uop.fmt);
    pc_ = next_pc;
    return Trap{};
}

Trap Machine::exec(const Instruction& in, u64& next_pc)
{
    const u64 rs1 = reg(in.rs1);
    const u64 rs2 = reg(in.rs2);
    const u64 imm = static_cast<u64>(in.imm);
    const auto& t = cfg_.timing;

    switch (in.op) {
    // ---- RV64I arithmetic ------------------------------------------
    case Opcode::LUI: set_reg(in.rd, imm); break;
    case Opcode::AUIPC: set_reg(in.rd, pc_ + imm); break;
    case Opcode::ADDI: set_reg(in.rd, rs1 + imm); break;
    case Opcode::SLTI:
        set_reg(in.rd, static_cast<i64>(rs1) < in.imm ? 1 : 0);
        break;
    case Opcode::SLTIU: set_reg(in.rd, rs1 < imm ? 1 : 0); break;
    case Opcode::XORI: set_reg(in.rd, rs1 ^ imm); break;
    case Opcode::ORI: set_reg(in.rd, rs1 | imm); break;
    case Opcode::ANDI: set_reg(in.rd, rs1 & imm); break;
    case Opcode::SLLI: set_reg(in.rd, rs1 << (imm & 63)); break;
    case Opcode::SRLI: set_reg(in.rd, rs1 >> (imm & 63)); break;
    case Opcode::SRAI:
        set_reg(in.rd, static_cast<u64>(static_cast<i64>(rs1) >> (imm & 63)));
        break;
    case Opcode::ADD: set_reg(in.rd, rs1 + rs2); break;
    case Opcode::SUB: set_reg(in.rd, rs1 - rs2); break;
    case Opcode::SLL: set_reg(in.rd, rs1 << (rs2 & 63)); break;
    case Opcode::SLT:
        set_reg(in.rd,
                static_cast<i64>(rs1) < static_cast<i64>(rs2) ? 1 : 0);
        break;
    case Opcode::SLTU: set_reg(in.rd, rs1 < rs2 ? 1 : 0); break;
    case Opcode::XOR: set_reg(in.rd, rs1 ^ rs2); break;
    case Opcode::SRL: set_reg(in.rd, rs1 >> (rs2 & 63)); break;
    case Opcode::SRA:
        set_reg(in.rd,
                static_cast<u64>(static_cast<i64>(rs1) >> (rs2 & 63)));
        break;
    case Opcode::OR: set_reg(in.rd, rs1 | rs2); break;
    case Opcode::AND: set_reg(in.rd, rs1 & rs2); break;
    case Opcode::ADDIW: set_reg(in.rd, sext32(rs1 + imm)); break;
    case Opcode::SLLIW: set_reg(in.rd, sext32(rs1 << (imm & 31))); break;
    case Opcode::SRLIW:
        set_reg(in.rd, sext32(static_cast<u32>(rs1) >> (imm & 31)));
        break;
    case Opcode::SRAIW:
        set_reg(in.rd,
                sext32(static_cast<u64>(static_cast<i32>(rs1) >>
                                        (imm & 31))));
        break;
    case Opcode::ADDW: set_reg(in.rd, sext32(rs1 + rs2)); break;
    case Opcode::SUBW: set_reg(in.rd, sext32(rs1 - rs2)); break;
    case Opcode::SLLW: set_reg(in.rd, sext32(rs1 << (rs2 & 31))); break;
    case Opcode::SRLW:
        set_reg(in.rd, sext32(static_cast<u32>(rs1) >> (rs2 & 31)));
        break;
    case Opcode::SRAW:
        set_reg(in.rd,
                sext32(static_cast<u64>(static_cast<i32>(rs1) >>
                                        (rs2 & 31))));
        break;

    // ---- RV64M --------------------------------------------------------
    case Opcode::MUL:
        cycles_ += t.mul_extra;
        set_reg(in.rd, rs1 * rs2);
        break;
    case Opcode::MULH:
        cycles_ += t.mul_extra;
        set_reg(in.rd,
                static_cast<u64>((static_cast<__int128>(static_cast<i64>(rs1)) *
                                  static_cast<i64>(rs2)) >>
                                 64));
        break;
    case Opcode::MULHSU:
        cycles_ += t.mul_extra;
        set_reg(in.rd,
                static_cast<u64>((static_cast<__int128>(static_cast<i64>(rs1)) *
                                  static_cast<unsigned __int128>(rs2)) >>
                                 64));
        break;
    case Opcode::MULHU:
        cycles_ += t.mul_extra;
        set_reg(in.rd,
                static_cast<u64>((static_cast<unsigned __int128>(rs1) *
                                  static_cast<unsigned __int128>(rs2)) >>
                                 64));
        break;
    case Opcode::DIV: {
        cycles_ += t.div_extra;
        const i64 a = static_cast<i64>(rs1), b = static_cast<i64>(rs2);
        if (b == 0) set_reg(in.rd, ~u64{0});
        else if (a == std::numeric_limits<i64>::min() && b == -1)
            set_reg(in.rd, rs1);
        else set_reg(in.rd, static_cast<u64>(a / b));
        break;
    }
    case Opcode::DIVU:
        cycles_ += t.div_extra;
        set_reg(in.rd, rs2 == 0 ? ~u64{0} : rs1 / rs2);
        break;
    case Opcode::REM: {
        cycles_ += t.div_extra;
        const i64 a = static_cast<i64>(rs1), b = static_cast<i64>(rs2);
        if (b == 0) set_reg(in.rd, rs1);
        else if (a == std::numeric_limits<i64>::min() && b == -1)
            set_reg(in.rd, 0);
        else set_reg(in.rd, static_cast<u64>(a % b));
        break;
    }
    case Opcode::REMU:
        cycles_ += t.div_extra;
        set_reg(in.rd, rs2 == 0 ? rs1 : rs1 % rs2);
        break;
    case Opcode::MULW:
        cycles_ += t.mul_extra;
        set_reg(in.rd, sext32(rs1 * rs2));
        break;
    case Opcode::DIVW: {
        cycles_ += t.div_extra;
        const i32 a = static_cast<i32>(rs1), b = static_cast<i32>(rs2);
        if (b == 0) set_reg(in.rd, ~u64{0});
        else if (a == std::numeric_limits<i32>::min() && b == -1)
            set_reg(in.rd, sext32(static_cast<u64>(static_cast<u32>(a))));
        else set_reg(in.rd, sext32(static_cast<u64>(static_cast<u32>(a / b))));
        break;
    }
    case Opcode::DIVUW: {
        cycles_ += t.div_extra;
        const u32 a = static_cast<u32>(rs1), b = static_cast<u32>(rs2);
        set_reg(in.rd, b == 0 ? ~u64{0} : sext32(a / b));
        break;
    }
    case Opcode::REMW: {
        cycles_ += t.div_extra;
        const i32 a = static_cast<i32>(rs1), b = static_cast<i32>(rs2);
        if (b == 0) set_reg(in.rd, sext32(static_cast<u64>(static_cast<u32>(a))));
        else if (a == std::numeric_limits<i32>::min() && b == -1)
            set_reg(in.rd, 0);
        else set_reg(in.rd, sext32(static_cast<u64>(static_cast<u32>(a % b))));
        break;
    }
    case Opcode::REMUW: {
        cycles_ += t.div_extra;
        const u32 a = static_cast<u32>(rs1), b = static_cast<u32>(rs2);
        set_reg(in.rd, b == 0 ? sext32(a) : sext32(a % b));
        break;
    }

    // ---- control transfer ------------------------------------------
    case Opcode::JAL:
        set_reg(in.rd, pc_ + 4);
        next_pc = pc_ + imm;
        cycles_ += t.branch_taken_penalty;
        break;
    case Opcode::JALR:
        set_reg(in.rd, pc_ + 4);
        next_pc = (rs1 + imm) & ~u64{1};
        cycles_ += t.branch_taken_penalty;
        break;
    case Opcode::BEQ: case Opcode::BNE: case Opcode::BLT: case Opcode::BGE:
    case Opcode::BLTU: case Opcode::BGEU: {
        bool taken = false;
        switch (in.op) {
        case Opcode::BEQ: taken = rs1 == rs2; break;
        case Opcode::BNE: taken = rs1 != rs2; break;
        case Opcode::BLT:
            taken = static_cast<i64>(rs1) < static_cast<i64>(rs2);
            break;
        case Opcode::BGE:
            taken = static_cast<i64>(rs1) >= static_cast<i64>(rs2);
            break;
        case Opcode::BLTU: taken = rs1 < rs2; break;
        default: taken = rs1 >= rs2; break;
        }
        if (taken) {
            next_pc = pc_ + imm;
            cycles_ += t.branch_taken_penalty;
        }
        break;
    }

    // ---- memory --------------------------------------------------------
    case Opcode::LB: case Opcode::LH: case Opcode::LW: case Opcode::LD:
        set_reg(in.rd, mem_load(rs1 + imm, riscv::mem_width(in.op), true));
        break;
    case Opcode::LBU: case Opcode::LHU: case Opcode::LWU:
        set_reg(in.rd, mem_load(rs1 + imm, riscv::mem_width(in.op), false));
        break;
    case Opcode::SB: case Opcode::SH: case Opcode::SW: case Opcode::SD:
        mem_store(rs1 + imm, riscv::mem_width(in.op), rs2);
        break;

    // ---- system ---------------------------------------------------------
    case Opcode::FENCE: break;
    case Opcode::ECALL: return exec_ecall();
    case Opcode::EBREAK: return Trap{TrapKind::Breakpoint, 0, pc_};
    case Opcode::CSRRW: case Opcode::CSRRS: case Opcode::CSRRC:
    case Opcode::CSRRWI: case Opcode::CSRRSI: case Opcode::CSRRCI: {
        cycles_ += t.csr_extra;
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
        set_reg(in.rd, old);
        break;
    }

    default:
        return exec_hwst(in);
    }
    return Trap{};
}

Trap Machine::exec_hwst(const Instruction& in)
{
    const u64 rs1 = reg(in.rs1);
    const u64 sm_off = csrs_.sm_offset();

    // COMP/DECOMP cannot operate under perturbed-or-invalid field
    // widths; the op that needed them traps instead of computing
    // garbage.
    const auto bad_widths = [this] {
        csrs_.record_violation(static_cast<u64>(TrapKind::IllegalInstruction),
                               hwst::kCsrBitw);
        return Trap{TrapKind::IllegalInstruction, hwst::kCsrBitw, pc_};
    };

    switch (in.op) {
    case Opcode::BNDRS: {
        const ActiveCompression ac = active_compression();
        if (!ac.valid) return bad_widths();
        srf_.bind_spatial(
            in.rd, probe(Probe::SrfSpatialWrite,
                         metadata::compress_spatial(rs1, reg(in.rs2),
                                                    ac.cfg)));
        break;
    }
    case Opcode::BNDRT: {
        const ActiveCompression ac = active_compression();
        if (!ac.valid) return bad_widths();
        srf_.bind_temporal(
            in.rd, probe(Probe::SrfTemporalWrite,
                         metadata::compress_temporal(rs1, reg(in.rs2),
                                                     ac.cfg)));
        break;
    }

    case Opcode::SBDL: case Opcode::SBDU: {
        const auto& e = srf_.entry(in.rs2);
        const bool upper = in.op == Opcode::SBDU;
        const u64 addr = smac_.map(rs1 + static_cast<u64>(in.imm), sm_off) +
                         (upper ? hwst::Smac::upper_slot_offset() : 0);
        const u64 value =
            probe(Probe::LmsmStore, upper ? (e.valid_hi ? e.value.hi : 0)
                                          : (e.valid_lo ? e.value.lo : 0));
        cycles_ += dcache_extra(addr);
        mem_.store(addr, 8, value);
        break;
    }

    case Opcode::LBDLS: case Opcode::LBDUS: {
        const bool upper = in.op == Opcode::LBDUS;
        const u64 addr = smac_.map(rs1 + static_cast<u64>(in.imm), sm_off) +
                         (upper ? hwst::Smac::upper_slot_offset() : 0);
        const u64 value = probe(Probe::LmsmLoad, mem_load(addr, 8, false));
        if (upper) srf_.set_hi(in.rd, value, value != 0);
        else srf_.set_lo(in.rd, value, value != 0);
        break;
    }

    case Opcode::LBAS: case Opcode::LBND: {
        const ActiveCompression ac = active_compression();
        if (!ac.valid) return bad_widths();
        const u64 addr = smac_.map(rs1, sm_off);
        const u64 lo = probe(Probe::LmsmLoad, mem_load(addr, 8, false));
        if (metadata::is_saturated_spatial(lo, ac.cfg)) {
            scu_.note_saturated();
            csrs_.record_violation(
                static_cast<u64>(TrapKind::SpatialViolation), rs1);
            return Trap{TrapKind::SpatialViolation, rs1, pc_};
        }
        u64 base = 0, bound = 0;
        metadata::decompress_spatial(lo, ac.cfg, base, bound);
        set_reg(in.rd, in.op == Opcode::LBAS ? base : bound);
        break;
    }
    case Opcode::LKEY: case Opcode::LLOC: {
        const ActiveCompression ac = active_compression();
        if (!ac.valid) return bad_widths();
        const u64 addr = smac_.map(rs1, sm_off) +
                         hwst::Smac::upper_slot_offset();
        const u64 hi = probe(Probe::LmsmLoad, mem_load(addr, 8, false));
        if (metadata::is_saturated_temporal(hi, ac.cfg)) {
            tcu_.note_saturated();
            csrs_.record_violation(
                static_cast<u64>(TrapKind::TemporalViolation), rs1);
            return Trap{TrapKind::TemporalViolation, rs1, pc_};
        }
        u64 key = 0, lock = 0;
        metadata::decompress_temporal(hi, ac.cfg, key, lock);
        set_reg(in.rd, in.op == Opcode::LKEY ? key : lock);
        break;
    }

    case Opcode::TCHK: {
        if (!csrs_.temporal_enabled()) break;
        const auto& e = srf_.entry(in.rs1);
        if (!e.valid_hi || e.value.hi == 0) break; // no temporal metadata
        const ActiveCompression ac = active_compression();
        if (!ac.valid) return bad_widths();
        if (metadata::is_saturated_temporal(e.value.hi, ac.cfg)) {
            tcu_.note_saturated();
            csrs_.record_violation(
                static_cast<u64>(TrapKind::TemporalViolation), rs1);
            return Trap{TrapKind::TemporalViolation, rs1, pc_};
        }
        u64 key = 0, lock = 0;
        metadata::decompress_temporal(e.value.hi, ac.cfg, key, lock);
        // The temporal check needs a second memory access (load the key
        // from the lock_location). A keybuffer hit elides it entirely;
        // a miss pays the full D-cache access (paper §3.5).
        u64 mem_key = 0;
        if (!cfg_.keybuffer_enabled) {
            cycles_ += dcache_.access(lock);
            mem_key = mem_.load(lock, 8, false);
        } else if (const auto hit = keybuffer_.lookup(lock)) {
            mem_key = probe(Probe::KeybufferLookup, *hit);
        } else {
            cycles_ += dcache_.access(lock);
            mem_key = mem_.load(lock, 8, false);
            // A fill fault corrupts what the buffer caches; the check in
            // flight still compares the freshly loaded key, so the fault
            // surfaces on a later hit (nonzero detection latency).
            keybuffer_.insert(lock, probe(Probe::KeybufferFill, mem_key));
        }
        if (!tcu_.check(key, mem_key).pass) {
            csrs_.record_violation(
                static_cast<u64>(TrapKind::TemporalViolation), lock);
            return Trap{TrapKind::TemporalViolation, lock, pc_};
        }
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

    // ---- checked memory (SCU fused, paper Fig. 3) --------------------
    case Opcode::CLB: case Opcode::CLH: case Opcode::CLW: case Opcode::CLD:
    case Opcode::CLBU: case Opcode::CLHU: case Opcode::CLWU: {
        const u64 addr = rs1 + static_cast<u64>(in.imm);
        const unsigned width = riscv::mem_width(in.op);
        if (auto trap = spatial_check(in.rs1, addr, width)) return *trap;
        const bool sign = in.op == Opcode::CLB || in.op == Opcode::CLH ||
                          in.op == Opcode::CLW || in.op == Opcode::CLD;
        set_reg(in.rd, mem_load(addr, width, sign));
        break;
    }
    case Opcode::CSB: case Opcode::CSH: case Opcode::CSW: case Opcode::CSD: {
        const u64 addr = rs1 + static_cast<u64>(in.imm);
        const unsigned width = riscv::mem_width(in.op);
        if (auto trap = spatial_check(in.rs1, addr, width)) return *trap;
        mem_store(addr, width, reg(in.rs2));
        break;
    }

    default:
        return Trap{TrapKind::IllegalInstruction, 0, pc_};
    }
    return Trap{};
}

void Machine::srf_effects(const Instruction& in, Format fmt)
{
    // In-pipeline metadata propagation (paper Fig. 1-b): Hardbound-style
    // rules — a register move or pointer arithmetic carries the source's
    // shadow register to the destination with no instruction overhead.
    const auto any = [this](Reg r) {
        const auto& e = srf_.entry(r);
        return e.valid_lo || e.valid_hi;
    };

    switch (in.op) {
    case Opcode::ADDI:
        srf_.propagate(in.rd, in.rs1);
        break;
    case Opcode::ADD: {
        const bool a = any(in.rs1), b = any(in.rs2);
        if (a && !b) srf_.propagate(in.rd, in.rs1);
        else if (b && !a) srf_.propagate(in.rd, in.rs2);
        else srf_.clear(in.rd);
        break;
    }
    case Opcode::SUB:
        if (any(in.rs1) && !any(in.rs2)) srf_.propagate(in.rd, in.rs1);
        else srf_.clear(in.rd);
        break;

    // HWST metadata ops manage the SRF themselves.
    case Opcode::BNDRS: case Opcode::BNDRT: case Opcode::LBDLS:
    case Opcode::LBDUS: case Opcode::SRFMV: case Opcode::SRFCLR:
    case Opcode::SBDL: case Opcode::SBDU: case Opcode::TCHK:
    case Opcode::KBFLUSH:
        break;

    default:
        // Any other writer invalidates the destination's metadata.
        if (in.rd != Reg::zero) {
            if (fmt != Format::S && fmt != Format::B &&
                in.op != Opcode::ECALL && in.op != Opcode::EBREAK &&
                in.op != Opcode::FENCE) {
                srf_.clear(in.rd);
            }
        }
        break;
    }
}

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
    // Countdown poll: one decrement per step instead of re-deriving the
    // next poll point from instret_. Poll positions are unchanged
    // (every `stride` loop iterations), and an uncancelled run is
    // bit-identical either way.
    if (stride == 0) stride = 1;
    const bool dbt =
        tier_ != ExecTier::Interp && !interpreter_forced() && !trace_;
    // Periodic fast-forward (sim/period.hpp) only for runs that start
    // with no hook: a probe hook may perturb any later instruction.
    std::optional<PeriodDetector> period;
    if (!probe_hook_) period.emplace(*this);
    // True while the next instruction may run on the dispatcher: no
    // probe hook, or one that promised to be the identity for it.
    const auto quiet = [&] {
        return dbt && (!probe_hook_ || instret_ + 1 < probe_quiet_before_);
    };
    bool dispatched = false;
    bool fell_back = false;
    u64 countdown = stride;
    // One loop, two segment kinds: the dispatcher while the hook is
    // quiet, the interpreter while it is not. A probe-hooked run may
    // alternate several times (a one-shot fault re-quiets its hook once
    // it has fired).
    while (running_) {
        if (quiet()) {
            // Superblock tier (sim/dispatch.cpp) with the hook detached
            // (the guard reinstalls it on every exit, cancellation and
            // exceptions included), stopping one instruction short of
            // the first one the hook may perturb. Cancellation polls
            // move to block boundaries — every >= stride retired
            // instructions — which cannot change simulated results (a
            // poll that does not fire has no architectural effect).
            // A hook attached since the run started ends detection: the
            // detector's skips stop only at the fuel limit. Otherwise the
            // detector's next checkpoint is the stop.
            if (probe_hook_) period.reset();
            const u64 stop =
                probe_hook_ ? std::min(cfg_.fuel, probe_quiet_before_ - 1)
                : period    ? std::min(cfg_.fuel, period->next_checkpoint())
                            : cfg_.fuel;
            struct Detach {
                ProbeHook& slot;
                ProbeHook saved;
                explicit Detach(ProbeHook& s)
                    : slot{s}, saved{std::exchange(s, nullptr)}
                {
                }
                ~Detach() { slot = std::move(saved); }
            } detach{probe_hook_};
            if (!sbcache_) sbcache_ = std::make_unique<SuperblockCache>();
            in_dispatch_ = true;
            const bool finished = run_superblocks(
                *this, cancel ? &cancel : nullptr, stride, stop, result.trap);
            in_dispatch_ = false;
            if (!finished) return std::nullopt;
            dispatched = true;
            continue;
        }
        // Interpreter tier: per-instruction hooks installed (or the
        // tier pinned to interp outright, or a sentinel worker forcing
        // the reference tier). Counted once per run, however many
        // interpreter segments it has.
        if (!fell_back && tier_ != ExecTier::Interp) {
            fell_back = true;
            ++dbt_stats_.fallback_runs;
            if (interpreter_forced()) ++dbt_stats_.sentinel_degraded;
        }
        // The quiet point is re-read after every retired instruction:
        // the hook may re-declare it from inside a probe call.
        do {
            if (cancel && --countdown == 0) {
                if (cancel()) return std::nullopt;
                countdown = stride;
            }
            if (instret_ >= cfg_.fuel) {
                result.trap = Trap{TrapKind::FuelExhausted, 0, pc_};
                running_ = false;
                break;
            }
            const Trap trap = step();
            if (trap.kind != TrapKind::None) {
                result.trap = trap;
                break;
            }
        } while (running_ && !quiet());
    }
    // Test-only divergence seed for the DBT sentinel: nudge the
    // translated-tier cycle count once per finished run that used the
    // dispatcher, so a cross-check against the interpreter has
    // something to catch. Never set outside the sentinel tests.
    if (dispatched && common::env_flag("HWST_DBT_FAULT").value_or(false))
        ++cycles_;
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
    return result;
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

State Machine::state() const
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
                 *heap_,
                 *locks_,
                 quarantine_,
                 quarantine_used_,
                 mem_.regions(),
                 mem_.page_image(),
                 output_.size()};
}

std::optional<ExecTier> env_tier()
{
    // Vocabulary index == ExecTier value.
    const auto t = common::env_choice("HWST_TIER", {"auto", "interp", "dbt"});
    if (!t) return std::nullopt;
    return static_cast<ExecTier>(*t);
}

namespace {
std::atomic<bool> g_force_interpreter{false};
} // namespace

void force_interpreter(bool on)
{
    g_force_interpreter.store(on, std::memory_order_relaxed);
}

bool interpreter_forced()
{
    return g_force_interpreter.load(std::memory_order_relaxed);
}

} // namespace hwst::sim
