// Program: an assembled unit of RV64+HWST code with label resolution and
// a data segment. This is the object the compiler's codegen emits into
// and the Machine loads. It plays the role of the ELF the paper's LLVM
// toolchain produces.
#pragma once

#include <cstddef>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "riscv/instr.hpp"

namespace hwst::sim {
class CheckpointStore; // sim/checkpoint.hpp
} // namespace hwst::sim

namespace hwst::riscv {

/// Default memory map of the simulated process (see DESIGN.md §3).
/// .text at 64 KiB; globals/heap/stack in the low 2^38 user region so
/// compressed 35-bit bases cover every pointer (paper Fig. 2 sizing).
struct MemoryLayout {
    u64 text_base = 0x0000'0000'0001'0000;
    u64 data_base = 0x0000'0000'0010'0000;
    u64 heap_base = 0x0000'0000'0100'0000;
    u64 heap_size = 0x0000'0000'0800'0000; // 128 MiB of simulated heap
    u64 stack_top = 0x0000'0000'3000'0000; // grows down
    u64 stack_size = 0x0000'0000'0040'0000; // 4 MiB
    /// Shadow memory offset loaded into csr.sm.offset (Eq. 1). The `<<2`
    /// linear map of the sub-2^30 user region lands below this offset's
    /// 2^38 + slack ceiling, keeping S.Mem disjoint from user memory.
    u64 shadow_offset = 0x0000'0040'0000'0000;
    /// lock_location region (paper §3.4: pre-allocated; embedded
    /// workloads may map it over the shadow of .text instead).
    u64 lock_base = 0x0000'0000'4000'0000;
    u64 lock_entries = 1u << 20; // one million locks (paper §3.3)
    /// SBCETS shadow argument stack (metadata of pointer args/returns
    /// across calls; tp points at its top and grows down).
    u64 sw_arg_base = 0x0000'0000'3800'0000;
    u64 sw_arg_size = 0x0000'0000'0010'0000; // 1 MiB
    /// Software (SBCETS) metadata space. The software scheme uses a
    /// two-level trie (paper §2: the software baseline's disjoint
    /// shadow is a trie; only the hardware gets the LMSM):
    /// L1[addr >> 22] -> L2 table; L2 holds one 32-byte record per
    /// 8-byte container. The runtime (proxy kernel) pre-populates L1.
    /// The BOGO model instead uses a linear `<<2` map from this same
    /// offset (MPX's bound-table walk is hardware).
    u64 sw_meta_offset = 0x0000'0080'0000'0000; ///< L1 base / linear base
    u64 sw_l2_offset = 0x0000'00A0'0000'0000;   ///< L2 tables, 16 MiB each
    u64 sw_l1_entries() const { return stack_top >> 22; }
    u64 sw_l2_bytes_per_entry() const { return u64{1} << 24; }
    /// ASAN-model shadow bytes (1 byte per 8 user bytes).
    u64 asan_shadow_offset = 0x0000'0100'0000'0000;

    bool operator==(const MemoryLayout&) const = default;
};

class Program {
public:
    /// Emit one instruction; returns its index in the code stream.
    std::size_t emit(const Instruction& in);

    /// Define `name` at the current emission point.
    void label(const std::string& name);

    /// True if `name` has been defined (used by lazy runtime emission).
    bool has_label(const std::string& name) const
    {
        return labels_.contains(name);
    }

    // ---- label-relative emission (patched in finalize()) ------------
    void emit_branch(Opcode op, Reg rs1, Reg rs2, const std::string& target);
    void emit_jal(Reg rd, const std::string& target);
    void emit_call(const std::string& target) { emit_jal(Reg::ra, target); }
    void emit_ret() { emit(itype(Opcode::JALR, Reg::zero, Reg::ra, 0)); }

    /// Load-address of a label (text address), via auipc-free absolute
    /// materialisation (text addresses fit 32 bits in our layout).
    void emit_la_text(Reg rd, const std::string& target);

    /// Materialise an arbitrary 64-bit constant.
    void emit_li(Reg rd, i64 value);

    // ---- data segment ------------------------------------------------
    /// Append `bytes` (aligned) to the data segment; returns its address.
    /// Throws after finalize(), like emit() and label().
    u64 add_data(std::span<const u8> bytes, unsigned align = 8);

    /// Reserve `size` zeroed bytes; returns the address. Throws after
    /// finalize().
    u64 add_bss(u64 size, unsigned align = 8);

    /// Resolve all fixups. Throws on undefined labels. Idempotent. A
    /// finalized Program's code and data never change again.
    void finalize();

    // ---- accessors ----------------------------------------------------
    std::span<const Instruction> code() const { return code_; }
    std::span<const u8> data() const { return data_; }
    const MemoryLayout& layout() const { return layout_; }
    MemoryLayout& layout() { return layout_; }

    u64 text_addr(std::size_t index) const
    {
        return layout_.text_base + 4 * index;
    }

    std::size_t label_index(const std::string& name) const;
    u64 label_addr(const std::string& name) const
    {
        return text_addr(label_index(name));
    }

    /// Entry point: label "main" if defined, else instruction 0.
    u64 entry_addr() const;

    /// Full listing with labels, for debugging and the examples.
    std::string listing() const;

    /// The golden-prefix checkpoint store (sim/checkpoint.hpp) that every
    /// Machine built from this object shares: host-side only, created
    /// by `make` on first use, thread-safe. A copy or assignment of a
    /// Program starts with an empty slot.
    template <class Make>
    sim::CheckpointStore& checkpoint_store(Make make) const
    {
        const std::lock_guard lock{store_.mu};
        if (!store_.store) store_.store = make();
        return *store_.store;
    }

private:
    enum class FixupKind { Branch, Jal, LaText };

    struct Fixup {
        std::size_t index;
        std::string label;
        FixupKind kind;
    };

    std::vector<Instruction> code_;
    std::vector<u8> data_;
    std::unordered_map<std::string, std::size_t> labels_;
    std::vector<Fixup> fixups_;
    MemoryLayout layout_{};
    bool finalized_ = false;

    struct StoreSlot {
        StoreSlot() = default;
        StoreSlot(const StoreSlot&) noexcept {}
        StoreSlot& operator=(const StoreSlot&) noexcept
        {
            store.reset();
            return *this;
        }
        std::mutex mu;
        std::shared_ptr<sim::CheckpointStore> store;
    };
    mutable StoreSlot store_;
};

} // namespace hwst::riscv
