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
#include <string_view>
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

/// A label interned by a Program: an index into its label table.
/// Anonymous labels (`Program::new_label`) never build a string; named
/// ones (`Program::named_label`) are the entry points someone looks up
/// by name (`main`, `fn_<name>`, the `rt_*` runtime).
struct Label {
    u32 id = kNone;
    static constexpr u32 kNone = 0xFFFFFFFF;
};

class Program {
public:
    /// Reserve room for `n` instructions (a sizing hint for emit()).
    void reserve(std::size_t n) { code_.reserve(n); }

    /// Emit one instruction; returns its index in the code stream.
    std::size_t emit(const Instruction& in);

    /// A fresh anonymous label, unbound.
    Label new_label();

    /// The label called `name`, created unbound on first mention.
    Label named_label(std::string_view name);

    /// Define `l` at the current emission point; throws if it is
    /// already bound.
    void bind(Label l);

    /// Define `name` at the current emission point.
    void label(std::string_view name) { bind(named_label(name)); }

    /// True if `name` has been defined (used by lazy runtime emission).
    bool has_label(std::string_view name) const;

    // ---- label-relative emission (patched in finalize()) ------------
    void emit_branch(Opcode op, Reg rs1, Reg rs2, Label target);
    void emit_jal(Reg rd, Label target);
    void emit_call(Label target) { emit_jal(Reg::ra, target); }
    void emit_branch(Opcode op, Reg rs1, Reg rs2, std::string_view target)
    {
        emit_branch(op, rs1, rs2, named_label(target));
    }
    void emit_jal(Reg rd, std::string_view target)
    {
        emit_jal(rd, named_label(target));
    }
    void emit_call(std::string_view target) { emit_jal(Reg::ra, target); }
    void emit_ret() { emit(itype(Opcode::JALR, Reg::zero, Reg::ra, 0)); }

    /// Load-address of a label (text address), via auipc-free absolute
    /// materialisation (text addresses fit 32 bits in our layout).
    void emit_la_text(Reg rd, Label target);
    void emit_la_text(Reg rd, std::string_view target)
    {
        emit_la_text(rd, named_label(target));
    }

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

    std::size_t label_index(std::string_view name) const;
    u64 label_addr(std::string_view name) const
    {
        return text_addr(label_index(name));
    }

    /// Entry point: label "main" if defined, else instruction 0.
    u64 entry_addr() const;

    /// Full listing with labels, for debugging and the examples.
    /// Anonymous labels print as `.L<id>`.
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
    enum class FixupKind : u8 { Branch, Jal, LaText };

    struct Fixup {
        u32 index;
        u32 label;
        FixupKind kind;
    };

    /// Hashes a std::string key by its string_view, so lookups by
    /// string_view build no string.
    struct NameHash {
        using is_transparent = void;
        std::size_t operator()(std::string_view s) const
        {
            return std::hash<std::string_view>{}(s);
        }
    };

    static constexpr u32 kUnbound = 0xFFFFFFFF;

    /// `name` for a named label, `.L<id>` for an anonymous one.
    std::string label_name(u32 id) const;

    std::vector<Instruction> code_;
    std::vector<u8> data_;
    std::vector<u32> label_pos_; ///< label id -> code index (kUnbound)
    std::unordered_map<std::string, u32, NameHash, std::equal_to<>> names_;
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
