// SafetyEmitter: the per-scheme instrumentation interface.
//
// Codegen lowers the IR and calls the emitter at every point the paper's
// instrumentation touches (§3.2/3.4): metadata creation+binding, in-
// pipeline vs through-memory propagation, dereference checks, call/ret
// metadata transfer, allocation/deallocation wrappers, and runtime
// library routines (memcpy/memset). Each scheme implements these hooks
// with real emitted instructions, so the cycle costs in Fig. 4/5 come
// out of the instruction stream, not out of fudge factors.
//
// Register contract inside hooks: t0..t2 and a0..a7 are codegen-owned
// and must be preserved unless the hook's doc says otherwise; t3..t6
// are emitter scratch.
#pragma once

#include <vector>

#include "common/error.hpp"
#include "compiler/analysis.hpp"
#include "compiler/scheme.hpp"
#include "mir/ir.hpp"
#include "riscv/program.hpp"
#include "sim/machine.hpp"
#include "sim/syscalls.hpp"

namespace hwst::compiler {

using common::i64;
using common::u32;
using common::u64;
using mir::Value;
using riscv::Opcode;
using riscv::Reg;

/// Stack frame layout of the function being lowered (offsets from s0).
struct FrameInfo {
    i64 size = 0;
    i64 frame_lock_off = -1;        ///< 16 B: lock addr @0, key @8 (-1 = none)
    /// 16 B scratch used by software schemes to "home" intermediate
    /// check values like -O0 homes user values (-1 = none). The paper's
    /// SBCETS is IR-level instrumentation compiled at -O0, so its check
    /// code pays the same spill/reload tax as user code.
    i64 emitter_scratch_off = -1;
    i64 canary_off = -1;            ///< 8 B canary slot (Gcc scheme)
    std::vector<i64> param_slot;    ///< param index -> home slot
    std::vector<i64> param_group;   ///< param index -> 32 B group (-1 = none)
    std::vector<i64> value_slot;    ///< value id -> home slot
    std::vector<i64> group_off;     ///< root id -> 32 B group (-1 = none)
    std::vector<i64> alloca_off;    ///< alloca index -> offset
    i64 alloca_region_off = 0;      ///< start of the alloca area
    i64 alloca_region_size = 0;

    /// Home slot of `v`; throws for a value this frame does not hold.
    i64 slot(Value v) const
    {
        if (v.id >= value_slot.size())
            throw common::ToolchainError{"codegen: value without home slot"};
        return value_slot[v.id];
    }
};

class SafetyEmitter;

/// Codegen context handed to emitter hooks: emission helpers plus all
/// per-function tables. Owned by Codegen.
class Ctx {
public:
    Ctx(riscv::Program& prog, const mir::Module& module,
        const riscv::MemoryLayout& layout)
        : prog_{prog}, module_{module}, layout_{layout}
    {
    }

    riscv::Program& prog() { return prog_; }
    const mir::Module& module() const { return module_; }
    const riscv::MemoryLayout& layout() const { return layout_; }

    // Per-function state (set by Codegen before lowering a function).
    const mir::Function* fn = nullptr;
    const FunctionPointerFacts* facts = nullptr;
    const FrameInfo* frame = nullptr;
    /// Addresses of module globals (global index -> data address).
    const std::vector<u64>* global_addr = nullptr;
    /// Sizes of module globals.
    const std::vector<u64>* global_size = nullptr;

    // ---- emission helpers --------------------------------------------
    void emit(const riscv::Instruction& in) { prog_.emit(in); }
    void li(Reg rd, i64 v) { prog_.emit_li(rd, v); }

    /// dst = s0 + off (handles offsets beyond imm12).
    void frame_addr(Reg dst, i64 off);

    /// Load/store a frame slot; store_slot uses `scratch` if the offset
    /// does not fit imm12.
    void load_slot(Reg dst, i64 off);
    void store_slot(Reg src, i64 off, Reg scratch = Reg::t6);

    /// Unique local label.
    riscv::Label fresh_label() { return prog_.new_label(); }

    /// li a7, nr; ecall.
    void ecall(sim::Sys nr);

    /// -O0 value homing: spill `r` to the emitter scratch slot and
    /// reload it, mimicking how -O0 lowers IR-level instrumentation.
    /// No-op outside a function or when the frame has no scratch.
    void o0_home(Reg r);

    /// 32 B metadata group offset of `v`'s root (software schemes).
    i64 group_of(Value v) const;

    /// Address of the CETS global lock_location.
    u64 global_lock_addr() const { return layout_.lock_base + 8; }

    // Reserved scheme-global registers.
    static constexpr Reg kMapBase = Reg::gp;     ///< swmeta / ASAN shadow base
    static constexpr Reg kShadowArgSp = Reg::tp; ///< SW shadow arg stack

private:
    riscv::Program& prog_;
    const mir::Module& module_;
    const riscv::MemoryLayout& layout_;
};

class SafetyEmitter {
public:
    virtual ~SafetyEmitter() = default;

    virtual Scheme scheme() const = 0;

    /// Use the HWST checked loads/stores (SCU-fused spatial check).
    virtual bool checked_mem() const { return false; }

    /// Extra bytes of redzone around each alloca (ASAN model).
    virtual i64 alloca_redzone() const { return 0; }

    /// Scheme needs 32 B metadata groups in the frame (software
    /// metadata association).
    virtual bool wants_groups() const { return false; }

    /// Scheme needs a per-frame lock_location for stack temporal safety.
    virtual bool wants_frame_lock() const { return false; }

    /// Scheme wants a stack canary (Gcc).
    virtual bool wants_canary() const { return false; }

    /// Machine configuration for programs built with this scheme.
    virtual sim::MachineConfig machine_config() const
    {
        return sim::MachineConfig{};
    }

    // ---- hooks (defaults: no instrumentation) -------------------------
    virtual void program_start(Ctx&) {}
    virtual void function_entry(Ctx&) {}
    /// Runs before the return value is loaded into a0.
    virtual void function_exit(Ctx&) {}

    /// Result pointer is in `r`; bind fresh metadata.
    virtual void bind_alloca(Ctx&, Reg, u32 /*alloca_index*/, Value) {}
    virtual void bind_global(Ctx&, Reg, u32 /*global_index*/, Value) {}
    virtual void bind_null(Ctx&, Reg, Value) {}
    virtual void bind_laundered(Ctx&, Reg, Value) {}
    virtual void bind_param(Ctx&, Reg, u32 /*param_index*/, Value) {}

    /// malloc: size is in a0 *and* t3; leave the pointer in t2 and bind.
    virtual void malloc_wrapper(Ctx& ctx, Value result);
    /// free: pointer is in a0 (SRF filled in HW modes).
    virtual void free_wrapper(Ctx& ctx, Value operand);

    /// Pointer value `v` in `r` was just stored to its home slot at
    /// `slot_off` (through-memory propagation of a register spill).
    virtual void ptr_spill(Ctx&, Reg, i64 /*slot_off*/, Value) {}
    /// Pointer value `v` was just reloaded from its home slot into `r`.
    virtual void ptr_fill(Ctx&, Reg, i64 /*slot_off*/, Value) {}

    /// A pointer was loaded from program memory: dst=value reg,
    /// src_addr=container address (both live).
    virtual void ptr_loaded(Ctx&, Reg /*dst*/, Reg /*src_addr*/, Value) {}
    /// A pointer in `src` is being stored to container `dst_addr`.
    virtual void ptr_stored(Ctx&, Reg /*src*/, Reg /*dst_addr*/, Value) {}

    /// Dereference about to happen: address in t0 (== ptr register),
    /// `width` bytes. Emit the check (software schemes) — hardware
    /// schemes rely on checked_mem() + this hook for the temporal part.
    virtual void deref_check(Ctx&, Reg /*ptr*/, unsigned /*width*/,
                             bool /*is_store*/, Value /*ptr_val*/)
    {
    }

    /// Wrapper-entry checks for the runtime memory functions: dst in
    /// a0, src in a1 (memcpy only), len in a2 (paper 3: "function
    /// wrappers are covered for all the libraries used"). Default: none.
    virtual void before_memcpy(Ctx&, const mir::Instr&) {}
    virtual void before_memset(Ctx&, const mir::Instr&) {}

    /// Call protocol: transfer metadata of pointer args / results.
    virtual void before_call(Ctx&, const mir::Instr&) {}
    virtual void after_call(Ctx&, const mir::Instr&) {}
    /// Return value pointer is in a0.
    virtual void ret_ptr(Ctx&, Value) {}

    /// Runtime-library customisation points: metadata transfer for one
    /// 8-byte word inside rt_memcpy / rt_memset. The paper highlights
    /// this path (lbdls/lbdus: SRF<->S.Mem copies without decompression
    /// "benefiting memory transfer functions such as memcpy()").
    virtual void copy_word_metadata(Ctx&, Reg /*dst_addr*/,
                                    Reg /*src_addr*/)
    {
    }
    virtual void clear_word_metadata(Ctx&, Reg /*dst_addr*/) {}

    /// Emit the scheme's runtime library (memcpy/memset bodies) under
    /// labels "rt_memcpy" / "rt_memset". Called once, after all
    /// functions. The default emits word loops using checked_mem() and
    /// the per-word metadata hooks above.
    virtual void emit_runtime(Ctx& ctx);
};

} // namespace hwst::compiler
