// Codegen: lowers a verified mir::Module to a riscv::Program under a
// SafetyEmitter (the LLVM-RISC-V-backend + SBCETS-instrumentation role
// of the paper's toolchain, at -O0: every SSA value lives in a frame
// home slot and is reloaded at each use).
#pragma once

#include <array>
#include <optional>

#include "compiler/emitter.hpp"
#include "mir/ir.hpp"
#include "riscv/program.hpp"

namespace hwst::compiler {

class Codegen {
public:
    Codegen(const mir::Module& module, SafetyEmitter& emitter,
            riscv::MemoryLayout layout = {});

    /// Verify, analyze, lower all functions + the _start stub + the
    /// runtime library, and finalize the program.
    riscv::Program compile();

private:
    /// Block-local register cache — the fast-regalloc behaviour of
    /// -O0 LLVM: a block's SSA temporaries stay in callee-saved
    /// registers after definition (their home slot is still written,
    /// so eviction is free). Cleared at block boundaries and across
    /// calls (callees use the same registers without saving them).
    struct RegCache {
        static constexpr std::array<Reg, 10> kPool = {
            Reg::s2, Reg::s3, Reg::s4, Reg::s5, Reg::s6,
            Reg::s7, Reg::s8, Reg::s9, Reg::s10, Reg::s11};
        std::array<u32, kPool.size()> holder{};
        unsigned next = 0;

        void clear() { holder.fill(mir::Value::kInvalid); }
        std::optional<Reg> find(u32 id) const
        {
            if (id == mir::Value::kInvalid) return std::nullopt;
            for (std::size_t i = 0; i < kPool.size(); ++i)
                if (holder[i] == id) return kPool[i];
            return std::nullopt;
        }
        Reg alloc(u32 id)
        {
            const unsigned slot = next;
            next = (next + 1) % kPool.size();
            holder[slot] = id;
            return kPool[slot];
        }
    };

    void lower_function(riscv::Program& prog, Ctx& ctx,
                        const mir::Function& fn, riscv::Label fn_label);
    FrameInfo build_frame(const mir::Function& fn,
                          const FunctionPointerFacts& facts) const;
    void lower_instr(riscv::Program& prog, Ctx& ctx, const mir::Function& fn,
                     const FrameInfo& frame, const mir::Instr& in);
    void emit_epilogue(riscv::Program& prog, Ctx& ctx, const FrameInfo& frame);

    RegCache cache_;

    const mir::Module& module_;
    SafetyEmitter& emitter_;
    riscv::MemoryLayout layout_;
    std::vector<u64> global_addr_;
    std::vector<u64> global_size_;
    std::vector<riscv::Label> fn_labels_; ///< function index -> fn_<name>
    std::vector<riscv::Label> bb_labels_; ///< block index -> its label
    riscv::Label rt_memcpy_, rt_memset_;
};

/// Stack canary value used by the Gcc scheme.
inline constexpr i64 kStackCanary = 0x0C0FFEE0;

} // namespace hwst::compiler
