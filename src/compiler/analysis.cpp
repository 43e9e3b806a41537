#include "compiler/analysis.hpp"

#include "common/error.hpp"

namespace hwst::compiler {

using mir::Instr;
using mir::Op;
using mir::Ty;

FunctionPointerFacts analyze_pointers(const mir::Function& fn)
{
    FunctionPointerFacts facts;
    const std::size_t n = fn.values().size();
    facts.root_of.assign(n, FunctionPointerFacts::kNone);
    facts.root_kind.resize(n);
    facts.root_param.assign(n, FunctionPointerFacts::kNone);

    const auto make_root = [&](Value v, RootKind kind) {
        if (v.id >= n)
            throw common::ToolchainError{
                "pointer analysis: value id out of range in " + fn.name()};
        facts.root_of[v.id] = v.id;
        facts.root_kind[v.id] = kind;
        facts.roots.push_back(v.id);
    };

    for (const mir::Block& bb : fn.blocks()) {
        for (const Instr& in : bb.instrs()) {
            switch (in.op) {
            case Op::AllocaAddr:
                make_root(in.result, RootKind::Alloca);
                facts.needs_frame_lock = true;
                break;
            case Op::GlobalAddr:
                make_root(in.result, RootKind::Global);
                break;
            case Op::Malloc:
                make_root(in.result, RootKind::Malloc);
                break;
            case Op::ConstI64:
                if (in.ty == Ty::Ptr) make_root(in.result, RootKind::Null);
                break;
            case Op::ParamRef:
                if (in.ty == Ty::Ptr) {
                    make_root(in.result, RootKind::Param);
                    facts.root_param[in.result.id] = in.index;
                }
                break;
            case Op::IntToPtr:
                make_root(in.result, RootKind::Laundered);
                break;
            case Op::Gep: {
                // Derived pointer: shares the base pointer's metadata.
                if (in.a.id >= n || in.result.id >= n ||
                    facts.root_of[in.a.id] == FunctionPointerFacts::kNone)
                    throw common::ToolchainError{
                        "pointer analysis: gep base has no provenance in " +
                        fn.name()};
                facts.root_of[in.result.id] = facts.root_of[in.a.id];
                break;
            }
            case Op::Load:
                ++facts.deref_count;
                if (in.ty == Ty::Ptr) {
                    make_root(in.result, RootKind::LoadedPtr);
                    ++facts.ptr_load_count;
                }
                break;
            case Op::Store:
                ++facts.deref_count;
                if (fn.value_type(in.a) == Ty::Ptr) ++facts.ptr_store_count;
                break;
            case Op::Call:
                if (in.ty == Ty::Ptr)
                    make_root(in.result, RootKind::CallResult);
                break;
            default:
                break;
            }
        }
    }
    return facts;
}

} // namespace hwst::compiler
