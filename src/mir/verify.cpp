#include "mir/verify.hpp"

#include <vector>

#include "common/error.hpp"

namespace hwst::mir {

using common::ToolchainError;

namespace {

[[noreturn]] void fail(const Function& fn, const Block& bb,
                       const std::string& what)
{
    throw ToolchainError{"mir verify: " + fn.name() + "/" + bb.name() + ": " +
                         what};
}

bool is_terminator(Op op)
{
    return op == Op::Ret || op == Op::Br || op == Op::Jmp;
}

} // namespace

void verify(const Module& module, const Function& fn)
{
    if (fn.blocks().empty())
        throw ToolchainError{"mir verify: " + fn.name() + ": no blocks"};

    // defined_in[id] = 1 + index of the block that has defined `id` so
    // far: one stamp vector for the whole function, so "defined earlier
    // in this block" needs no per-block set.
    std::vector<u32> defined_in(fn.values().size(), 0);
    for (std::size_t b = 0; b < fn.blocks().size(); ++b) {
        const Block& bb = fn.blocks()[b];
        const u32 stamp = static_cast<u32>(b + 1);
        if (bb.instrs().empty()) fail(fn, bb, "empty block");

        const auto check_operand = [&](Value v, Ty want,
                                       const char* what) {
            if (!v.valid()) fail(fn, bb, std::string{what} + " missing");
            if (v.id >= defined_in.size() || defined_in[v.id] != stamp)
                fail(fn, bb, std::string{what} +
                                 " not defined earlier in this block "
                                 "(block-local SSA)");
            if (want != Ty::Void && fn.value_type(v) != want)
                fail(fn, bb, std::string{what} + " has wrong type");
        };

        for (std::size_t i = 0; i < bb.instrs().size(); ++i) {
            const Instr& in = bb.instrs()[i];
            const bool last = i + 1 == bb.instrs().size();
            if (is_terminator(in.op) != last)
                fail(fn, bb, last ? "block does not end in a terminator"
                                  : "terminator in the middle of a block");

            switch (in.op) {
            case Op::ConstI64:
                break;
            case Op::Bin:
            case Op::Cmp:
                check_operand(in.a, Ty::I64, "lhs");
                check_operand(in.b, Ty::I64, "rhs");
                break;
            case Op::AllocaAddr:
                if (in.index >= fn.allocas().size())
                    fail(fn, bb, "alloca index out of range");
                break;
            case Op::GlobalAddr:
                if (in.index >= module.globals().size())
                    fail(fn, bb, "global index out of range");
                break;
            case Op::ParamRef:
                if (in.index >= fn.params().size())
                    fail(fn, bb, "param index out of range");
                break;
            case Op::Load:
                check_operand(in.a, Ty::Ptr, "load address");
                if (in.width != 1 && in.width != 2 && in.width != 4 &&
                    in.width != 8)
                    fail(fn, bb, "load width must be 1/2/4/8");
                if (in.ty == Ty::Ptr && in.width != 8)
                    fail(fn, bb, "pointer load must be 8 bytes");
                break;
            case Op::Store:
                check_operand(in.a, Ty::Void, "store value");
                check_operand(in.b, Ty::Ptr, "store address");
                if (in.width != 1 && in.width != 2 && in.width != 4 &&
                    in.width != 8)
                    fail(fn, bb, "store width must be 1/2/4/8");
                if (fn.value_type(in.a) == Ty::Ptr && in.width != 8)
                    fail(fn, bb, "pointer store must be 8 bytes");
                break;
            case Op::Gep:
                check_operand(in.a, Ty::Ptr, "gep base");
                if (in.b.valid()) check_operand(in.b, Ty::I64, "gep index");
                break;
            case Op::PtrToInt:
                check_operand(in.a, Ty::Ptr, "ptrtoint operand");
                break;
            case Op::IntToPtr:
                check_operand(in.a, Ty::I64, "inttoptr operand");
                break;
            case Op::Call: {
                const Function* callee = module.find_function(in.callee);
                if (!callee) fail(fn, bb, "call to unknown " + in.callee);
                if (callee->params().size() != in.args.size())
                    fail(fn, bb, "call arg count mismatch for " + in.callee);
                for (std::size_t k = 0; k < in.args.size(); ++k)
                    check_operand(in.args[k], callee->params()[k], "call arg");
                if (in.ty != callee->return_type() &&
                    !(in.ty == Ty::Void))
                    fail(fn, bb, "call result type mismatch for " + in.callee);
                break;
            }
            case Op::Malloc:
                check_operand(in.a, Ty::I64, "malloc size");
                break;
            case Op::Free:
                check_operand(in.a, Ty::Ptr, "free pointer");
                break;
            case Op::Memcpy:
                check_operand(in.a, Ty::Ptr, "memcpy dst");
                check_operand(in.b, Ty::Ptr, "memcpy src");
                check_operand(in.c, Ty::I64, "memcpy len");
                break;
            case Op::Memset:
                check_operand(in.a, Ty::Ptr, "memset dst");
                check_operand(in.b, Ty::I64, "memset byte");
                check_operand(in.c, Ty::I64, "memset len");
                break;
            case Op::Print:
                check_operand(in.a, Ty::Void, "print operand");
                break;
            case Op::Ret:
                if (fn.return_type() == Ty::Void) {
                    if (in.a.valid()) fail(fn, bb, "ret value in void function");
                } else {
                    check_operand(in.a, fn.return_type(), "ret value");
                }
                break;
            case Op::Br:
                check_operand(in.a, Ty::I64, "branch condition");
                if (in.bb_true >= fn.blocks().size() ||
                    in.bb_false >= fn.blocks().size())
                    fail(fn, bb, "branch target out of range");
                break;
            case Op::Jmp:
                if (in.bb_true >= fn.blocks().size())
                    fail(fn, bb, "jump target out of range");
                break;
            }

            if (in.ty != Ty::Void) {
                if (!in.result.valid())
                    fail(fn, bb, "instruction with result type has no result");
                if (in.result.id >= defined_in.size())
                    fail(fn, bb, "result id out of range");
                defined_in[in.result.id] = stamp;
            }
        }
    }
}

void verify(const Module& module)
{
    for (const Function& fn : module.functions()) verify(module, fn);
}

} // namespace hwst::mir
