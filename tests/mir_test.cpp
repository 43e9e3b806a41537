// IR construction, verification and pointer-analysis tests.
#include <gtest/gtest.h>

#include "compiler/analysis.hpp"
#include "mir/builder.hpp"
#include "mir/print.hpp"
#include "mir/verify.hpp"

namespace {

using namespace hwst::mir;
using hwst::common::ToolchainError;
namespace compiler = hwst::compiler;

Module minimal_module()
{
    Module m;
    auto& fn = m.add_function("main", {}, Ty::I64);
    FunctionBuilder b{m, fn};
    b.set_insert(b.block("entry"));
    b.ret(b.const_i64(0));
    return m;
}

TEST(MirVerify, MinimalModulePasses)
{
    const Module m = minimal_module();
    EXPECT_NO_THROW(verify(m));
}

TEST(MirVerify, RejectsEmptyFunction)
{
    Module m;
    m.add_function("main", {}, Ty::I64);
    EXPECT_THROW(verify(m), ToolchainError);
}

TEST(MirVerify, RejectsMissingTerminator)
{
    Module m;
    auto& fn = m.add_function("main", {}, Ty::I64);
    FunctionBuilder b{m, fn};
    b.set_insert(b.block("entry"));
    b.const_i64(1); // no terminator
    EXPECT_THROW(verify(m), ToolchainError);
}

TEST(MirVerify, RejectsCrossBlockSsa)
{
    Module m;
    auto& fn = m.add_function("main", {}, Ty::I64);
    FunctionBuilder b{m, fn};
    const auto e = b.block("entry");
    const auto next = b.block("next");
    b.set_insert(e);
    const Value v = b.const_i64(7);
    b.jmp(next);
    b.set_insert(next);
    b.ret(v); // defined in another block
    EXPECT_THROW(verify(m), ToolchainError);
}

TEST(MirVerify, RejectsOperandFromAnyOtherBlock)
{
    // Defined two blocks earlier, and defined in a later block: both
    // fail, although the defining block's stamp is still on the value.
    const auto build = [](bool later) {
        Module m;
        auto& fn = m.add_function("main", {}, Ty::I64);
        FunctionBuilder b{m, fn};
        const auto b0 = b.block("b0");
        const auto b1 = b.block("b1");
        const auto b2 = b.block("b2");
        b.set_insert(later ? b2 : b0);
        const Value v = b.const_i64(7);
        if (later) {
            b.ret(v);
            b.set_insert(b0);
        }
        b.jmp(b1);
        b.set_insert(b1);
        if (later) {
            b.ret(v);
        } else {
            b.jmp(b2);
            b.set_insert(b2);
            b.ret(v);
        }
        return m;
    };
    EXPECT_THROW(verify(build(false)), ToolchainError);
    EXPECT_THROW(verify(build(true)), ToolchainError);
}

TEST(MirVerify, RejectsTypeErrors)
{
    Module m;
    auto& fn = m.add_function("main", {}, Ty::I64);
    FunctionBuilder b{m, fn};
    b.set_insert(b.block("entry"));
    const Value n = b.const_i64(1);
    // load through a non-pointer
    Instr bad;
    bad.op = Op::Load;
    bad.ty = Ty::I64;
    bad.a = n;
    bad.result = fn.new_value(Ty::I64, 0);
    fn.blocks()[0].instrs().push_back(bad);
    b.ret(b.const_i64(0));
    EXPECT_THROW(verify(m), ToolchainError);
}

TEST(MirVerify, RejectsUnknownCallee)
{
    Module m;
    auto& fn = m.add_function("main", {}, Ty::I64);
    FunctionBuilder b{m, fn};
    b.set_insert(b.block("entry"));
    b.call("nonexistent", {}, Ty::Void);
    b.ret(b.const_i64(0));
    EXPECT_THROW(verify(m), ToolchainError);
}

TEST(MirVerify, RejectsBadBranchTarget)
{
    Module m;
    auto& fn = m.add_function("main", {}, Ty::I64);
    FunctionBuilder b{m, fn};
    b.set_insert(b.block("entry"));
    b.jmp(42);
    EXPECT_THROW(verify(m), ToolchainError);
}

TEST(MirVerify, RejectsPointerStoreNarrowerThan8)
{
    Module m;
    auto& fn = m.add_function("main", {}, Ty::I64);
    FunctionBuilder b{m, fn};
    b.set_insert(b.block("entry"));
    const auto buf = b.array("buf", 16);
    Value p = b.alloca_addr(buf);
    Value q = b.alloca_addr(buf);
    b.store(q, p, 4); // pointers move 8 bytes at a time
    b.ret(b.const_i64(0));
    EXPECT_THROW(verify(m), ToolchainError);
}

TEST(MirPrint, ContainsStructure)
{
    Module m;
    auto& fn = m.add_function("main", {}, Ty::I64);
    FunctionBuilder b{m, fn};
    b.set_insert(b.block("entry"));
    const auto buf = b.array("mybuf", 64);
    Value p = b.alloca_addr(buf);
    Value v = b.load(p);
    b.ret(v);
    const std::string text = to_string(fn);
    EXPECT_NE(text.find("func main"), std::string::npos);
    EXPECT_NE(text.find("mybuf"), std::string::npos);
    EXPECT_NE(text.find("alloca_addr"), std::string::npos);
    EXPECT_NE(text.find("ret"), std::string::npos);
}

TEST(PointerAnalysis, GepSharesRoot)
{
    Module m;
    auto& fn = m.add_function("main", {}, Ty::I64);
    FunctionBuilder b{m, fn};
    b.set_insert(b.block("entry"));
    const auto buf = b.array("buf", 64);
    Value p = b.alloca_addr(buf);
    Value q = b.gep_const(p, 8);
    Value r = b.gep(q, b.const_i64(2), 8);
    b.ret(b.load(r));
    verify(m);

    const auto facts = compiler::analyze_pointers(fn);
    EXPECT_EQ(facts.root(p), p.id);
    EXPECT_EQ(facts.root(q), p.id);
    EXPECT_EQ(facts.root(r), p.id);
    EXPECT_EQ(facts.kind_of_root(p.id), compiler::RootKind::Alloca);
    EXPECT_TRUE(facts.needs_frame_lock);
}

TEST(PointerAnalysis, UnknownValuesAndNonRootsThrow)
{
    Module m;
    auto& fn = m.add_function("main", {}, Ty::I64);
    FunctionBuilder b{m, fn};
    b.set_insert(b.block("entry"));
    const auto buf = b.array("buf", 64);
    Value p = b.alloca_addr(buf);
    Value q = b.gep_const(p, 8);
    Value k = b.const_i64(3); // an integer: no provenance
    b.ret(b.add(b.load(q), k));
    verify(m);

    const auto facts = compiler::analyze_pointers(fn);
    EXPECT_THROW(facts.root(k), ToolchainError);
    EXPECT_THROW(facts.root(Value{}), ToolchainError);
    EXPECT_THROW(facts.root(Value{static_cast<u32>(fn.values().size())}),
                 ToolchainError);
    EXPECT_THROW(facts.kind_of_root(q.id), ToolchainError); // derived
    EXPECT_THROW(facts.kind_of_root(k.id), ToolchainError);
    EXPECT_THROW(facts.kind_of_root(Value::kInvalid), ToolchainError);
    EXPECT_EQ(facts.kind_of_root(p.id), compiler::RootKind::Alloca);
}

TEST(PointerAnalysis, LaunderedIsItsOwnRoot)
{
    Module m;
    auto& fn = m.add_function("main", {}, Ty::I64);
    FunctionBuilder b{m, fn};
    b.set_insert(b.block("entry"));
    const auto buf = b.array("buf", 64);
    Value p = b.alloca_addr(buf);
    Value i = b.ptr_to_int(p);
    Value q = b.int_to_ptr(i);
    b.ret(b.load(q));
    verify(m);

    const auto facts = compiler::analyze_pointers(fn);
    EXPECT_NE(facts.root(q), facts.root(p));
    EXPECT_EQ(facts.kind_of_root(facts.root(q)),
              compiler::RootKind::Laundered);
}

TEST(PointerAnalysis, KindsAndCounters)
{
    Module m;
    auto& callee = m.add_function("callee", {Ty::Ptr}, Ty::Ptr);
    {
        FunctionBuilder b{m, callee};
        b.set_insert(b.block("entry"));
        Value p = b.param(0);
        b.ret(p);
    }
    auto& fn = m.add_function("main", {}, Ty::I64);
    FunctionBuilder b{m, fn};
    b.set_insert(b.block("entry"));
    Value h = b.malloc_(b.const_i64(32));
    Value n = b.null_ptr();
    Value c = b.call("callee", {h}, Ty::Ptr);
    b.store(n, c);
    Value l = b.load_ptr(c);
    b.ret(b.ptr_to_int(l));
    verify(m);

    const auto facts = compiler::analyze_pointers(fn);
    EXPECT_EQ(facts.kind_of_root(facts.root(h)), compiler::RootKind::Malloc);
    EXPECT_EQ(facts.kind_of_root(facts.root(n)), compiler::RootKind::Null);
    EXPECT_EQ(facts.kind_of_root(facts.root(c)),
              compiler::RootKind::CallResult);
    EXPECT_EQ(facts.kind_of_root(facts.root(l)),
              compiler::RootKind::LoadedPtr);
    EXPECT_EQ(facts.ptr_store_count, 1u);
    EXPECT_EQ(facts.ptr_load_count, 1u);
    EXPECT_FALSE(facts.needs_frame_lock); // no allocas in main

    // Adding "main" may have reallocated the function list, so the
    // `callee` reference is stale here: look the function up again.
    const auto callee_facts =
        compiler::analyze_pointers(*m.find_function("callee"));
    EXPECT_EQ(callee_facts.kind_of_root(0), compiler::RootKind::Param);
}

TEST(Builder, DuplicateBlockNamesAllowed)
{
    // Blocks are addressed by id, names are cosmetic.
    Module m;
    auto& fn = m.add_function("main", {}, Ty::I64);
    FunctionBuilder b{m, fn};
    const auto b1 = b.block("x");
    const auto b2 = b.block("x");
    EXPECT_NE(b1, b2);
    b.set_insert(b1);
    b.jmp(b2);
    b.set_insert(b2);
    b.ret(b.const_i64(0));
    EXPECT_NO_THROW(verify(m));
}

} // namespace
