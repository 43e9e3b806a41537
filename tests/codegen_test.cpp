// End-to-end codegen semantics: every scheme must preserve program
// behaviour for well-behaved programs (instrumentation is transparent).
#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "compiler/analysis.hpp"
#include "compiler/driver.hpp"
#include "compiler/emitter.hpp"
#include "juliet/cases.hpp"
#include "mir/builder.hpp"
#include "riscv/encoding.hpp"
#include "workloads/dsl.hpp"
#include "workloads/workload.hpp"

namespace {

using namespace hwst;
using compiler::Scheme;
using mir::FunctionBuilder;
using mir::Ty;
using mir::Value;
using workloads::for_range;
using workloads::if_then;

class CodegenAllSchemes : public ::testing::TestWithParam<Scheme> {};

TEST_P(CodegenAllSchemes, RecursionAndCalls)
{
    mir::Module m;
    {
        auto& fn = m.add_function("fib", {Ty::I64}, Ty::I64);
        FunctionBuilder b{m, fn};
        const auto entry = b.block("entry");
        const auto rec = b.block("rec");
        const auto basecase = b.block("base");
        const auto n = b.local("n");
        b.set_insert(entry);
        b.store_local(n, b.param(0));
        b.br(b.lt(b.load_local(n), b.const_i64(2)), basecase, rec);
        b.set_insert(basecase);
        b.ret(b.load_local(n));
        b.set_insert(rec);
        Value f1 = b.call(
            "fib", {b.sub(b.load_local(n), b.const_i64(1))}, Ty::I64);
        const auto acc = b.local("acc");
        b.store_local(acc, f1);
        Value f2 = b.call(
            "fib", {b.sub(b.load_local(n), b.const_i64(2))}, Ty::I64);
        b.ret(b.add(b.load_local(acc), f2));
    }
    {
        auto& fn = m.add_function("main", {}, Ty::I64);
        FunctionBuilder b{m, fn};
        b.set_insert(b.block("entry"));
        b.ret(b.call("fib", {b.const_i64(15)}, Ty::I64));
    }
    const auto r = compiler::run(m, GetParam());
    ASSERT_TRUE(r.ok()) << trap_name(r.trap.kind);
    EXPECT_EQ(r.exit_code, 610);
}

TEST_P(CodegenAllSchemes, PointerArgsAndReturns)
{
    mir::Module m;
    {
        // pick(p, i) -> &p[i]
        auto& fn = m.add_function("pick", {Ty::Ptr, Ty::I64}, Ty::Ptr);
        FunctionBuilder b{m, fn};
        b.set_insert(b.block("entry"));
        b.ret(b.gep(b.param(0), b.param(1), 8));
    }
    {
        auto& fn = m.add_function("main", {}, Ty::I64);
        FunctionBuilder b{m, fn};
        b.set_insert(b.block("entry"));
        const auto arr = b.local("arr", Ty::Ptr);
        const auto i = b.local("i");
        b.store_local(arr, b.malloc_(b.const_i64(10 * 8)));
        for_range(b, i, 0, 10, [&] {
            Value slot = b.call(
                "pick", {b.load_local(arr), b.load_local(i)}, Ty::Ptr);
            b.store(b.mul(b.load_local(i), b.const_i64(7)), slot);
        });
        const auto sum = b.local("sum");
        b.store_local(sum, b.const_i64(0));
        for_range(b, i, 0, 10, [&] {
            Value slot = b.call(
                "pick", {b.load_local(arr), b.load_local(i)}, Ty::Ptr);
            b.store_local(sum, b.add(b.load_local(sum), b.load(slot)));
        });
        b.free_(b.load_local(arr));
        b.ret(b.load_local(sum));
    }
    const auto r = compiler::run(m, GetParam());
    ASSERT_TRUE(r.ok()) << trap_name(r.trap.kind);
    EXPECT_EQ(r.exit_code, 7 * 45);
}

TEST_P(CodegenAllSchemes, GlobalsAndByteAccess)
{
    mir::Module m;
    std::vector<common::u8> init{10, 20, 30, 40};
    const auto g = m.add_global(mir::Global{"tbl", 4, 8, init});
    auto& fn = m.add_function("main", {}, Ty::I64);
    FunctionBuilder b{m, fn};
    b.set_insert(b.block("entry"));
    const auto i = b.local("i");
    const auto sum = b.local("sum");
    b.store_local(sum, b.const_i64(0));
    for_range(b, i, 0, 4, [&] {
        Value v = b.load(b.gep(b.global_addr(g), b.load_local(i), 1), 1,
                         false);
        b.store_local(sum, b.add(b.load_local(sum), v));
    });
    b.ret(b.load_local(sum));
    const auto r = compiler::run(m, GetParam());
    ASSERT_TRUE(r.ok()) << trap_name(r.trap.kind);
    EXPECT_EQ(r.exit_code, 100);
}

TEST_P(CodegenAllSchemes, MemcpyMemsetPreservePointers)
{
    // A pointer copied by rt_memcpy must keep working (metadata moves
    // with it); a memset over its container must not fault later
    // in-bounds uses of other data.
    mir::Module m;
    auto& fn = m.add_function("main", {}, Ty::I64);
    FunctionBuilder b{m, fn};
    b.set_insert(b.block("entry"));
    const auto box_a = b.local("box_a", Ty::Ptr);
    const auto box_b = b.local("box_b", Ty::Ptr);
    const auto obj = b.local("obj", Ty::Ptr);
    b.store_local(obj, b.malloc_(b.const_i64(16)));
    b.store(b.const_i64(4321), b.load_local(obj));
    b.store_local(box_a, b.malloc_(b.const_i64(32)));
    b.store_local(box_b, b.malloc_(b.const_i64(32)));
    // box_a[0] = obj; memcpy(box_b, box_a, 32); read through box_b[0].
    b.store(b.load_local(obj), b.load_local(box_a));
    b.memcpy_(b.load_local(box_b), b.load_local(box_a), b.const_i64(32));
    const auto out = b.local("out");
    Value copied = b.load_ptr(b.load_local(box_b));
    b.store_local(out, b.load(copied));
    // memset box_a; its metadata for the stored pointer must be gone,
    // but ordinary data access still works.
    b.memset_(b.load_local(box_a), b.const_i64(0), b.const_i64(32));
    b.store_local(out, b.add(b.load_local(out),
                             b.load(b.load_local(box_a))));
    b.ret(b.load_local(out));
    const auto r = compiler::run(m, GetParam());
    ASSERT_TRUE(r.ok()) << trap_name(r.trap.kind);
    EXPECT_EQ(r.exit_code, 4321);
}

TEST_P(CodegenAllSchemes, LargeFrameOffsets)
{
    // Arrays big enough to push frame offsets beyond imm12.
    mir::Module m;
    auto& fn = m.add_function("main", {}, Ty::I64);
    FunctionBuilder b{m, fn};
    b.set_insert(b.block("entry"));
    const auto big = b.array("big", 16 * 1024);
    const auto i = b.local("i");
    const auto sum = b.local("sum");
    for_range(b, i, 0, 2048, [&] {
        Value slot = b.gep(b.alloca_addr(big), b.load_local(i), 8);
        b.store(b.and_(b.load_local(i), b.const_i64(7)), slot);
    });
    b.store_local(sum, b.const_i64(0));
    for_range(b, i, 0, 2048, [&] {
        Value slot = b.gep(b.alloca_addr(big), b.load_local(i), 8);
        b.store_local(sum, b.add(b.load_local(sum), b.load(slot)));
    });
    b.ret(b.load_local(sum));
    const auto r = compiler::run(m, GetParam());
    ASSERT_TRUE(r.ok()) << trap_name(r.trap.kind);
    EXPECT_EQ(r.exit_code, 2048 / 8 * 28);
}

TEST_P(CodegenAllSchemes, PrintOutputOrdering)
{
    mir::Module m;
    auto& fn = m.add_function("main", {}, Ty::I64);
    FunctionBuilder b{m, fn};
    b.set_insert(b.block("entry"));
    const auto i = b.local("i");
    for_range(b, i, 0, 5, [&] { b.print(b.load_local(i)); });
    b.ret(b.const_i64(0));
    const auto r = compiler::run(m, GetParam());
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.output, (std::vector<common::i64>{0, 1, 2, 3, 4}));
}

INSTANTIATE_TEST_SUITE_P(
    Schemes, CodegenAllSchemes,
    ::testing::ValuesIn(compiler::kAllSchemes),
    [](const auto& info) {
        return std::string{compiler::scheme_name(info.param)};
    });

TEST(Codegen, RequiresMain)
{
    mir::Module m;
    auto& fn = m.add_function("not_main", {}, Ty::I64);
    FunctionBuilder b{m, fn};
    b.set_insert(b.block("entry"));
    b.ret(b.const_i64(0));
    EXPECT_THROW(compiler::compile(m, Scheme::None),
                 common::ToolchainError);
}

TEST(Codegen, InstrumentationGrowsCodeMonotonically)
{
    mir::Module m = [] {
        mir::Module mm;
        auto& fn = mm.add_function("main", {}, Ty::I64);
        FunctionBuilder b{mm, fn};
        b.set_insert(b.block("entry"));
        const auto p = b.local("p", Ty::Ptr);
        b.store_local(p, b.malloc_(b.const_i64(64)));
        b.store(b.const_i64(1), b.load_local(p));
        Value v = b.load(b.load_local(p));
        b.free_(b.load_local(p));
        b.ret(v);
        return mm;
    }();
    const auto none = compiler::compile(m, Scheme::None);
    const auto hwst = compiler::compile(m, Scheme::Hwst128Tchk);
    const auto sb = compiler::compile(m, Scheme::Sbcets);
    EXPECT_LT(none.program.code().size(), hwst.program.code().size());
    EXPECT_LT(hwst.program.code().size(), sb.program.code().size());
}

// ---- error paths -------------------------------------------------------
//
// The compiler's per-function tables and the Program's label table are
// flat vectors; a missing entry must still throw, never read as 0.

TEST(CodegenErrors, GroupOfRootWithoutGroupThrows)
{
    mir::Module m;
    auto& fn = m.add_function("main", {}, Ty::I64);
    FunctionBuilder b{m, fn};
    b.set_insert(b.block("entry"));
    const auto buf = b.array("buf", 64);
    const Value p = b.alloca_addr(buf);
    const Value k = b.const_i64(0);
    b.ret(b.load(p));

    const auto facts = compiler::analyze_pointers(fn);
    riscv::Program prog;
    compiler::Ctx ctx{prog, m, prog.layout()};
    EXPECT_THROW(ctx.group_of(p), common::ToolchainError); // no function

    compiler::FrameInfo frame; // a scheme without groups
    ctx.facts = &facts;
    ctx.frame = &frame;
    EXPECT_THROW(ctx.group_of(p), common::ToolchainError);
    frame.group_off.assign(fn.values().size(), -1); // groups, none for p
    EXPECT_THROW(ctx.group_of(p), common::ToolchainError);
    EXPECT_THROW(ctx.group_of(k), common::ToolchainError); // not a pointer
    frame.group_off[p.id] = 48;
    EXPECT_EQ(ctx.group_of(p), 48);
}

TEST(CodegenErrors, HomeSlotOfUnknownValueThrows)
{
    compiler::FrameInfo frame;
    frame.value_slot = {16, 24};
    EXPECT_EQ(frame.slot(Value{1}), 24);
    EXPECT_THROW(frame.slot(Value{2}), common::ToolchainError);
    EXPECT_THROW(frame.slot(Value{}), common::ToolchainError);
}

TEST(CodegenErrors, FinalizeRejectsUndefinedNamedLabel)
{
    riscv::Program p;
    p.label("main");
    p.emit_call("fn_missing");
    EXPECT_FALSE(p.has_label("fn_missing")); // mentioned, never defined
    EXPECT_THROW(p.label_addr("fn_missing"), common::ToolchainError);
    EXPECT_THROW(p.finalize(), common::ToolchainError);
}

TEST(CodegenErrors, FinalizeRejectsNeverBoundLabel)
{
    riscv::Program p;
    p.label("main");
    const riscv::Label l = p.new_label();
    p.emit_branch(riscv::Opcode::BEQ, riscv::Reg::a0, riscv::Reg::zero, l);
    EXPECT_THROW(p.finalize(), common::ToolchainError);

    riscv::Program q;
    EXPECT_THROW(q.bind(riscv::Label{}), common::ToolchainError);
    q.emit_jal(riscv::Reg::zero, riscv::Label{7}); // not one of q's
    EXPECT_THROW(q.finalize(), common::ToolchainError);
}

TEST(CodegenErrors, DuplicateLabelsThrow)
{
    riscv::Program p;
    p.label("fn_main");
    p.emit(riscv::Instruction{riscv::Opcode::EBREAK});
    EXPECT_THROW(p.label("fn_main"), common::ToolchainError);
    const riscv::Label l = p.new_label();
    p.bind(l);
    EXPECT_THROW(p.bind(l), common::ToolchainError);
    // The same name always interns to the same id.
    EXPECT_EQ(p.named_label("fn_main").id, p.named_label("fn_main").id);
    EXPECT_NE(p.named_label("fn_main").id, l.id);
}

// ---- layout identity --------------------------------------------------
//
// The I$ model sees the text layout, so a change to how the compiler
// builds a Program (label handling, per-function tables) must leave
// every finalized Program byte-identical. Each digest folds the FNV-1a
// of every program in a set: its encoded code words, its data bytes
// and its entry address.

struct Fnv {
    common::u64 h = 0xcbf29ce484222325ull;
    void byte(common::u8 b)
    {
        h ^= b;
        h *= 0x100000001b3ull;
    }
    void word(common::u64 v, unsigned bytes)
    {
        for (unsigned i = 0; i < bytes; ++i) byte(static_cast<common::u8>(v >> (8 * i)));
    }
};

common::u64 layout_digest(const riscv::Program& p)
{
    Fnv f;
    f.word(p.code().size(), 8);
    for (const riscv::Instruction& in : p.code()) f.word(riscv::encode(in), 4);
    f.word(p.data().size(), 8);
    for (const common::u8 b : p.data()) f.byte(b);
    f.word(p.entry_addr(), 8);
    return f.h;
}

std::string hex(common::u64 v)
{
    char buf[19];
    std::snprintf(buf, sizeof buf, "0x%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

TEST(CodegenLayout, RegistryWorkloadsUnderEverySchemeArePinned)
{
    // One digest per scheme, folded over the registry in paper order.
    const std::vector<std::pair<Scheme, const char*>> expected = {
        {Scheme::None, "0x46c18e330a32d843"},
        {Scheme::Gcc, "0x368052dbe6f2ccfd"},
        {Scheme::Sbcets, "0x41f0d2fd96681073"},
        {Scheme::Hwst128, "0x8bcf5074f12556c6"},
        {Scheme::Hwst128Tchk, "0x953c7919aaa74bd8"},
        {Scheme::Asan, "0x20346911c1657e69"},
        {Scheme::Bogo, "0xaa69f4410d841056"},
        {Scheme::WdlNarrow, "0xc968684cdb3c3bc8"},
        {Scheme::WdlWide, "0xa3504496d62b550f"},
    };
    for (const Scheme s : compiler::kAllSchemes) {
        Fnv fold;
        for (const workloads::Workload& w : workloads::all_workloads())
            fold.word(layout_digest(compiler::compile(w.build(), s).program), 8);
        std::string want = "missing";
        for (const auto& [es, digest] : expected)
            if (es == s) want = digest;
        EXPECT_EQ(hex(fold.h), want) << compiler::scheme_name(s);
    }
}

TEST(CodegenLayout, JulietBadCasesUnderFig6SchemesArePinned)
{
    // One digest per (scheme, CWE), folded over the CWE's bad cases.
    constexpr std::array kSchemes = {Scheme::Gcc, Scheme::Asan,
                                     Scheme::Sbcets, Scheme::Hwst128Tchk};
    const std::vector<std::pair<std::string, const char*>> expected = {
        {"asan/CWE121", "0xd4a4b65f1535fe0c"},
        {"asan/CWE122", "0xbe28cf7a4c2b0c07"},
        {"asan/CWE124", "0x86a89c9862139072"},
        {"asan/CWE126", "0x7aa72f3e86ba82ab"},
        {"asan/CWE127", "0x9bf86c66368e0376"},
        {"asan/CWE415", "0x8c936644864a3230"},
        {"asan/CWE416", "0xea0b6f74515f9bfe"},
        {"asan/CWE476", "0x85d482df654ac2c2"},
        {"asan/CWE690", "0x528892c06232abac"},
        {"asan/CWE761", "0x2781b848daf98e53"},
        {"gcc/CWE121", "0x5529c71699cc8bf4"},
        {"gcc/CWE122", "0xdf3059b1a50ad66c"},
        {"gcc/CWE124", "0x20a093065ff48438"},
        {"gcc/CWE126", "0x07e137a4e14b83ae"},
        {"gcc/CWE127", "0xa6e7c334c6075045"},
        {"gcc/CWE415", "0x2a6de86d7f1e1788"},
        {"gcc/CWE416", "0x01070674e61d297f"},
        {"gcc/CWE476", "0xca97d7cbe8ad1517"},
        {"gcc/CWE690", "0xb1f8a3590b106988"},
        {"gcc/CWE761", "0x3439b94290e47149"},
        {"hwst128_tchk/CWE121", "0xfa008150ecf71178"},
        {"hwst128_tchk/CWE122", "0x5253ccd03af85b18"},
        {"hwst128_tchk/CWE124", "0x6d742ddbe7088ce5"},
        {"hwst128_tchk/CWE126", "0x61ba1155cc905d1d"},
        {"hwst128_tchk/CWE127", "0x0577532fdc5818cf"},
        {"hwst128_tchk/CWE415", "0x1bcc36f21a18cdfa"},
        {"hwst128_tchk/CWE416", "0xa237c79e8aaf8989"},
        {"hwst128_tchk/CWE476", "0xc6a7651333d638d9"},
        {"hwst128_tchk/CWE690", "0x0026faf0c0f42fd7"},
        {"hwst128_tchk/CWE761", "0xa9357bcabcb76ea9"},
        {"sbcets/CWE121", "0xedd5f6f3411002f3"},
        {"sbcets/CWE122", "0xd119207e5437a39e"},
        {"sbcets/CWE124", "0x26c86d803486f58f"},
        {"sbcets/CWE126", "0xfbf95864aa3ce18e"},
        {"sbcets/CWE127", "0x4711f536bc7fbf74"},
        {"sbcets/CWE415", "0x8634487cab30211b"},
        {"sbcets/CWE416", "0x2da763ddb2262eab"},
        {"sbcets/CWE476", "0xc33ad3c2f5556c2f"},
        {"sbcets/CWE690", "0x01da309910564a18"},
        {"sbcets/CWE761", "0xa7272a222b60a0c6"},
    };
    std::map<std::string, Fnv> folds;
    for (const juliet::CaseSpec& spec : juliet::all_bad_cases()) {
        const mir::Module m = juliet::build_case(spec);
        for (const Scheme s : kSchemes) {
            const std::string key = std::string{compiler::scheme_name(s)} +
                                    "/" +
                                    std::string{juliet::cwe_name(spec.cwe)};
            folds[key].word(layout_digest(compiler::compile(m, s).program), 8);
        }
    }
    ASSERT_EQ(folds.size(), 40u);
    for (const auto& [key, fold] : folds) {
        std::string want = "missing";
        for (const auto& [ek, digest] : expected)
            if (ek == key) want = digest;
        EXPECT_EQ(hex(fold.h), want) << key;
    }
}

} // namespace
