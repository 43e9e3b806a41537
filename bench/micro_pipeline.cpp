// Micro-benchmarks (google-benchmark) for the simulation substrate:
// encoder/decoder round-trips, D-cache model accesses, whole-machine
// simulation rate (simulated instructions per host second), and the
// per-run fixed costs of a short Juliet cell: compile, and Machine
// load (construction + teardown).
#include <benchmark/benchmark.h>

#include "compiler/driver.hpp"
#include "juliet/cases.hpp"
#include "mem/cache.hpp"
#include "mir/builder.hpp"
#include "riscv/encoding.hpp"

using namespace hwst;

namespace {

void BM_EncodeDecode(benchmark::State& state)
{
    std::vector<riscv::Instruction> ins;
    for (unsigned i = 0; i < riscv::kNumOpcodes; ++i) {
        const auto op = static_cast<riscv::Opcode>(i);
        riscv::Instruction in;
        in.op = op;
        in.rd = riscv::Reg::a0;
        in.rs1 = riscv::Reg::a1;
        in.rs2 = riscv::Reg::a2;
        ins.push_back(in);
    }
    std::size_t i = 0;
    for (auto _ : state) {
        const auto& in = ins[i % ins.size()];
        benchmark::DoNotOptimize(riscv::decode(riscv::encode(in)));
        ++i;
    }
}
BENCHMARK(BM_EncodeDecode);

void BM_DcacheAccess(benchmark::State& state)
{
    mem::Cache cache;
    common::u64 addr = 0;
    const common::u64 stride = static_cast<common::u64>(state.range(0));
    for (auto _ : state) {
        benchmark::DoNotOptimize(cache.access(addr));
        addr += stride;
    }
    state.counters["miss_rate"] = cache.stats().miss_rate();
}
BENCHMARK(BM_DcacheAccess)->Arg(8)->Arg(64)->Arg(4096);

mir::Module spin_module()
{
    mir::Module m;
    auto& fn = m.add_function("main", {}, mir::Ty::I64);
    mir::FunctionBuilder b{m, fn};
    const auto entry = b.block("entry");
    const auto head = b.block("head");
    const auto body = b.block("body");
    const auto exit = b.block("exit");
    const auto i = b.local("i");
    const auto s = b.local("s");
    b.set_insert(entry);
    b.store_local(i, b.const_i64(0));
    b.store_local(s, b.const_i64(0));
    b.jmp(head);
    b.set_insert(head);
    b.br(b.lt(b.load_local(i), b.const_i64(20000)), body, exit);
    b.set_insert(body);
    b.store_local(s, b.add(b.load_local(s), b.load_local(i)));
    b.store_local(i, b.add(b.load_local(i), b.const_i64(1)));
    b.jmp(head);
    b.set_insert(exit);
    b.ret(b.load_local(s));
    return m;
}

void BM_SimulationRate(benchmark::State& state)
{
    const auto scheme = static_cast<compiler::Scheme>(state.range(0));
    const auto cp = compiler::compile(spin_module(), scheme);
    common::u64 instret = 0;
    for (auto _ : state) {
        sim::Machine machine{cp.program, cp.machine_config};
        const auto r = machine.run();
        instret += r.instret;
    }
    state.counters["sim_instr_per_s"] = benchmark::Counter(
        static_cast<double>(instret), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SimulationRate)
    ->Arg(static_cast<int>(compiler::Scheme::None))
    ->Arg(static_cast<int>(compiler::Scheme::Sbcets))
    ->Arg(static_cast<int>(compiler::Scheme::Hwst128Tchk));

/// One fixed Juliet case (a CWE122 heap overflow, fig6's largest
/// category) under each of fig6's four schemes.
const juliet::CaseSpec kJulietCase =
    juliet::make_spec(juliet::Cwe::C122, 0, true);

void fig6_schemes(benchmark::internal::Benchmark* b)
{
    for (const auto s : {compiler::Scheme::Gcc, compiler::Scheme::Asan,
                         compiler::Scheme::Sbcets,
                         compiler::Scheme::Hwst128Tchk})
        b->Arg(static_cast<int>(s));
}

void BM_JulietCompile(benchmark::State& state)
{
    const auto scheme = static_cast<compiler::Scheme>(state.range(0));
    const mir::Module m = juliet::build_case(kJulietCase);
    for (auto _ : state) {
        const auto cp = compiler::compile(m, scheme);
        benchmark::DoNotOptimize(cp.program.code().data());
    }
    state.SetLabel(std::string{compiler::scheme_name(scheme)});
}
BENCHMARK(BM_JulietCompile)->Apply(fig6_schemes);

void BM_JulietMachineLoad(benchmark::State& state)
{
    const auto scheme = static_cast<compiler::Scheme>(state.range(0));
    const auto cp = compiler::compile(juliet::build_case(kJulietCase), scheme);
    for (auto _ : state) {
        sim::Machine machine{cp.program, cp.machine_config};
        benchmark::DoNotOptimize(&machine);
    }
    state.SetLabel(std::string{compiler::scheme_name(scheme)});
}
BENCHMARK(BM_JulietMachineLoad)->Apply(fig6_schemes);

} // namespace

BENCHMARK_MAIN();
