#include "exec/simrun.hpp"

#include "common/error.hpp"
#include "exec/cache.hpp"
#include "workloads/workload.hpp"

namespace hwst::exec {

sim::RunResult run_machine(sim::Machine& machine, const CancelToken& token)
{
    auto result = machine.run_cancellable(
        [&token] { return token.expired(); }, kCancelCheckStride);
    if (!result) {
        throw JobTimeout{"cancelled after " +
                         std::to_string(machine.instret()) +
                         " instructions"};
    }
    return *result;
}

sim::RunResult run_program(const riscv::Program& program,
                           const sim::MachineConfig& cfg,
                           const JobContext& ctx)
{
    const auto run = [&] {
        sim::Machine machine{program, cfg};
        return run_machine(machine, ctx.token);
    };
    if (!ctx.cache) return run();
    return cached(*ctx.cache, cell_digest(program, cfg), run,
                  result_from_json, result_to_json);
}

Job make_sim_job(std::string name, std::string workload,
                 compiler::Scheme scheme,
                 std::function<mir::Module()> build,
                 std::function<void(sim::MachineConfig&)> tweak)
{
    Job job;
    job.name = std::move(name);
    job.workload = std::move(workload);
    job.scheme = compiler::scheme_name(scheme);
    job.body = [scheme, build = std::move(build),
                tweak = std::move(tweak)](const JobContext& ctx) {
        // Codegen holds a reference to the module during compile; keep
        // it alive for the whole body.
        const mir::Module module = build();
        compiler::CompiledProgram cp = compiler::compile(module, scheme);
        if (tweak) tweak(cp.machine_config);
        return run_program(cp.program, cp.machine_config, ctx);
    };
    return job;
}

std::vector<Job> GridSpec::jobs() const
{
    if (workloads.empty() || schemes.empty())
        throw common::ToolchainError{
            "grid needs at least one workload and one scheme"};
    const unsigned kb = keybuffer;
    const unsigned dk = dcache_kib;
    const auto tweak = [kb, dk](sim::MachineConfig& cfg) {
        if (kb) cfg.keybuffer_entries = kb;
        if (dk) cfg.dcache.sets = dk * 1024 / 64 / 4;
    };
    std::vector<Job> out;
    out.reserve(workloads.size() * schemes.size());
    for (const auto& name : workloads) {
        const auto& w = workloads::workload(name); // validates the name
        for (const compiler::Scheme scheme : schemes)
            out.push_back(make_sim_job(
                name + "/" + std::string{compiler::scheme_name(scheme)},
                name, scheme, w.build, tweak));
    }
    return out;
}

} // namespace hwst::exec
