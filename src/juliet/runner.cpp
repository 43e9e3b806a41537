#include "juliet/runner.hpp"

#include "compiler/driver.hpp"
#include "exec/simrun.hpp"

namespace hwst::juliet {

using compiler::Scheme;
using hwst::TrapKind;

bool counts_as_detection(Scheme scheme, TrapKind trap)
{
    // Diagnostics every scheme's output parser sees.
    if (trap == TrapKind::LibcAbort) return true;

    switch (scheme) {
    case Scheme::None:
        return false;
    case Scheme::Gcc:
        return trap == TrapKind::StackGuardViolation;
    case Scheme::Asan:
        // AsanReport, plus the SEGV interceptor's printed report.
        return trap == TrapKind::AsanReport || trap == TrapKind::AccessFault;
    case Scheme::Sbcets:
    case Scheme::Bogo:
        return trap == TrapKind::SoftSpatialViolation ||
               trap == TrapKind::SoftTemporalViolation;
    case Scheme::Hwst128:
    case Scheme::Hwst128Tchk:
    case Scheme::WdlNarrow:
    case Scheme::WdlWide:
        return trap == TrapKind::SpatialViolation ||
               trap == TrapKind::TemporalViolation ||
               trap == TrapKind::SoftSpatialViolation ||
               trap == TrapKind::SoftTemporalViolation;
    }
    return false;
}

void Coverage::add(Cwe cwe, bool was_detected)
{
    auto& c = per_cwe[cwe];
    ++c.total;
    ++total;
    if (was_detected) {
        ++c.detected;
        ++detected;
    }
}

void Coverage::merge(const Coverage& other)
{
    total += other.total;
    detected += other.detected;
    for (const auto& [cwe, c] : other.per_cwe) {
        per_cwe[cwe].total += c.total;
        per_cwe[cwe].detected += c.detected;
    }
}

TrapKind run_case(Scheme scheme, const CaseSpec& spec,
                  const exec::CancelToken& token)
{
    // Codegen holds a reference to the module during compile.
    const mir::Module module = build_case(spec);
    compiler::CompiledProgram cp = compiler::compile(module, scheme);
    // Bounded fuel plays the role of the Juliet harness timeout: a
    // self-corrupted case that livelocks counts as not-detected.
    cp.machine_config.fuel = 2'000'000;
    return exec::run_program(cp.program, cp.machine_config,
                             exec::JobContext{.token = token})
        .trap.kind;
}

Coverage run_suite(Scheme scheme, std::span<const CaseSpec> cases,
                   const RunOptions& opts, const exec::CancelToken& token)
{
    Coverage cov;
    const u32 stride = opts.stride == 0 ? 1 : opts.stride;
    for (std::size_t i = 0; i < cases.size(); i += stride) {
        if (token.expired())
            throw exec::JobTimeout{"coverage chunk cancelled"};
        const CaseSpec& spec = cases[i];
        cov.add(spec.cwe,
                counts_as_detection(scheme, run_case(scheme, spec, token)));
    }
    return cov;
}

} // namespace hwst::juliet
