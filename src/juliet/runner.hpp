// Juliet suite runner + per-scheme detection scoring (paper §5.2).
//
// Scoring follows the paper's methodology: "the memory violation
// detection is done by parsing the output of the test case". A run is
// detected only when the protection produced a *printed diagnostic*:
// its own violation report, an ASAN report, a stack-smashing message or
// a libc "free(): invalid pointer" abort. A silent SEGV counts for the
// ASAN model only (its interceptor prints a report); for the plain GCC
// binary it is not a greppable diagnostic.
#pragma once

#include <map>
#include <span>

#include "compiler/scheme.hpp"
#include "exec/job.hpp"
#include "hwst/trap.hpp"
#include "juliet/cases.hpp"

namespace hwst::juliet {

/// Does a run that ended with `trap` count as detected under `scheme`?
bool counts_as_detection(compiler::Scheme scheme, hwst::TrapKind trap);

struct CweCoverage {
    u32 total = 0;
    u32 detected = 0;
    double pct() const
    {
        return total ? 100.0 * detected / total : 0.0;
    }
};

struct Coverage {
    std::map<Cwe, CweCoverage> per_cwe;
    u32 total = 0;
    u32 detected = 0;
    double pct() const
    {
        return total ? 100.0 * detected / total : 0.0;
    }
    /// Score one case of `cwe`.
    void add(Cwe cwe, bool was_detected);
    /// Add `other`'s counts (fig6's chunks merge in grid order).
    void merge(const Coverage& other);
};

struct RunOptions {
    /// Run every `stride`-th case (1 = full suite). The detected/total
    /// ratio is unbiased for any stride because specs are deterministic.
    u32 stride = 1;
};

/// Execute the given cases under `scheme` and score coverage; throws
/// exec::JobTimeout once `token` expires.
Coverage run_suite(compiler::Scheme scheme, std::span<const CaseSpec> cases,
                   const RunOptions& opts = {},
                   const exec::CancelToken& token = {});

/// One case, through exec::run_program under `token` with no result
/// cache: returns the final trap kind.
hwst::TrapKind run_case(compiler::Scheme scheme, const CaseSpec& spec,
                        const exec::CancelToken& token = {});

} // namespace hwst::juliet
