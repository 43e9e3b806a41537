// The paper's exhibits as functions: each runs its grid on the exec
// engine, prints its table, writes BENCH_<name>.json when grid.json is
// set and returns its harness's exit code (0 ok, 1 a failed or wrong
// cell, 2 a campaign that cannot start). The harness binaries
// (fig4_overhead, fig5_speedup, fig6_coverage, ablations,
// fault_campaign) are thin mains over them, and bench/repro runs all
// five in one process.
#pragma once

#include "common/bitops.hpp"
#include "exec/cli.hpp"
#include "fault/campaign.hpp"

namespace hwst::exhibits {

/// Figure 4: overhead (Eq. 7) of SBCETS, HWST128 and HWST128_tchk over
/// the uninstrumented baseline for every workload.
int fig4(const exec::GridOptions& grid);

/// Figure 5: speedup (Eq. 8) of the accelerators over SBCETS on SPEC.
int fig5(const exec::GridOptions& grid);

/// Figure 6: Juliet coverage of GCC, ASAN, SBCETS and HWST128 on every
/// `stride`-th bad case (199 at --smoke when stride is 1).
int fig6(const exec::GridOptions& grid, common::u32 stride = 1);

/// The DESIGN.md §5 ablations.
int ablations(const exec::GridOptions& grid);

/// The metadata fault campaign over `cfg`, cut to two seeds and one
/// workload at --smoke; jobs, timeout and cache come from `grid`. Exit
/// 1 on silent corruption at a metadata-protected point or a timed-out
/// run.
int fault_campaign(const exec::GridOptions& grid,
                   fault::CampaignConfig cfg = {});

/// The whole main of a harness whose only flags are the shared grid
/// flags: parse them (exit 2 with usage on a bad one), then run
/// `exhibit`.
int grid_main(const char* harness, int argc, char** argv,
              int (*exhibit)(const exec::GridOptions&));

} // namespace hwst::exhibits
