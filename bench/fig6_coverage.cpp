// Figure 6 — Juliet security coverage (exhibits::fig6,
// BENCH_fig6.json).
//
//   fig6_coverage [stride]    (default 1 = full suite; e.g. 7 for a
//                              fast unbiased subsample; a whole
//                              number >= 1)
//
// plus the shared grid flags (--jobs, --json, --smoke, --cache, ...).
#include <iostream>
#include <limits>

#include "exhibits/exhibits.hpp"

using namespace hwst;

int main(int argc, char** argv)
{
    exec::GridOptions grid;
    common::u32 stride = 1;
    try {
        for (int i = 1; i < argc; ++i) {
            if (exec::parse_grid_flag(grid, argc, argv, i)) continue;
            if (argv[i][0] != '-') {
                stride = static_cast<common::u32>(exec::count_flag(
                    "stride", argv[i], 1,
                    std::numeric_limits<common::u32>::max()));
                continue;
            }
            throw common::ToolchainError{std::string{"unknown flag: "} +
                                         argv[i]};
        }
    } catch (const std::exception& e) {
        std::cerr << "fig6_coverage: " << e.what() << "\nusage: "
                  << "fig6_coverage [stride] [flags]\nflags:\n"
                  << exec::kGridFlagsHelp;
        return 2;
    }
    return exhibits::fig6(grid, stride);
}
