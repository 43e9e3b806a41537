// Figure 5 — speedup (Eq. 8) of the accelerators over SBCETS on SPEC
// (exhibits::fig5, BENCH_fig5.json). Takes the shared grid flags
// (--jobs, --json, --smoke, --cache, ...).
#include "exhibits/exhibits.hpp"

int main(int argc, char** argv)
{
    return hwst::exhibits::grid_main("fig5_speedup", argc, argv,
                                     hwst::exhibits::fig5);
}
