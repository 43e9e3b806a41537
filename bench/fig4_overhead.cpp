// Figure 4 — overhead (Eq. 7) of SBCETS, HWST128 and HWST128_tchk over
// the uninstrumented baseline (exhibits::fig4, BENCH_fig4.json). Takes
// the shared grid flags (--jobs, --json, --smoke, --cache, ...).
#include "exhibits/exhibits.hpp"

int main(int argc, char** argv)
{
    return hwst::exhibits::grid_main("fig4_overhead", argc, argv,
                                     hwst::exhibits::fig4);
}
