// The DESIGN.md §5 design-choice ablations (exhibits::ablations,
// BENCH_ablations.json). Takes the shared grid flags (--jobs, --json,
// --smoke, --cache, ...).
#include "exhibits/exhibits.hpp"

int main(int argc, char** argv)
{
    return hwst::exhibits::grid_main("ablations", argc, argv,
                                     hwst::exhibits::ablations);
}
