#include <iostream>

#include "exhibits/exhibits.hpp"

namespace hwst::exhibits {

int grid_main(const char* harness, int argc, char** argv,
              int (*exhibit)(const exec::GridOptions&))
{
    exec::GridOptions grid;
    try {
        for (int i = 1; i < argc; ++i) {
            if (!exec::parse_grid_flag(grid, argc, argv, i))
                throw common::ToolchainError{std::string{"unknown flag: "} +
                                             argv[i]};
        }
    } catch (const std::exception& e) {
        std::cerr << harness << ": " << e.what() << "\nflags:\n"
                  << exec::kGridFlagsHelp;
        return 2;
    }
    return exhibit(grid);
}

} // namespace hwst::exhibits
