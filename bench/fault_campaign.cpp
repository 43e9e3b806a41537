// fault_campaign — the metadata fault-injection campaign
// (exhibits::fault_campaign): exit 0 iff no silent corruption at a
// metadata-protected point and no timed-out run.
//
//   fault_campaign                                # seed configuration
//   fault_campaign --seeds 50 --mode stuck-at
//   fault_campaign --scheme hwst128 --workloads crc32
//   fault_campaign --points srf-spatial-write,lmsm-load --seed 7
//   fault_campaign --jobs 8 --json                # parallel + JSON
#include <iostream>
#include <limits>
#include <sstream>
#include <string>

#include "common/error.hpp"
#include "exhibits/exhibits.hpp"

using namespace hwst;
using fault::CampaignConfig;

namespace {

compiler::Scheme parse_scheme(const std::string& name)
{
    for (const compiler::Scheme s : compiler::kAllSchemes)
        if (compiler::scheme_name(s) == name) return s;
    throw common::ToolchainError{"unknown scheme: " + name};
}

sim::Probe parse_point(const std::string& name)
{
    for (const sim::Probe p : fault::all_probes())
        if (sim::probe_name(p) == name) return p;
    throw common::ToolchainError{"unknown injection point: " + name};
}

std::vector<std::string> split_csv(const std::string& s)
{
    std::vector<std::string> out;
    std::istringstream in{s};
    std::string item;
    while (std::getline(in, item, ',')) {
        if (!item.empty()) out.push_back(item);
    }
    return out;
}

CampaignConfig parse(int argc, char** argv, exec::GridOptions& grid)
{
    // The BENCH json is opt-in here: the campaign's primary contract is
    // its deterministic table + exit status.
    grid.json = false;
    CampaignConfig cfg;
    for (int i = 1; i < argc; ++i) {
        if (exec::parse_grid_flag(grid, argc, argv, i)) continue;
        const std::string a = argv[i];
        const auto need = [&](const char* what) -> std::string {
            if (i + 1 >= argc)
                throw common::ToolchainError{std::string{what} +
                                             " needs an argument"};
            return argv[++i];
        };
        if (a == "--seeds") {
            cfg.seeds_per_point = static_cast<unsigned>(
                exec::count_flag(a, need("--seeds"), 1,
                                 std::numeric_limits<unsigned>::max()));
        } else if (a == "--seed") {
            cfg.base_seed = exec::count_flag(a, need("--seed"));
        } else if (a == "--scheme") {
            cfg.scheme = parse_scheme(need("--scheme"));
        } else if (a == "--mode") {
            cfg.mode = fault::fault_mode_from_name(need("--mode"));
        } else if (a == "--workloads") {
            cfg.workloads = split_csv(need("--workloads"));
        } else if (a == "--points") {
            cfg.points.clear();
            for (const auto& name : split_csv(need("--points")))
                cfg.points.push_back(parse_point(name));
        } else {
            throw common::ToolchainError{"unknown flag: " + a +
                                         "\nshared grid flags:\n" +
                                         exec::kGridFlagsHelp};
        }
    }
    return cfg;
}

} // namespace

int main(int argc, char** argv)
{
    exec::GridOptions grid;
    CampaignConfig cfg;
    try {
        cfg = parse(argc, argv, grid);
    } catch (const std::exception& e) {
        std::cerr << "fault_campaign: " << e.what() << '\n';
        return 2;
    }
    return exhibits::fault_campaign(grid, std::move(cfg));
}
