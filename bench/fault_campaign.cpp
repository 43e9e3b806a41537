// fault_campaign — the metadata fault-injection campaign harness: sweep
// N seeded single-event upsets per injection point, classify every run
// with the trap-or-survive oracle, and print the aggregate detection
// table. The headline invariant: under the full HWST128 scheme, SRF and
// LMSM faults are never silent — corrupted metadata can fire a spurious
// trap or change nothing, but it cannot alter program output unnoticed.
//
//   fault_campaign                                # seed configuration
//   fault_campaign --seeds 50 --mode stuck-at
//   fault_campaign --scheme hwst128 --workloads crc32
//   fault_campaign --points srf-spatial-write,lmsm-load --seed 7
//   fault_campaign --jobs 8 --json                # parallel + JSON
#include <algorithm>
#include <iostream>
#include <limits>
#include <memory>
#include <sstream>
#include <string>

#include "common/error.hpp"
#include "exec/cli.hpp"
#include "exec/envelope.hpp"
#include "fault/campaign.hpp"

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
    if (grid.smoke) {
        cfg.seeds_per_point = std::min(cfg.seeds_per_point, 2u);
        if (cfg.workloads.size() > 1) cfg.workloads.resize(1);
    }
    cfg.jobs = grid.jobs;
    cfg.timeout_ms = grid.timeout_ms;
    if (cfg.workloads.empty() || cfg.points.empty() ||
        cfg.seeds_per_point == 0) {
        throw common::ToolchainError{
            "campaign needs at least one workload, point and seed"};
    }
    return cfg;
}

} // namespace

int main(int argc, char** argv)
{
    try {
        exec::GridOptions grid;
        CampaignConfig cfg = parse(argc, argv, grid);
        // The result cache for the classified faulted runs (--cache /
        // HWST_CACHE).
        const std::unique_ptr<exec::ResultCache> cache =
            exec::open_cache(grid);
        cfg.cache = cache.get();
        const exec::Stopwatch stopwatch;
        const auto report = fault::run_campaign(cfg);
        const double wall_ms = stopwatch.elapsed_ms();
        report.print(std::cout);
        if (grid.json) {
            exec::json::Value payload = report.to_json();
            if (cache) payload["cache"] = cache->stats_json();
            const std::string path = exec::write_bench_json(
                "fault_campaign", exec::resolve_jobs(grid.jobs), wall_ms,
                payload, grid.json_path);
            std::cout << "wrote " << path << '\n';
        }
        // Exit status checks the completeness invariant first: no
        // silent corruption at metadata-protected points
        // (dcache-fill-data is outside HWST's protection domain — ECC's
        // job — and expected to corrupt silently). Beyond that,
        // unclassified (timed-out) runs fail the campaign.
        if (report.protected_silent() != 0) return 1;
        if (report.total_timeouts() != 0) return 1;
        return 0;
    } catch (const std::exception& e) {
        std::cerr << "fault_campaign: " << e.what() << '\n';
        return 2;
    }
}
