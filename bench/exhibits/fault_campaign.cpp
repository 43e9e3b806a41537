// The metadata fault-injection campaign: sweep N seeded single-event
// upsets per injection point, classify every run with the
// trap-or-survive oracle, and print the aggregate detection table. The
// headline invariant: under the full HWST128 scheme, SRF and LMSM
// faults are never silent — corrupted metadata can fire a spurious trap
// or change nothing, but it cannot alter program output unnoticed.
#include <algorithm>
#include <iostream>
#include <memory>

#include "common/error.hpp"
#include "exec/envelope.hpp"
#include "exhibits/exhibits.hpp"

namespace hwst::exhibits {

int fault_campaign(const exec::GridOptions& grid, fault::CampaignConfig cfg)
{
    try {
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

} // namespace hwst::exhibits
