// Figure 5 — speedup factor (Eq. 8: SBCETS cycles / accelerated cycles)
// of the BOGO, WatchdogLite (narrow/wide) comparator cost models and
// HWST128 on the SPEC subset. Paper geo-means: BOGO 1.31x, WDL narrow
// 1.58x, WDL wide 1.64x, HWST128 3.74x (bzip2 7.98x, hmmer 7.78x).
//
// Runs the workload × scheme grid on the exec engine (--jobs N) and
// records the rows in BENCH_fig5.json. Serial and parallel runs produce
// bit-identical tables and geo-means (docs/execution.md).
//
// Note on lbm: on the paper's board SBCETS lbm could not finish
// (insufficient memory); our simulated heap is larger, so the row is
// measured — the paper's DNF is recorded in EXPERIMENTS.md.
#include <iostream>
#include <optional>
#include <vector>

#include "common/stats.hpp"
#include "common/table.hpp"
#include "exec/envelope.hpp"
#include "exec/simrun.hpp"
#include "exhibits/exhibits.hpp"
#include "workloads/workload.hpp"

namespace hwst::exhibits {

using compiler::Scheme;

int fig5(const exec::GridOptions& grid)
{
    // Column order of the table; SBCETS is the Eq. 8 denominator.
    exec::GridSpec spec{.workloads = {},
                        .schemes = {Scheme::Sbcets, Scheme::Bogo,
                                    Scheme::WdlNarrow, Scheme::WdlWide,
                                    Scheme::Hwst128Tchk}};
    const std::vector<const char*> accel_keys = {"bogo", "wdl_narrow",
                                                 "wdl_wide", "hwst128"};

    std::vector<const workloads::Workload*> ws = workloads::spec_workloads();
    if (grid.smoke && ws.size() > 2) ws.resize(2);
    for (const auto* w : ws) spec.workloads.push_back(w->name);
    const std::vector<exec::Job> jobs = spec.jobs();

    std::optional<exec::Campaign> campaign;
    try {
        campaign.emplace("fig5", grid);
    } catch (const std::exception& e) {
        std::cerr << "fig5_speedup: " << e.what() << '\n';
        return 2;
    }
    const auto outcomes = campaign->run(jobs);

    std::cout << "Figure 5: speedup factor over SBCETS (Eq. 8)\n\n";
    common::TextTable table{{"workload", "sbcets cycles", "bogo",
                             "wdl_narrow", "wdl_wide", "hwst128"}};

    exec::json::Value rows = exec::json::Value::array();
    exec::json::Value incomplete = exec::json::Value::array();
    bool bad_result = false;
    const std::size_t per = spec.schemes.size();
    std::vector<std::vector<double>> per_accel(per - 1);
    for (std::size_t wi = 0; wi < ws.size(); ++wi) {
        const auto* w = ws[wi];
        const std::size_t base = wi * per;
        // Speedups need both the SBCETS denominator and the accelerated
        // cell; drop the whole row (and its geo-mean contribution) when
        // any cell failed or was skipped.
        bool row_ok = true;
        for (std::size_t si = 0; si < per; ++si) {
            const exec::JobOutcome& o = outcomes[base + si];
            if (o.status != exec::JobStatus::Ok ||
                o.result.exit_code != w->expected) {
                std::cerr << jobs[base + si].name << " failed: "
                          << exec::job_status_name(o.status)
                          << (o.error.empty() ? "" : " (" + o.error + ")")
                          << '\n';
                if (o.status == exec::JobStatus::Ok) bad_result = true;
                row_ok = false;
            }
        }
        if (!row_ok) {
            incomplete.push_back(w->name);
            continue;
        }
        const sim::RunResult& sb = outcomes[base].result;
        std::vector<std::string> row{w->name, std::to_string(sb.cycles)};
        exec::json::Value jrow = exec::json::Value::object();
        jrow["workload"] = w->name;
        jrow["sbcets_cycles"] = sb.cycles;
        for (std::size_t ai = 0; ai + 1 < per; ++ai) {
            const sim::RunResult& r = outcomes[base + ai + 1].result;
            const double speedup = static_cast<double>(sb.cycles) /
                                   static_cast<double>(r.cycles);
            per_accel[ai].push_back(speedup);
            row.push_back(common::fmt(speedup, 2) + "x");
            exec::json::Value cell = exec::json::Value::object();
            cell["cycles"] = r.cycles;
            cell["speedup"] = speedup;
            jrow[accel_keys[ai]] = cell;
        }
        table.add_row(row);
        rows.push_back(jrow);
    }
    std::vector<std::string> means{"geo. mean", ""};
    exec::json::Value geo = exec::json::Value::object();
    for (std::size_t ai = 0; ai < per_accel.size(); ++ai) {
        if (per_accel[ai].empty()) {
            means.push_back("n/a");
            geo[accel_keys[ai]] = nullptr;
            continue;
        }
        const double g = common::geo_mean(per_accel[ai]);
        means.push_back(common::fmt(g, 2) + "x");
        geo[accel_keys[ai]] = g;
    }
    table.add_row(means);
    table.print(std::cout);

    std::cout << "\npaper (Fig. 5 geo. means): BOGO 1.31x, WDL narrow "
                 "1.58x, WDL wide 1.64x, HWST128 3.74x\n";

    exec::json::Value payload = exec::json::Value::object();
    exec::json::Value wl = exec::json::Value::array();
    for (const auto* w : ws) wl.push_back(w->name);
    payload["workloads"] = wl;
    payload["rows"] = rows;
    payload["geo_means"] = geo;
    payload["incomplete"] = incomplete;
    return campaign->finish(std::move(payload), jobs, outcomes, bad_result);
}

} // namespace hwst::exhibits
