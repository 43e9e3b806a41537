// Figure 4 — performance overhead (Eq. 7) of SBCETS, HWST128 and
// HWST128_tchk over the uninstrumented baseline for the MiBench, Olden
// and SPEC suites, plus the geometric means the paper quotes
// (SBCETS 441.45 %, HWST128 152.91 %, HWST128_tchk 94.89 %).
//
// Runs the workload × scheme grid on the exec engine (--jobs N) and
// records the rows in BENCH_fig4.json (docs/execution.md).
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

int fig4(const exec::GridOptions& grid)
{
    // Baseline first; the three instrumented columns follow.
    exec::GridSpec spec{.workloads = {},
                        .schemes = {Scheme::None, Scheme::Sbcets,
                                    Scheme::Hwst128, Scheme::Hwst128Tchk}};
    const std::vector<const char*> keys = {"sbcets", "hwst128",
                                           "hwst128_tchk"};

    std::vector<const workloads::Workload*> ws;
    for (const auto& w : workloads::all_workloads()) ws.push_back(&w);
    if (grid.smoke && ws.size() > 3) ws.resize(3);
    for (const auto* w : ws) spec.workloads.push_back(w->name);
    const std::vector<exec::Job> jobs = spec.jobs();

    std::optional<exec::Campaign> campaign;
    try {
        campaign.emplace("fig4", grid);
    } catch (const std::exception& e) {
        std::cerr << "fig4_overhead: " << e.what() << '\n';
        return 2;
    }
    const auto outcomes = campaign->run(jobs);

    std::cout << "Figure 4: performance overhead (%) vs uninstrumented "
                 "baseline, Eq. 7\n\n";
    common::TextTable table{{"suite", "workload", "base cycles", "sbcets%",
                             "hwst128%", "hwst128_tchk%"}};

    exec::json::Value rows = exec::json::Value::array();
    exec::json::Value incomplete = exec::json::Value::array();
    bool bad_result = false;
    std::vector<std::vector<double>> overheads(keys.size());
    const std::size_t per = spec.schemes.size();
    for (std::size_t wi = 0; wi < ws.size(); ++wi) {
        const auto* w = ws[wi];
        const std::size_t base_i = wi * per;
        // A workload row needs every scheme cell; any failed or skipped
        // cell drops the whole row from the table and the geo-means so
        // the aggregates never mix in partial data.
        bool row_ok = true;
        for (std::size_t si = 0; si < per; ++si) {
            const exec::JobOutcome& o = outcomes[base_i + si];
            if (o.status != exec::JobStatus::Ok ||
                o.result.exit_code != w->expected) {
                std::cerr << jobs[base_i + si].name << " failed: "
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
        const sim::RunResult& base = outcomes[base_i].result;
        std::vector<std::string> row{
            std::string{workloads::suite_name(w->suite)}, w->name,
            std::to_string(base.cycles)};
        exec::json::Value jrow = exec::json::Value::object();
        jrow["suite"] = workloads::suite_name(w->suite);
        jrow["workload"] = w->name;
        jrow["base_cycles"] = base.cycles;
        for (std::size_t si = 1; si < per; ++si) {
            const sim::RunResult& r = outcomes[base_i + si].result;
            const double oh = (static_cast<double>(r.cycles) /
                                   static_cast<double>(base.cycles) -
                               1.0) *
                              100.0;
            overheads[si - 1].push_back(oh);
            row.push_back(common::fmt(oh, 1));
            exec::json::Value cell = exec::json::Value::object();
            cell["cycles"] = r.cycles;
            cell["overhead_pct"] = oh;
            jrow[keys[si - 1]] = cell;
        }
        table.add_row(row);
        rows.push_back(jrow);
    }
    std::vector<std::string> means{"", "geo. mean", ""};
    exec::json::Value geo = exec::json::Value::object();
    for (std::size_t ki = 0; ki < keys.size(); ++ki) {
        if (overheads[ki].empty()) {
            means.push_back("n/a");
            geo[keys[ki]] = nullptr;
            continue;
        }
        const double g = common::geo_mean_overhead_pct(overheads[ki]);
        means.push_back(common::fmt(g, 2));
        geo[keys[ki]] = g;
    }
    table.add_row(means);
    table.print(std::cout);

    std::cout << "\npaper (Fig. 4 geo. means): SBCETS 441.45%, "
                 "HWST128 152.91%, HWST128_tchk 94.89%\n";

    exec::json::Value payload = exec::json::Value::object();
    exec::json::Value wl = exec::json::Value::array();
    for (const auto* w : ws) wl.push_back(w->name);
    payload["workloads"] = wl;
    payload["rows"] = rows;
    payload["geo_mean_overhead_pct"] = geo;
    payload["incomplete"] = incomplete;
    return campaign->finish(std::move(payload), jobs, outcomes, bad_result);
}

} // namespace hwst::exhibits
