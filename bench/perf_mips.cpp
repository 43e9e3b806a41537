// perf_mips — interpreter-throughput harness: how many simulated
// instructions per host second does the Machine retire? The simulator
// is the product, so host MIPS is our "fast as the hardware allows"
// metric (docs/performance.md); every entry lands in
// BENCH_interp_speed.json, the perf trajectory later PRs diff against
// (bench/baselines/BENCH_interp_speed.baseline.json).
//
// Runs the workload registry x a scheme list through the exec engine.
// Compilation happens outside the timed window: each job compiles its
// workload, then times run_machine alone, so the MIPS figure is pure
// interpreter throughput. Simulated observables (cycles, instret,
// checksums) are asserted against the registry's expected values — the
// harness fails loudly if a "speedup" changed simulation results.
//
// Flags: the shared grid vocabulary (--jobs/--json/--smoke/...) plus
//   --schemes a,b,c   comma list of schemes (default none,hwst128_tchk)
//   --tier NAME       pin the execution tier (auto|interp|dbt)
//   --repeat N        time each job N times on a fresh Machine and keep
//                     the fastest (best-of-N rejects scheduler stalls;
//                     simulated results are asserted identical across
//                     repeats)
//   --gate PCT        regression gate: geo-mean MIPS over the rows
//                     shared with the baseline must be within PCT% of
//                     the baseline's; exit 1 otherwise
//   --baseline PATH   baseline envelope for --gate (default
//                     bench/baselines/BENCH_interp_speed.baseline.json)
//   --rev STR         override the recorded git revision
#include <algorithm>
#include <iostream>
#include <map>
#include <sstream>
#include <vector>

#include "common/env.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "compiler/driver.hpp"
#include "exec/cli.hpp"
#include "exec/envelope.hpp"
#include "exec/simrun.hpp"
#include "workloads/workload.hpp"

using namespace hwst;
using compiler::Scheme;

namespace {

/// Host-side timing of one job's simulation phase, filled in by the job
/// body on the worker thread (index-aligned with the job grid, so no
/// synchronisation is needed beyond the engine's own join).
struct PerfCell {
    double run_ms = 0.0; ///< wall time inside run_machine only
    sim::DbtStats dbt;   ///< superblock-tier counters (host-side only)
    /// Tier the Machine actually resolved to (config + HWST_TIER).
    sim::ExecTier tier = sim::ExecTier::Interp;
};

Scheme scheme_from_name(const std::string& name)
{
    for (const Scheme s : compiler::kAllSchemes)
        if (compiler::scheme_name(s) == name) return s;
    throw common::ToolchainError{"unknown scheme: " + name};
}

std::vector<std::string> split_csv(const std::string& csv)
{
    std::vector<std::string> out;
    std::stringstream ss{csv};
    std::string item;
    while (std::getline(ss, item, ','))
        if (!item.empty()) out.push_back(item);
    return out;
}

} // namespace

int main(int argc, char** argv)
{
    exec::GridOptions grid;
    std::vector<Scheme> schemes = {Scheme::None, Scheme::Hwst128Tchk};
    std::string git_rev = exec::build_git_rev();
    sim::ExecTier tier = sim::ExecTier::Auto;
    unsigned repeat = 1;
    double gate_pct = -1.0;
    std::string baseline_path =
        "bench/baselines/BENCH_interp_speed.baseline.json";
    try {
        for (int i = 1; i < argc; ++i) {
            if (exec::parse_grid_flag(grid, argc, argv, i)) continue;
            const std::string a = argv[i];
            if (a == "--tier") {
                if (i + 1 >= argc)
                    throw common::ToolchainError{"--tier needs a name"};
                const auto t = common::parse_choice_flag(
                    argv[++i], {"auto", "interp", "dbt"});
                if (!t)
                    throw common::ToolchainError{
                        std::string{"--tier: unknown tier '"} + argv[i] +
                        "' (auto|interp|dbt)"};
                tier = static_cast<sim::ExecTier>(*t);
            } else if (a == "--gate") {
                if (i + 1 >= argc)
                    throw common::ToolchainError{
                        "--gate needs a percentage"};
                gate_pct = exec::percent_flag(a, argv[++i]);
            } else if (a == "--baseline") {
                if (i + 1 >= argc)
                    throw common::ToolchainError{"--baseline needs a path"};
                baseline_path = argv[++i];
            } else if (a == "--repeat") {
                if (i + 1 >= argc)
                    throw common::ToolchainError{"--repeat needs a count"};
                repeat = static_cast<unsigned>(
                    exec::count_flag(a, argv[++i], 1, 100));
            } else if (a == "--schemes") {
                if (i + 1 >= argc)
                    throw common::ToolchainError{"--schemes needs a list"};
                schemes.clear();
                for (const auto& name : split_csv(argv[++i]))
                    schemes.push_back(scheme_from_name(name));
                if (schemes.empty())
                    throw common::ToolchainError{"--schemes: empty list"};
            } else if (a == "--rev") {
                if (i + 1 >= argc)
                    throw common::ToolchainError{"--rev needs an argument"};
                git_rev = argv[++i];
            } else {
                throw common::ToolchainError{"unknown flag: " + a};
            }
        }
        // Host-timing rows are meaningless to replay: a cache-served
        // cell would report another run's MIPS as this one's.
        if (!grid.cache_dir.empty())
            throw common::ToolchainError{
                "perf_mips rows are host timings; --cache is not "
                "supported here"};
    } catch (const std::exception& e) {
        std::cerr << "perf_mips: " << e.what() << "\nflags:\n"
                  << exec::kGridFlagsHelp
                  << "  --schemes a,b,c  scheme list (default "
                     "none,hwst128_tchk)\n"
                     "  --tier NAME      execution tier: auto|interp|dbt "
                     "(default auto = dbt;\n"
                     "                   simulated results identical; the "
                     "HWST_TIER env var\n"
                     "                   overrides this flag)\n"
                     "  --repeat N       best-of-N timing per job "
                     "(default 1; rejects host\n"
                     "                   scheduler stalls)\n"
                     "  --gate PCT       fail (exit 1) if geo-mean MIPS "
                     "over the rows shared\n"
                     "                   with the baseline regresses more "
                     "than PCT%\n"
                     "  --baseline PATH  baseline envelope for --gate "
                     "(default\n"
                     "                   bench/baselines/"
                     "BENCH_interp_speed.baseline.json)\n"
                     "  --rev STR        record STR as the git revision\n";
        return 2;
    }

    std::vector<const workloads::Workload*> ws;
    for (const auto& w : workloads::all_workloads()) ws.push_back(&w);
    if (grid.smoke && ws.size() > 3) ws.resize(3);

    std::vector<exec::Job> jobs;
    std::vector<PerfCell> cells(ws.size() * schemes.size());
    for (const auto* w : ws) {
        for (const Scheme s : schemes) {
            const std::size_t idx = jobs.size();
            exec::Job job;
            job.name =
                w->name + "/" + std::string{compiler::scheme_name(s)};
            job.workload = w->name;
            job.scheme = compiler::scheme_name(s);
            // No cache key: a served job would have no host timing.
            job.body = [w, s, idx, tier, repeat,
                        &cells](const exec::JobContext& ctx) {
                const mir::Module module = w->build();
                compiler::CompiledProgram cp =
                    compiler::compile(module, s);
                cp.machine_config.tier = tier;
                // Best-of-N: each repeat is a fresh Machine (cold block
                // cache — warmup is part of what we measure), the
                // fastest wall time wins. A repeat that changes
                // simulated numbers is a determinism bug, not noise.
                sim::RunResult r;
                for (unsigned rep = 0; rep < repeat; ++rep) {
                    sim::Machine machine{cp.program, cp.machine_config};
                    const exec::Stopwatch stopwatch;
                    sim::RunResult rr =
                        exec::run_machine(machine, ctx.token);
                    const double ms = stopwatch.elapsed_ms();
                    if (rep == 0) {
                        r = rr;
                    } else if (rr.instret != r.instret ||
                               rr.cycles != r.cycles ||
                               rr.exit_code != r.exit_code) {
                        throw common::ToolchainError{
                            "repeat diverged: simulated numbers changed "
                            "between identical runs"};
                    }
                    if (rep == 0 || ms < cells[idx].run_ms) {
                        cells[idx].run_ms = ms;
                        cells[idx].dbt = machine.dbt_stats();
                        cells[idx].tier = machine.tier();
                    }
                }
                return r;
            };
            jobs.push_back(std::move(job));
        }
    }

    const exec::Engine engine{grid.engine()};
    const exec::Stopwatch stopwatch;
    const auto outcomes = engine.run(jobs);
    const double wall_ms = stopwatch.elapsed_ms();

    std::cout << "Interpreter throughput (host MIPS = simulated "
                 "instructions / host second / 1e6)\n\n";
    common::TextTable table{
        {"workload", "scheme", "instret", "run ms", "host MIPS"}};

    exec::json::Value rows = exec::json::Value::array();
    std::vector<double> mips_all;
    // workload/scheme -> MIPS, for the --gate baseline intersection.
    std::map<std::pair<std::string, std::string>, double> mips_by_key;
    bool bad_result = false;
    for (std::size_t wi = 0; wi < ws.size(); ++wi) {
        for (std::size_t si = 0; si < schemes.size(); ++si) {
            const std::size_t idx = wi * schemes.size() + si;
            const exec::JobOutcome& o = outcomes[idx];
            if (o.status != exec::JobStatus::Ok) {
                std::cerr << jobs[idx].name << " failed: "
                          << exec::job_status_name(o.status)
                          << (o.error.empty() ? "" : " (" + o.error + ")")
                          << '\n';
                continue;
            }
            if (o.result.exit_code != ws[wi]->expected) {
                std::cerr << jobs[idx].name
                          << ": wrong checksum (interpreter bug?): got "
                          << o.result.exit_code << ", expected "
                          << ws[wi]->expected << '\n';
                bad_result = true;
                continue;
            }
            const double run_ms = std::max(cells[idx].run_ms, 1e-6);
            const double mips =
                static_cast<double>(o.result.instret) / run_ms / 1e3;
            mips_all.push_back(mips);
            mips_by_key[{ws[wi]->name, jobs[idx].scheme}] = mips;
            table.add_row({ws[wi]->name, jobs[idx].scheme,
                           std::to_string(o.result.instret),
                           common::fmt(run_ms, 1), common::fmt(mips, 2)});
            exec::json::Value row = exec::json::Value::object();
            row["workload"] = ws[wi]->name;
            row["scheme"] = jobs[idx].scheme;
            row["instret"] = o.result.instret;
            row["cycles"] = o.result.cycles;
            row["run_ms"] = run_ms;
            row["mips"] = mips;
            // Host-side tier counters; json_check --equiv strips them
            // along with the other wall-clock fields.
            row["tier"] = std::string{sim::tier_name(cells[idx].tier)};
            exec::json::Value dbt = exec::json::Value::object();
            dbt["blocks"] = cells[idx].dbt.blocks;
            dbt["translated_ops"] = cells[idx].dbt.translated_ops;
            dbt["block_execs"] = cells[idx].dbt.block_execs;
            dbt["chained"] = cells[idx].dbt.chained;
            dbt["fallback_runs"] = cells[idx].dbt.fallback_runs;
            row["dbt"] = dbt;
            rows.push_back(row);
        }
    }

    exec::json::Value geo = nullptr;
    std::vector<std::string> means{"geo. mean", "", "", ""};
    if (!mips_all.empty()) {
        const double g = common::geo_mean(mips_all);
        geo = g;
        means.push_back(common::fmt(g, 2));
    } else {
        means.push_back("n/a");
    }
    table.add_row(means);
    table.print(std::cout);

    if (grid.json) {
        exec::json::Value payload = exec::json::Value::object();
        payload["git_rev"] = git_rev;
        exec::json::Value snames = exec::json::Value::array();
        for (const Scheme s : schemes)
            snames.push_back(compiler::scheme_name(s));
        payload["schemes"] = snames;
        // Requested tier (rows record what each Machine resolved to).
        payload["tier"] = std::string{sim::tier_name(tier)};
        payload["repeat"] = static_cast<common::u64>(repeat);
        payload["rows"] = rows;
        payload["geo_mean_mips"] = geo;
        payload["summary"] = exec::summary_json(jobs, outcomes);
        const std::string path = exec::write_bench_json(
            "interp_speed", exec::resolve_jobs(grid.jobs), wall_ms,
            payload, grid.json_path);
        std::cout << "wrote " << path << '\n';
    }
    // Regression gate: geo-mean over the (workload, scheme) rows this
    // run shares with the baseline, against the baseline's geo-mean
    // over the same rows — so a --smoke run gates against the matching
    // slice of a full-grid baseline instead of comparing apples to the
    // whole orchard. The tolerance is deliberately lenient (tier-smoke
    // passes 30%): host MIPS is noisy, and the gate is for catching
    // "the tier got 2x slower", not 5% jitter.
    if (gate_pct >= 0.0) {
        try {
            const auto base = exec::read_bench_json(baseline_path);
            const auto* brows = base.find("rows");
            if (!brows || !brows->is_array())
                throw common::ToolchainError{
                    "baseline has no rows array: " + baseline_path};
            std::vector<double> cur, ref;
            for (const auto& brow : brows->items()) {
                const auto* wn = brow.find("workload");
                const auto* sn = brow.find("scheme");
                const auto* bm = brow.find("mips");
                if (!wn || !wn->is_string() || !sn || !sn->is_string() ||
                    !bm || !bm->is_number())
                    continue;
                const auto it = mips_by_key.find(
                    {wn->as_string(), sn->as_string()});
                if (it == mips_by_key.end()) continue;
                cur.push_back(it->second);
                ref.push_back(bm->as_double());
            }
            if (cur.empty())
                throw common::ToolchainError{
                    "baseline shares no rows with this run: " +
                    baseline_path};
            const double g_cur = common::geo_mean(cur);
            const double g_ref = common::geo_mean(ref);
            const double floor = g_ref * (1.0 - gate_pct / 100.0);
            std::cout << "gate: geo-mean " << common::fmt(g_cur, 2)
                      << " MIPS vs baseline " << common::fmt(g_ref, 2)
                      << " over " << cur.size() << " shared rows (floor "
                      << common::fmt(floor, 2) << " at -" << gate_pct
                      << "%)\n";
            if (g_cur < floor) {
                std::cerr << "perf_mips: gate FAILED: geo-mean "
                          << common::fmt(g_cur, 2)
                          << " MIPS regressed more than " << gate_pct
                          << "% below baseline "
                          << common::fmt(g_ref, 2) << " ("
                          << baseline_path << ")\n";
                return 1;
            }
        } catch (const std::exception& e) {
            std::cerr << "perf_mips: --gate: " << e.what() << '\n';
            return 2;
        }
    }
    const int rc = exec::grid_exit_code(outcomes);
    if (rc == 0 && bad_result) return 1;
    return rc;
}
