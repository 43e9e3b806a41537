// Ablation studies for the design choices DESIGN.md §5 calls out:
//   1. keybuffer size (incl. disabled) — the HWST128 vs HWST128_tchk gap
//   2. metadata compression (128-bit compressed vs 256-bit raw traffic)
//   3. SBCETS shadow organisation (two-level trie vs linear map)
//   4. D-cache capacity sensitivity of each scheme
//   5. overhead decomposition via csr.status
// Each ablation enumerates its (workload × config) grid on the exec
// engine (--jobs N) and formats the outcomes in grid order, so every
// table is identical at any thread count. All five land in
// BENCH_ablations.json.
#include <iostream>
#include <optional>
#include <vector>

#include "common/stats.hpp"
#include "common/table.hpp"
#include "compiler/codegen.hpp"
#include "compiler/driver.hpp"
#include "compiler/emitters.hpp"
#include "exec/envelope.hpp"
#include "exec/simrun.hpp"
#include "exhibits/exhibits.hpp"
#include "workloads/workload.hpp"

namespace hwst::exhibits {

using compiler::Scheme;
using common::u64;

namespace {

double overhead_pct(u64 cycles, u64 base)
{
    return (static_cast<double>(cycles) / static_cast<double>(base) - 1.0) *
           100.0;
}

/// A job whose run uses a bespoke SafetyEmitter instead of a named
/// scheme. The emitter is constructed inside the body, on the worker
/// thread, so concurrent jobs never share one.
template <typename MakeEmitter>
exec::Job emitter_job(std::string name, const workloads::Workload& w,
                      MakeEmitter make_em)
{
    return exec::Job{
        .name = std::move(name),
        .workload = w.name,
        .scheme = "custom",
        .body =
            [&w, make_em](const exec::JobContext& ctx) {
                // Codegen keeps a reference to the module: keep it alive
                // for the whole compile.
                const mir::Module module = w.build();
                auto em = make_em();
                compiler::Codegen cg{module, em};
                const auto program = cg.compile();
                return exec::run_program(program, em.machine_config(),
                                         ctx);
            },
    };
}

/// Run one ablation's grid and unwrap the results; any failed job aborts
/// the ablation (these grids have no expected-failure rows).
std::vector<sim::RunResult> run_grid(const exec::Campaign& campaign,
                                     const std::vector<exec::Job>& jobs)
{
    const auto outcomes = campaign.run(jobs);
    std::vector<sim::RunResult> rs;
    rs.reserve(outcomes.size());
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
        if (outcomes[i].status != exec::JobStatus::Ok)
            throw common::ToolchainError{
                jobs[i].name + " failed: " +
                std::string{exec::job_status_name(outcomes[i].status)} +
                (outcomes[i].error.empty() ? ""
                                           : " (" + outcomes[i].error + ")")};
        rs.push_back(outcomes[i].result);
    }
    return rs;
}

exec::json::Value keybuffer_sweep(const exec::Campaign& campaign, bool smoke)
{
    std::cout << "== Ablation 1: keybuffer size (HWST128_tchk overhead %, "
                 "Eq. 7) ==\n";
    std::vector<std::string> names = {"bzip2", "health", "treeadd", "crc32"};
    if (smoke) names = {"crc32"};
    const std::vector<int> sizes = {0, 1, 2, 4, 8, 16};

    // Grid per workload: [baseline, tchk@size..., sw key load].
    std::vector<exec::Job> jobs;
    for (const auto& name : names) {
        const auto& w = workloads::workload(name);
        jobs.push_back(exec::make_sim_job(name + "/base", name, Scheme::None,
                                          w.build));
        for (const int entries : sizes) {
            jobs.push_back(exec::make_sim_job(
                name + "/kb" + std::to_string(entries), name,
                Scheme::Hwst128Tchk, w.build,
                [entries](sim::MachineConfig& cfg) {
                    if (entries == 0) {
                        cfg.keybuffer_enabled = false;
                        cfg.keybuffer_entries = 1;
                    } else {
                        cfg.keybuffer_entries =
                            static_cast<unsigned>(entries);
                    }
                }));
        }
        jobs.push_back(exec::make_sim_job(name + "/sw-key-load", name,
                                          Scheme::Hwst128, w.build));
    }
    const auto rs = run_grid(campaign, jobs);

    common::TextTable t{{"workload", "disabled", "1", "2", "4", "8 (paper)",
                         "16", "sw key load (HWST128)"}};
    exec::json::Value rows = exec::json::Value::array();
    const std::size_t per = sizes.size() + 2;
    for (std::size_t wi = 0; wi < names.size(); ++wi) {
        const u64 base = rs[wi * per].cycles;
        std::vector<std::string> row{names[wi]};
        exec::json::Value jrow = exec::json::Value::object();
        jrow["workload"] = names[wi];
        for (std::size_t k = 0; k < sizes.size(); ++k) {
            const double pct =
                overhead_pct(rs[wi * per + 1 + k].cycles, base);
            row.push_back(common::fmt(pct, 1));
            jrow[sizes[k] == 0 ? "disabled"
                               : "kb" + std::to_string(sizes[k])] = pct;
        }
        const double sw =
            overhead_pct(rs[wi * per + 1 + sizes.size()].cycles, base);
        row.push_back(common::fmt(sw, 1));
        jrow["sw_key_load"] = sw;
        t.add_row(row);
        rows.push_back(jrow);
    }
    t.print(std::cout);
    std::cout << '\n';
    return rows;
}

exec::json::Value compression_ablation(const exec::Campaign& campaign,
                                       bool smoke)
{
    std::cout << "== Ablation 2: metadata compression (overhead %, "
                 "compressed 128b vs raw 256b traffic) ==\n";
    std::vector<std::string> names = {"bzip2", "treeadd", "em3d",
                                      "dijkstra"};
    if (smoke) names = {"treeadd"};

    // Grid per workload: [baseline, compressed, uncompressed].
    std::vector<exec::Job> jobs;
    for (const auto& name : names) {
        const auto& w = workloads::workload(name);
        jobs.push_back(exec::make_sim_job(name + "/base", name, Scheme::None,
                                          w.build));
        jobs.push_back(emitter_job(name + "/compressed", w, [] {
            return compiler::HwstEmitter{true, false};
        }));
        jobs.push_back(emitter_job(name + "/raw", w, [] {
            return compiler::HwstEmitter{true, true};
        }));
    }
    const auto rs = run_grid(campaign, jobs);

    common::TextTable t{{"workload", "compressed (paper)", "uncompressed",
                         "extra meta ops"}};
    exec::json::Value rows = exec::json::Value::array();
    for (std::size_t wi = 0; wi < names.size(); ++wi) {
        const u64 base = rs[wi * 3].cycles;
        const sim::RunResult& rc = rs[wi * 3 + 1];
        const sim::RunResult& rr = rs[wi * 3 + 2];
        t.add_row({names[wi], common::fmt(overhead_pct(rc.cycles, base), 1),
                   common::fmt(overhead_pct(rr.cycles, base), 1),
                   std::to_string(rr.mix.meta_moves - rc.mix.meta_moves)});
        exec::json::Value jrow = exec::json::Value::object();
        jrow["workload"] = names[wi];
        jrow["compressed_pct"] = overhead_pct(rc.cycles, base);
        jrow["uncompressed_pct"] = overhead_pct(rr.cycles, base);
        jrow["extra_meta_ops"] = rr.mix.meta_moves - rc.mix.meta_moves;
        rows.push_back(jrow);
    }
    t.print(std::cout);
    std::cout << '\n';
    return rows;
}

exec::json::Value trie_ablation(const exec::Campaign& campaign, bool smoke)
{
    std::cout << "== Ablation 3: SBCETS shadow organisation (overhead %) "
                 "==\n";
    std::vector<std::string> names = {"bzip2", "health", "crc32", "milc"};
    if (smoke) names = {"crc32"};

    std::vector<exec::Job> jobs;
    for (const auto& name : names) {
        const auto& w = workloads::workload(name);
        jobs.push_back(exec::make_sim_job(name + "/base", name, Scheme::None,
                                          w.build));
        jobs.push_back(emitter_job(name + "/trie", w, [] {
            return compiler::SbcetsEmitter{};
        }));
        jobs.push_back(emitter_job(name + "/linear", w, [] {
            return compiler::SbcetsEmitter{
                compiler::SbcetsEmitter::Options{.trie = false}};
        }));
    }
    const auto rs = run_grid(campaign, jobs);

    common::TextTable t{{"workload", "trie (SoftBound)", "linear map"}};
    exec::json::Value rows = exec::json::Value::array();
    for (std::size_t wi = 0; wi < names.size(); ++wi) {
        const u64 base = rs[wi * 3].cycles;
        const double trie = overhead_pct(rs[wi * 3 + 1].cycles, base);
        const double linear = overhead_pct(rs[wi * 3 + 2].cycles, base);
        t.add_row({names[wi], common::fmt(trie, 1),
                   common::fmt(linear, 1)});
        exec::json::Value jrow = exec::json::Value::object();
        jrow["workload"] = names[wi];
        jrow["trie_pct"] = trie;
        jrow["linear_pct"] = linear;
        rows.push_back(jrow);
    }
    t.print(std::cout);
    std::cout << "(the linear map is what the LMSM+SMAC give the hardware "
                 "for free)\n\n";
    return rows;
}

exec::json::Value cache_sweep(const exec::Campaign& campaign, bool smoke)
{
    std::cout << "== Ablation 4: D-cache capacity (overhead %, em3d) ==\n";
    std::vector<unsigned> set_counts = {16u, 64u, 256u};
    if (smoke) set_counts.resize(1);
    const auto& w = workloads::workload("em3d");
    const std::vector<Scheme> schemes = {Scheme::Sbcets,
                                         Scheme::Hwst128Tchk};

    // Grid per set count: [baseline, sbcets, hwst128_tchk], all with the
    // shrunk cache.
    std::vector<exec::Job> jobs;
    for (const unsigned sets : set_counts) {
        const auto tweak = [sets](sim::MachineConfig& cfg) {
            cfg.dcache.sets = sets;
        };
        jobs.push_back(exec::make_sim_job(
            "em3d/base@" + std::to_string(sets), w.name, Scheme::None,
            w.build, tweak));
        for (const Scheme s : schemes) {
            jobs.push_back(exec::make_sim_job(
                "em3d/" + std::string{compiler::scheme_name(s)} + "@" +
                    std::to_string(sets),
                w.name, s, w.build, tweak));
        }
    }
    const auto rs = run_grid(campaign, jobs);

    common::TextTable t{{"dcache", "sbcets", "hwst128_tchk"}};
    exec::json::Value rows = exec::json::Value::array();
    const std::size_t per = 1 + schemes.size();
    for (std::size_t ci = 0; ci < set_counts.size(); ++ci) {
        const unsigned kib = set_counts[ci] * 4 * 64 / 1024;
        const u64 base = rs[ci * per].cycles;
        std::vector<std::string> row{std::to_string(kib) + " KiB"};
        exec::json::Value jrow = exec::json::Value::object();
        jrow["dcache_kib"] = kib;
        for (std::size_t si = 0; si < schemes.size(); ++si) {
            const double pct =
                overhead_pct(rs[ci * per + 1 + si].cycles, base);
            row.push_back(common::fmt(pct, 1));
            jrow[std::string{compiler::scheme_name(schemes[si])}] = pct;
        }
        t.add_row(row);
        rows.push_back(jrow);
    }
    t.print(std::cout);
    std::cout << "(shadow traffic doubles the working set: small caches "
                 "punish metadata-heavy schemes hardest)\n\n";
    return rows;
}

exec::json::Value status_decomposition(const exec::Campaign& campaign,
                                       bool smoke)
{
    std::cout << "== Ablation 5: overhead decomposition via csr.status "
                 "(HWST128_tchk) ==\n";
    std::vector<std::string> names = {"bzip2", "treeadd", "dijkstra"};
    if (smoke) names = {"treeadd"};
    const std::vector<u64> statuses = {0, 1, 3};

    std::vector<exec::Job> jobs;
    for (const auto& name : names) {
        const auto& w = workloads::workload(name);
        jobs.push_back(exec::make_sim_job(name + "/base", name, Scheme::None,
                                          w.build));
        for (const u64 status : statuses) {
            jobs.push_back(emitter_job(
                name + "/status" + std::to_string(status), w, [status] {
                    return compiler::HwstEmitter{true, false, status};
                }));
        }
    }
    const auto rs = run_grid(campaign, jobs);

    common::TextTable t{{"workload", "checks off", "spatial only",
                         "spatial+temporal (paper)"}};
    exec::json::Value rows = exec::json::Value::array();
    const std::size_t per = 1 + statuses.size();
    const std::vector<std::string> keys = {"checks_off_pct",
                                           "spatial_only_pct",
                                           "spatial_temporal_pct"};
    for (std::size_t wi = 0; wi < names.size(); ++wi) {
        const u64 base = rs[wi * per].cycles;
        std::vector<std::string> row{names[wi]};
        exec::json::Value jrow = exec::json::Value::object();
        jrow["workload"] = names[wi];
        for (std::size_t k = 0; k < statuses.size(); ++k) {
            const double pct =
                overhead_pct(rs[wi * per + 1 + k].cycles, base);
            row.push_back(common::fmt(pct, 1));
            jrow[keys[k]] = pct;
        }
        t.add_row(row);
        rows.push_back(jrow);
    }
    t.print(std::cout);
    std::cout << "(even with the check units gated off, the metadata "
                 "binding and propagation traffic remains -- the floor "
                 "the compression and keybuffer attack)\n";
    return rows;
}

} // namespace

int ablations(const exec::GridOptions& grid)
{
    std::cout << "HWST128 design-choice ablations (DESIGN.md 5)\n\n";
    std::optional<exec::Campaign> campaign;
    try {
        campaign.emplace("ablations", grid);
    } catch (const std::exception& e) {
        std::cerr << "ablations: " << e.what() << '\n';
        return 2;
    }
    try {
        exec::json::Value payload = exec::json::Value::object();
        payload["keybuffer"] = keybuffer_sweep(*campaign, grid.smoke);
        payload["compression"] = compression_ablation(*campaign, grid.smoke);
        payload["sbcets_shadow"] = trie_ablation(*campaign, grid.smoke);
        payload["dcache"] = cache_sweep(*campaign, grid.smoke);
        payload["status_decomposition"] =
            status_decomposition(*campaign, grid.smoke);
        if (grid.json) {
            std::cout << '\n';
            campaign->write(payload);
        }
    } catch (const std::exception& e) {
        std::cerr << "ablations: " << e.what() << '\n';
        return 1;
    }
    return 0;
}

} // namespace hwst::exhibits
