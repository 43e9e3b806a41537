// hwst_run — the toolchain's command-line front end: compile a workload
// (or a generated Juliet case) under any protection scheme, tweak the
// microarchitecture, and run it or export the FPGA artifacts. Comma
// lists in --workload / --scheme form a grid that fans out over the
// exec engine (--jobs N) and prints one summary row per cell.
//
//   hwst_run --list
//   hwst_run --workload bzip2 --scheme hwst128_tchk
//   hwst_run --workload treeadd --scheme sbcets --keybuffer 16
//            --dcache-kib 64  (flags combine freely)
//   hwst_run --workload crc32,treeadd --scheme none,hwst128_tchk --jobs 4
//   hwst_run --workload crc32 --scheme hwst128_tchk --json run.json
//   hwst_run --juliet CWE122:40 --scheme hwst128_tchk
//   hwst_run --workload crc32 --scheme hwst128_tchk --emit-hex out.hex
//   hwst_run --workload crc32 --listing
//   hwst_run --workload milc,lbm --scheme sbcets,hwst128_tchk
//            --cache DIR --expect-cached 100  (exit 3 when fewer cells
//                                              were cache-served)
#include <fstream>
#include <iostream>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/table.hpp"
#include "compiler/driver.hpp"
#include "exec/cache.hpp"
#include "exec/cli.hpp"
#include "exec/envelope.hpp"
#include "exec/simrun.hpp"
#include "juliet/cases.hpp"
#include "riscv/image.hpp"
#include "workloads/workload.hpp"

using namespace hwst;
using compiler::Scheme;
using common::u64;

namespace {

struct Options {
    std::vector<std::string> workloads;
    std::optional<juliet::CaseSpec> juliet;
    std::vector<Scheme> schemes{Scheme::Hwst128Tchk};
    unsigned keybuffer = 8;
    bool keybuffer_set = false;
    unsigned dcache_kib = 0;
    std::string emit_hex;
    std::string emit_image;
    bool listing = false;
    bool list = false;
    double expect_cached = -1; ///< --expect-cached PCT (exit 3 below it)
    exec::GridOptions grid;
};

Scheme parse_scheme(const std::string& name)
{
    for (const Scheme s : compiler::kAllSchemes)
        if (compiler::scheme_name(s) == name) return s;
    throw common::ToolchainError{"unknown scheme: " + name +
                                 " (try: none gcc sbcets hwst128 "
                                 "hwst128_tchk asan bogo wdl_narrow "
                                 "wdl_wide)"};
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

juliet::CaseSpec parse_juliet(const std::string& arg)
{
    const auto colon = arg.find(':');
    if (colon == std::string::npos)
        throw common::ToolchainError{"juliet case must be CWE<k>:<index>"};
    const std::string cwe = arg.substr(0, colon);
    const auto index = static_cast<common::u32>(exec::count_flag(
        "--juliet index", std::string_view{arg}.substr(colon + 1), 0,
        std::numeric_limits<common::u32>::max()));
    for (const auto& [c, count] : juliet::cwe_counts()) {
        if (juliet::cwe_name(c) == cwe)
            return juliet::make_spec(c, index, true);
    }
    throw common::ToolchainError{"unknown CWE: " + cwe};
}

Options parse(int argc, char** argv)
{
    Options o;
    // JSON stays opt-in for a front end whose default output is a
    // human-readable report.
    o.grid.json = false;
    for (int i = 1; i < argc; ++i) {
        if (exec::parse_grid_flag(o.grid, argc, argv, i)) continue;
        const std::string a = argv[i];
        const auto need = [&](const char* what) -> std::string {
            if (i + 1 >= argc)
                throw common::ToolchainError{std::string{what} +
                                             " needs an argument"};
            return argv[++i];
        };
        if (a == "--workload") o.workloads = split_csv(need("--workload"));
        else if (a == "--juliet") o.juliet = parse_juliet(need("--juliet"));
        else if (a == "--scheme") {
            o.schemes.clear();
            for (const auto& name : split_csv(need("--scheme")))
                o.schemes.push_back(parse_scheme(name));
            if (o.schemes.empty())
                throw common::ToolchainError{"--scheme needs a name"};
        } else if (a == "--keybuffer") {
            o.keybuffer = static_cast<unsigned>(
                exec::count_flag(a, need("--keybuffer"), 1, 1u << 20));
            o.keybuffer_set = true;
        } else if (a == "--dcache-kib")
            // At most 2^20 KiB, so the set count cannot overflow.
            o.dcache_kib = static_cast<unsigned>(
                exec::count_flag(a, need("--dcache-kib"), 1, 1u << 20));
        else if (a == "--emit-hex") o.emit_hex = need("--emit-hex");
        else if (a == "--emit-image") o.emit_image = need("--emit-image");
        else if (a == "--listing") o.listing = true;
        else if (a == "--list") o.list = true;
        else if (a == "--expect-cached")
            o.expect_cached =
                exec::percent_flag(a, need("--expect-cached"));
        else
            throw common::ToolchainError{"unknown flag: " + a +
                                         "\nshared grid flags:\n" +
                                         exec::kGridFlagsHelp};
    }
    return o;
}

void apply_tweaks(const Options& o, sim::MachineConfig& cfg)
{
    if (o.keybuffer_set) cfg.keybuffer_entries = o.keybuffer;
    if (o.dcache_kib) cfg.dcache.sets = o.dcache_kib * 1024 / 64 / 4;
}

/// The original single-run report: full detail for one (module, scheme).
int run_single(const Options& o, const mir::Module& module, Scheme scheme)
{
    auto cp = compiler::compile(module, scheme);
    apply_tweaks(o, cp.machine_config);

    if (o.listing) {
        std::cout << cp.program.listing();
        return 0;
    }
    if (!o.emit_hex.empty()) {
        std::ofstream f{o.emit_hex};
        riscv::write_hex(riscv::build_image(cp.program), f);
        std::cout << "wrote " << o.emit_hex << '\n';
        return 0;
    }
    if (!o.emit_image.empty()) {
        std::ofstream f{o.emit_image, std::ios::binary};
        riscv::write_image(riscv::build_image(cp.program), f);
        std::cout << "wrote " << o.emit_image << '\n';
        return 0;
    }

    sim::Machine machine{cp.program, cp.machine_config};
    const auto r = machine.run();

    std::cout << "scheme        : " << compiler::scheme_name(scheme)
              << '\n';
    std::cout << "result        : " << trap_name(r.trap.kind)
              << ", exit " << r.exit_code << '\n';
    std::cout << "instructions  : " << r.instret << '\n';
    std::cout << "cycles        : " << r.cycles << "  (CPI "
              << common::fmt(static_cast<double>(r.cycles) /
                                 static_cast<double>(r.instret),
                             2)
              << ")\n";
    std::cout << "d$ miss       : "
              << common::fmt(100.0 * r.dcache.miss_rate(), 2) << "%\n";
    std::cout << "keybuffer     : " << r.keybuffer.hits << "/"
              << r.keybuffer.lookups << " hits ("
              << common::fmt(100.0 * r.keybuffer.hit_rate(), 1)
              << "%)\n";
    std::cout << "SCU/TCU checks: " << r.scu_checks << " / "
              << r.tcu_checks << '\n';
    std::cout << "instr mix     : alu " << r.mix.alu << ", mem "
              << r.mix.loads + r.mix.stores << ", checked "
              << r.mix.checked_loads + r.mix.checked_stores
              << ", meta " << r.mix.meta_moves << ", tchk "
              << r.mix.tchk << '\n';
    if (!r.output.empty()) {
        std::cout << "output        :";
        for (const auto v : r.output) std::cout << ' ' << v;
        std::cout << '\n';
    }
    return r.ok() ? 0 : 2;
}

/// The exec::GridSpec this command line names.
exec::GridSpec grid_spec(const Options& o)
{
    return exec::GridSpec{
        .workloads = o.workloads,
        .schemes = o.schemes,
        .keybuffer = o.keybuffer_set ? o.keybuffer : 0,
        .dcache_kib = o.dcache_kib,
    };
}

/// The workload × scheme grid: one summary row per cell, fanned out over
/// the engine. Used whenever a comma list (or --json) asks for it.
int run_grid(const Options& o)
{
    const std::vector<exec::Job> jobs = grid_spec(o).jobs();
    exec::Campaign campaign{"hwst_run", o.grid};
    const auto outcomes = campaign.run(jobs);

    common::TextTable table{{"workload", "scheme", "status", "result",
                             "exit", "instret", "cycles", "CPI"}};
    exec::json::Value rows = exec::json::Value::array();
    bool all_ok = true;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        const exec::JobOutcome& out = outcomes[i];
        exec::json::Value jrow = exec::json::Value::object();
        jrow["workload"] = jobs[i].workload;
        jrow["scheme"] = jobs[i].scheme;
        jrow["status"] = exec::job_status_name(out.status);
        if (out.status != exec::JobStatus::Ok) {
            all_ok = false;
            table.add_row({jobs[i].workload, jobs[i].scheme,
                           std::string{exec::job_status_name(out.status)},
                           out.error, "", "", "", ""});
            jrow["error"] = out.error;
            rows.push_back(jrow);
            continue;
        }
        const sim::RunResult& r = out.result;
        all_ok = all_ok && r.ok();
        const double cpi = static_cast<double>(r.cycles) /
                           static_cast<double>(r.instret);
        table.add_row({jobs[i].workload, jobs[i].scheme, "ok",
                       std::string{trap_name(r.trap.kind)},
                       std::to_string(r.exit_code),
                       std::to_string(r.instret), std::to_string(r.cycles),
                       common::fmt(cpi, 2)});
        jrow["result"] = trap_name(r.trap.kind);
        jrow["exit_code"] = r.exit_code;
        jrow["instret"] = r.instret;
        jrow["cycles"] = r.cycles;
        jrow["cpi"] = cpi;
        rows.push_back(jrow);
    }
    table.print(std::cout);

    exec::json::Value payload = exec::json::Value::object();
    payload["rows"] = rows;
    // Failed jobs drive the shared exit-code policy; a cell that ran
    // but trapped keeps the classic exit 2.
    const int rc = campaign.finish(std::move(payload), jobs, outcomes);
    if (rc != 0) return rc;
    if (!all_ok) return 2;
    if (o.expect_cached >= 0) {
        // Reads the cache's own counters: every cell is one lookup, so
        // a warm run that silently recomputes fails instead of passing
        // an envelope comparison vacuously.
        const exec::ResultCache* cache = campaign.cache();
        const u64 hits = cache ? cache->hits() : 0;
        const u64 lookups = cache ? hits + cache->misses() : 0;
        const double pct = lookups ? 100.0 * static_cast<double>(hits) /
                                         static_cast<double>(lookups)
                                   : 0.0;
        std::cerr << hits << '/' << lookups << " cache lookups hit ("
                  << common::fmt(pct, 1) << "%)\n";
        if (pct + 1e-9 < o.expect_cached) {
            std::cerr << "hwst_run: expected >= " << o.expect_cached
                      << "% cache hits\n";
            return 3;
        }
    }
    return 0;
}

} // namespace

int main(int argc, char** argv)
{
    Options o;
    try {
        o = parse(argc, argv);
    } catch (const std::exception& e) {
        std::cerr << "hwst_run: " << e.what() << '\n';
        return 2;
    }
    try {

        if (o.list || (o.workloads.empty() && !o.juliet)) {
            std::cout << "workloads:\n";
            for (const auto& w : workloads::all_workloads())
                std::cout << "  " << w.name << " ("
                          << workloads::suite_name(w.suite) << ")\n";
            std::cout << "juliet: --juliet CWE<k>:<index>, categories:";
            for (const auto& [c, count] : juliet::cwe_counts())
                std::cout << ' ' << juliet::cwe_name(c);
            std::cout << "\nschemes:";
            for (const Scheme s : compiler::kAllSchemes)
                std::cout << ' ' << compiler::scheme_name(s);
            std::cout << '\n';
            return 0;
        }

        if (o.juliet) {
            const mir::Module module = juliet::build_case(*o.juliet);
            return run_single(o, module, o.schemes.front());
        }
        // A single cell without --json keeps the classic detailed
        // report; a comma list, --json or --expect-cached switches to
        // the engine grid.
        if (o.workloads.size() == 1 && o.schemes.size() == 1 &&
            !o.grid.json && o.expect_cached < 0) {
            const mir::Module module =
                workloads::workload(o.workloads.front()).build();
            return run_single(o, module, o.schemes.front());
        }
        return run_grid(o);
    } catch (const std::exception& e) {
        std::cerr << "hwst_run: " << e.what() << '\n';
        return 1;
    }
}
