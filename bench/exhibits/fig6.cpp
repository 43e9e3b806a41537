// Figure 6 — security coverage of GCC, ASAN, SBCETS and HWST128 on the
// generated Juliet-style suite (8366 bad cases: 7074 spatial + 1292
// temporal). Prints one row per protection with per-CWE percentages and
// the overall coverage, mirroring the paper's bars.
//
// The scheme × case grid is chunked onto the exec engine (--jobs N);
// chunk coverages merge additively in grid order, so the table is
// identical at every thread count. Results land in BENCH_fig6.json.
#include <iostream>
#include <optional>
#include <span>

#include "common/table.hpp"
#include "exec/envelope.hpp"
#include "exhibits/exhibits.hpp"
#include "juliet/runner.hpp"

namespace hwst::exhibits {

using compiler::Scheme;

namespace {

/// Cases per engine job: small enough to parallelize a single-CWE run,
/// large enough that per-job overhead is invisible.
constexpr std::size_t kChunk = 128;

/// Cache round trip for a chunk's Coverage, so a warm --cache run
/// serves finished coverage chunks instead of re-running their cases.
exec::json::Value coverage_to_json(const juliet::Coverage& c)
{
    exec::json::Value v = exec::json::Value::object();
    v["total"] = c.total;
    v["detected"] = c.detected;
    exec::json::Value per = exec::json::Value::array();
    for (const auto& [cwe, cc] : c.per_cwe) {
        exec::json::Value e = exec::json::Value::array();
        e.push_back(static_cast<common::i64>(cwe));
        e.push_back(cc.total);
        e.push_back(cc.detected);
        per.push_back(e);
    }
    v["per_cwe"] = per;
    return v;
}

juliet::Coverage coverage_from_json(const exec::json::Value& v)
{
    juliet::Coverage c;
    c.total = static_cast<common::u32>(v.at("total").as_int());
    c.detected = static_cast<common::u32>(v.at("detected").as_int());
    for (const auto& e : v.at("per_cwe").items()) {
        if (e.items().size() != 3)
            throw exec::json::JsonError{"bad per_cwe entry"};
        const common::i64 cwe = e.items()[0].as_int();
        if (cwe < 0 || cwe > static_cast<common::i64>(juliet::Cwe::C761))
            throw exec::json::JsonError{"bad cwe id"};
        auto& cc = c.per_cwe[static_cast<juliet::Cwe>(cwe)];
        cc.total = static_cast<common::u32>(e.items()[1].as_int());
        cc.detected = static_cast<common::u32>(e.items()[2].as_int());
    }
    return c;
}

} // namespace

int fig6(const exec::GridOptions& grid, common::u32 stride)
{
    if (grid.smoke && stride == 1) stride = 199;

    const auto all = juliet::all_bad_cases();
    // The strided subsample every scheme runs.
    std::vector<juliet::CaseSpec> cases;
    for (std::size_t i = 0; i < all.size(); i += stride)
        cases.push_back(all[i]);

    std::cout << "Figure 6: NIST-Juliet-style security coverage ("
              << all.size() << " bad cases, stride " << stride << ")\n\n";

    const std::vector<Scheme> schemes = {Scheme::Gcc, Scheme::Asan,
                                         Scheme::Sbcets,
                                         Scheme::Hwst128Tchk};

    // Grid: one job per (scheme, chunk-of-cases); coverages merge
    // additively in grid order.
    struct Chunk {
        Scheme scheme;
        std::size_t lo, hi;
    };
    std::vector<Chunk> chunks;
    for (const Scheme s : schemes) {
        for (std::size_t lo = 0; lo < cases.size(); lo += kChunk)
            chunks.push_back(
                Chunk{s, lo, std::min(lo + kChunk, cases.size())});
    }

    std::optional<exec::Campaign> campaign;
    try {
        campaign.emplace("fig6", grid);
    } catch (const std::exception& e) {
        std::cerr << "fig6_coverage: " << e.what() << '\n';
        return 2;
    }

    // A chunk is the cache cell, keyed by what it runs: its scheme and
    // its cases. Its cases run uncached.
    const exec::MapCodec<juliet::Coverage> codec{
        .key =
            [&](std::size_t i) {
                const Chunk& c = chunks[i];
                common::u64 h = exec::fnv1a(compiler::scheme_name(c.scheme));
                for (std::size_t k = c.lo; k < c.hi; ++k)
                    h = exec::derive_seed(h, exec::fnv1a(cases[k].id()));
                return h;
            },
        .encode = coverage_to_json,
        .decode = coverage_from_json,
    };

    std::vector<juliet::Coverage> partial;
    const auto outcomes = campaign->map<juliet::Coverage>(
        chunks.size(),
        [&](std::size_t i, const exec::JobContext& ctx) {
            const Chunk& c = chunks[i];
            return juliet::run_suite(
                c.scheme, std::span{cases}.subspan(c.lo, c.hi - c.lo), {},
                ctx.token);
        },
        partial, codec);

    bool complete = true;
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
        if (outcomes[i].status != exec::JobStatus::Ok) {
            std::cerr << "chunk " << i << " ("
                      << compiler::scheme_name(chunks[i].scheme)
                      << " cases " << chunks[i].lo << ".." << chunks[i].hi
                      << ") failed: "
                      << exec::job_status_name(outcomes[i].status)
                      << (outcomes[i].error.empty()
                              ? ""
                              : " (" + outcomes[i].error + ")")
                      << '\n';
            complete = false;
        }
    }

    // Merge chunk coverages per scheme, in grid order.
    const std::size_t chunks_per_scheme = chunks.size() / schemes.size();
    std::vector<juliet::Coverage> per_scheme(schemes.size());
    for (std::size_t i = 0; i < chunks.size(); ++i)
        per_scheme[i / chunks_per_scheme].merge(partial[i]);

    std::vector<std::string> headers = {"scheme"};
    for (const auto& [cwe, count] : juliet::cwe_counts())
        headers.push_back(std::string{juliet::cwe_name(cwe)});
    headers.push_back("overall");
    headers.push_back("cases");
    common::TextTable table{headers};

    exec::json::Value jschemes = exec::json::Value::array();
    for (std::size_t si = 0; si < schemes.size(); ++si) {
        const Scheme s = schemes[si];
        const juliet::Coverage& cov = per_scheme[si];
        std::vector<std::string> row = {
            s == Scheme::Hwst128Tchk ? "hwst128"
                                     : std::string{compiler::scheme_name(s)}};
        exec::json::Value jrow = exec::json::Value::object();
        jrow["scheme"] = row[0];
        exec::json::Value per_cwe = exec::json::Value::object();
        for (const auto& [cwe, count] : juliet::cwe_counts()) {
            const auto it = cov.per_cwe.find(cwe);
            row.push_back(it == cov.per_cwe.end()
                              ? "-"
                              : common::fmt(it->second.pct(), 1));
            if (it != cov.per_cwe.end()) {
                exec::json::Value cell = exec::json::Value::object();
                cell["detected"] = it->second.detected;
                cell["total"] = it->second.total;
                cell["pct"] = it->second.pct();
                per_cwe[std::string{juliet::cwe_name(cwe)}] = cell;
            }
        }
        row.push_back(common::fmt(cov.pct(), 2));
        row.push_back(std::to_string(cov.detected) + "/" +
                      std::to_string(cov.total));
        table.add_row(row);
        jrow["per_cwe"] = per_cwe;
        jrow["detected"] = cov.detected;
        jrow["total"] = cov.total;
        jrow["overall_pct"] = cov.pct();
        jschemes.push_back(jrow);
    }
    table.print(std::cout);

    if (!complete)
        std::cout << "\nWARNING: grid incomplete — coverage above counts "
                     "only the finished chunks\n";
    std::cout << "\npaper (Fig. 6): GCC 11.20% (937), ASAN 58.08% (4859), "
                 "SBCETS 64.49% (5395), HWST128 63.63% (5323)\n";

    exec::json::Value payload = exec::json::Value::object();
    payload["stride"] = stride;
    payload["cases"] = cases.size();
    payload["schemes"] = jschemes;
    payload["complete"] = complete;
    return campaign->finish(std::move(payload), {}, outcomes);
}

} // namespace hwst::exhibits
