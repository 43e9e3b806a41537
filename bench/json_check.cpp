// json_check — CI validator for the BENCH_<name>.json files the
// harnesses emit: parses each argument with the exec JSON parser,
// checks the envelope (schema_version, bench, jobs, wall_ms) and exits
// non-zero on the first malformed file. `bench-smoke` runs it after
// every harness.
//
// `json_check --equiv A B` compares two BENCH envelopes after stripping
// host-side fields (wall_ms, run_ms, mips, geo_mean_mips, git_rev,
// jobs, tier choice + dbt counters, cache stats): the determinism
// contract of docs/performance.md
// says host speed may change between runs and revisions, simulated
// numbers may not — this is the check that enforces it. The strip
// itself is exec::strip_host_fields. `json_check --strip IN OUT` writes
// IN without those fields, as the golden envelopes under bench/golden/
// are kept.
//
// `json_check --cache DIR [GIT_REV]` audits a content-addressed result
// cache (docs/cache.md): counts cells/bytes/dangling temps, validates
// every cell (parse, version, digest + git_rev re-hash to the file
// name, payload present), and with GIT_REV flags cells another build
// published. Invalid or stale cells exit 1.
#include <fstream>
#include <iostream>
#include <string>

#include "exec/cache.hpp"
#include "exec/report.hpp"

using namespace hwst;

namespace {

int check_equiv(const char* a_path, const char* b_path)
{
    const auto a = exec::strip_host_fields(exec::read_bench_json(a_path));
    const auto b = exec::strip_host_fields(exec::read_bench_json(b_path));
    if (a.dump(2) != b.dump(2)) {
        std::cerr << "json_check: " << a_path << " and " << b_path
                  << " differ beyond host-side fields\n";
        return 1;
    }
    std::cout << a_path << " == " << b_path
              << " (modulo host-side fields)\n";
    return 0;
}

int strip(const char* in_path, const char* out_path)
{
    const auto v = exec::strip_host_fields(exec::read_bench_json(in_path));
    std::ofstream out{out_path};
    out << v.dump(2) << '\n';
    if (!out) {
        std::cerr << "json_check: cannot write " << out_path << '\n';
        return 1;
    }
    return 0;
}

/// Extra schema for the interpreter-throughput envelope: the perf
/// trajectory is only diffable if every entry records its revision and
/// per-workload MIPS rows.
void check_interp_speed(const exec::json::Value& v)
{
    const auto* rev = v.find("git_rev");
    if (!rev || !rev->is_string())
        throw exec::json::JsonError{"missing string key: git_rev"};
    const auto* geo = v.find("geo_mean_mips");
    if (!geo || !(geo->is_number() || geo->is_null()))
        throw exec::json::JsonError{"geo_mean_mips must be number|null"};
    const auto* rows = v.find("rows");
    if (!rows || !rows->is_array())
        throw exec::json::JsonError{"missing array key: rows"};
    for (const auto& row : rows->items()) {
        for (const char* key : {"workload", "scheme"}) {
            const auto* s = row.find(key);
            if (!s || !s->is_string())
                throw exec::json::JsonError{
                    std::string{"row: missing string key: "} + key};
        }
        for (const char* key : {"instret", "cycles"}) {
            const auto* n = row.find(key);
            if (!n || !n->is_int())
                throw exec::json::JsonError{
                    std::string{"row: missing int key: "} + key};
        }
        for (const char* key : {"run_ms", "mips"}) {
            const auto* n = row.find(key);
            if (!n || !n->is_number())
                throw exec::json::JsonError{
                    std::string{"row: missing number key: "} + key};
        }
        const auto* rtier = row.find("tier");
        if (!rtier || !rtier->is_string())
            throw exec::json::JsonError{"row: missing string key: tier"};
        const auto* dbt = row.find("dbt");
        if (!dbt || !dbt->is_object())
            throw exec::json::JsonError{"row: missing object key: dbt"};
        for (const char* key :
             {"blocks", "block_execs", "chained", "fallback_runs"}) {
            const auto* n = dbt->find(key);
            if (!n || !n->is_int())
                throw exec::json::JsonError{
                    std::string{"row.dbt: missing int key: "} + key};
        }
    }
    const auto* tier = v.find("tier");
    if (!tier || !tier->is_string())
        throw exec::json::JsonError{"missing string key: tier"};
}

} // namespace

int main(int argc, char** argv)
{
    if (argc > 1 && std::string{argv[1]} == "--equiv") {
        if (argc != 4) {
            std::cerr << "usage: json_check --equiv A.json B.json\n";
            return 2;
        }
        try {
            return check_equiv(argv[2], argv[3]);
        } catch (const std::exception& e) {
            std::cerr << "json_check: " << e.what() << '\n';
            return 1;
        }
    }
    if (argc > 1 && std::string{argv[1]} == "--strip") {
        if (argc != 4) {
            std::cerr << "usage: json_check --strip IN.json OUT.json\n";
            return 2;
        }
        try {
            return strip(argv[2], argv[3]);
        } catch (const std::exception& e) {
            std::cerr << "json_check: " << e.what() << '\n';
            return 1;
        }
    }
    if (argc > 1 && std::string{argv[1]} == "--cache") {
        if (argc != 3 && argc != 4) {
            std::cerr << "usage: json_check --cache DIR [GIT_REV]\n";
            return 2;
        }
        try {
            const exec::CacheAudit audit =
                exec::audit_cache(argv[2], argc == 4 ? argv[3] : "");
            for (const auto& p : audit.problems)
                std::cerr << "  " << p << '\n';
            std::cout << argv[2] << ": " << audit.cells << " cells, "
                      << audit.bytes << " bytes, " << audit.dangling_tmp
                      << " dangling temps, " << audit.invalid
                      << " invalid, " << audit.stale << " stale\n";
            return audit.ok() ? 0 : 1;
        } catch (const std::exception& e) {
            std::cerr << "json_check: " << e.what() << '\n';
            return 1;
        }
    }
    if (argc < 2) {
        std::cerr
            << "usage: json_check BENCH_<name>.json...\n"
               "       json_check --equiv A.json B.json\n"
               "       json_check --strip IN.json OUT.json\n"
               "       json_check --cache DIR [GIT_REV]\n"
               "--cache audits a result cache; GIT_REV flags stale "
               "cells.\n";
        return 2;
    }
    for (int i = 1; i < argc; ++i) {
        try {
            const auto v = exec::read_bench_json(argv[i]);
            const auto* bench = v.find("bench");
            const auto* jobs = v.find("jobs");
            const auto* wall = v.find("wall_ms");
            if (!bench || !bench->is_string())
                throw exec::json::JsonError{"missing string key: bench"};
            if (!jobs || !jobs->is_int())
                throw exec::json::JsonError{"missing int key: jobs"};
            if (!wall || !wall->is_number())
                throw exec::json::JsonError{"missing number key: wall_ms"};
            if (bench->as_string() == "interp_speed")
                check_interp_speed(v);
            std::cout << argv[i] << ": ok (bench="
                      << bench->as_string() << ", jobs=" << jobs->as_int()
                      << ")\n";
        } catch (const std::exception& e) {
            std::cerr << "json_check: " << argv[i] << ": " << e.what()
                      << '\n';
            return 1;
        }
    }
    return 0;
}
