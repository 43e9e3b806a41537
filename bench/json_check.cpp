// json_check — CI validator for the BENCH_<name>.json files the
// harnesses emit: parses each argument with the exec JSON parser,
// checks the envelope (schema_version, bench, jobs, wall_ms) and exits
// non-zero on the first malformed file. tests/golden.cmake runs it on
// every envelope it compares with a golden.
//
// `json_check --equiv A B` compares two BENCH envelopes after stripping
// host-side fields (wall_ms, run_ms, mips, geo_mean_mips, git_rev,
// jobs, tier choice + dbt counters, cache stats): the determinism
// contract of docs/performance.md
// says host speed may change between runs and revisions, simulated
// numbers may not — this is the check that enforces it. On a mismatch
// it prints the first differing key path and both values. The strip
// itself is exec::strip_host_fields. `json_check --strip IN OUT` writes
// IN without those fields, as the golden envelopes under bench/golden/
// are kept.
//
// `json_check --cache DIR [GIT_REV]` audits a content-addressed result
// cache (docs/cache.md): counts cells/bytes/dangling temps, validates
// every cell (parse, version, digest + git_rev re-hash to the file
// name, payload present), and with GIT_REV flags cells another build
// published. Invalid or stale cells exit 1.
#include <algorithm>
#include <fstream>
#include <iostream>
#include <string>

#include "exec/cache.hpp"
#include "exec/report.hpp"

using namespace hwst;

namespace {

/// The first place `a` and `b` print differently, as a key path
/// (`rows[3].cycles`) and both values; empty when they print the same.
std::string first_difference(const exec::json::Value& a,
                             const exec::json::Value& b,
                             const std::string& path)
{
    if (a.dump(0) == b.dump(0)) return {};
    const std::string at = path.empty() ? "(root)" : path;
    if (a.is_object() && b.is_object()) {
        const std::string prefix = path.empty() ? "" : path + ".";
        for (const auto& [key, av] : a.members()) {
            const auto* bv = b.find(key);
            if (!bv) return prefix + key + ": " + av.dump(0) + " vs (absent)";
            std::string d = first_difference(av, *bv, prefix + key);
            if (!d.empty()) return d;
        }
        for (const auto& [key, bv] : b.members())
            if (!a.find(key))
                return prefix + key + ": (absent) vs " + bv.dump(0);
        return at + ": same keys in another order";
    }
    if (a.is_array() && b.is_array()) {
        const std::size_t n = std::min(a.size(), b.size());
        for (std::size_t i = 0; i < n; ++i) {
            std::string d = first_difference(
                a.items()[i], b.items()[i],
                path + "[" + std::to_string(i) + "]");
            if (!d.empty()) return d;
        }
        return at + ": " + std::to_string(a.size()) + " vs " +
               std::to_string(b.size()) + " items";
    }
    return at + ": " + a.dump(0) + " vs " + b.dump(0);
}

int check_equiv(const char* a_path, const char* b_path)
{
    const auto a = exec::strip_host_fields(exec::read_bench_json(a_path));
    const auto b = exec::strip_host_fields(exec::read_bench_json(b_path));
    if (a.dump(2) != b.dump(2)) {
        std::cerr << "json_check: " << a_path << " and " << b_path
                  << " differ beyond host-side fields\n  first at "
                  << first_difference(a, b, "") << '\n';
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

/// Extra schema for bench/repro's envelope: the gate reads the
/// calibrated sum, and every exhibit row must say how it ended and how
/// long it took.
void check_repro(const exec::json::Value& v)
{
    v.at("smoke").as_bool();
    v.at("calibrated_ms").as_double();
    for (const auto& row : v.at("exhibits").items()) {
        row.at("name").as_string();
        row.at("exit").as_int();
        for (const char* key : {"wall_ms", "slice_ms", "calibrated_ms"})
            row.at(key).as_double();
    }
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
            if (bench->as_string() == "repro") check_repro(v);
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
