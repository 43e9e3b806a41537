// Shared command-line vocabulary for campaign drivers: every harness
// that fans out over the engine accepts the same --jobs / --json /
// --timeout-ms / --smoke flags — and the durability vocabulary
// (--retries / --backoff-ms / --journal / --resume / --keep-going) —
// with the same semantics, parsed by one helper so the flags cannot
// drift apart.
#pragma once

#include <optional>
#include <string>
#include <string_view>

#include "common/error.hpp"
#include "exec/engine.hpp"

namespace hwst::exec {

struct GridOptions {
    unsigned jobs = 0;        ///< 0 = HWST_JOBS / hardware_concurrency
    std::string json_path;    ///< explicit --json PATH ("" = default)
    bool json = true;         ///< --no-json disables the BENCH file
    u64 timeout_ms = 0;       ///< 0 = no per-job timeout
    bool smoke = false;       ///< tiny grid for CI smoke runs
    bool progress = false;    ///< live progress line on stderr
    unsigned retries = 0;     ///< retry budget for timeout/error jobs
    u64 backoff_ms = 100;     ///< base retry backoff (doubles/attempt)
    bool journal = false;     ///< --journal: checkpoint finished jobs
    std::string journal_path; ///< explicit --journal PATH ("" = default)
    bool resume = false;      ///< replay finished jobs from the journal
    bool keep_going = false;  ///< exit 0 despite failed/quarantined jobs
    bool isolate = false;     ///< fork one caged worker per job attempt
    u64 rlimit_mb = 0;        ///< worker RLIMIT_AS cap in MiB (0 = off)
    u64 rlimit_cpu_s = 0;     ///< worker RLIMIT_CPU cap in s (0 = off)
    unsigned sentinel = 0;    ///< 1-in-N DBT divergence sentinel (0 = off)
    std::string cache_dir;    ///< --cache DIR: content-addressed cache root
    u64 cache_mb = 0;         ///< --cache-mb N: eviction bound (0 = none)

    EngineOptions engine() const
    {
        return EngineOptions{
            .jobs = jobs,
            .timeout = std::chrono::milliseconds{timeout_ms},
            .progress = progress,
            .retries = retries,
            .backoff = std::chrono::milliseconds{backoff_ms},
            .isolate = isolate,
            .rlimit_mb = rlimit_mb,
            .rlimit_cpu_s = rlimit_cpu_s,
            .sentinel = sentinel,
        };
    }
};

/// Parse a --cache-mb / HWST_CACHE_MB value: decimal digits only, small
/// enough that the MiB -> byte shift (<< 20) cannot overflow. Returns
/// nullopt for anything else — "", "abc", "12abc", "-1", 2^44.
inline std::optional<u64> parse_cache_mb(std::string_view s)
{
    constexpr u64 kMaxMb = ~u64{0} >> 20;
    if (s.empty()) return std::nullopt;
    u64 mb = 0;
    for (const char c : s) {
        if (c < '0' || c > '9') return std::nullopt;
        const auto digit = static_cast<u64>(c - '0');
        if (mb > (kMaxMb - digit) / 10) return std::nullopt;
        mb = mb * 10 + digit;
    }
    return mb;
}

/// Try to consume argv[i] (and possibly argv[i+1]) as one of the shared
/// grid flags. Returns true and advances `i` past the flag when it
/// matched; the caller handles its own flags otherwise.
inline bool parse_grid_flag(GridOptions& o, int argc, char** argv, int& i)
{
    const std::string a = argv[i];
    const auto need = [&](const char* what) -> std::string {
        if (i + 1 >= argc)
            throw common::ToolchainError{std::string{what} +
                                         " needs an argument"};
        return argv[++i];
    };
    if (a == "--jobs") {
        o.jobs = static_cast<unsigned>(std::stoul(need("--jobs")));
        if (o.jobs == 0)
            throw common::ToolchainError{"--jobs must be >= 1"};
        return true;
    }
    if (a == "--json") {
        // --json takes an optional path: treat a following non-flag
        // token as the path.
        o.json = true;
        if (i + 1 < argc && argv[i + 1][0] != '-') o.json_path = argv[++i];
        return true;
    }
    if (a == "--no-json") {
        o.json = false;
        return true;
    }
    if (a == "--timeout-ms") {
        o.timeout_ms = std::stoull(need("--timeout-ms"));
        return true;
    }
    if (a == "--smoke") {
        o.smoke = true;
        return true;
    }
    if (a == "--progress") {
        o.progress = true;
        return true;
    }
    if (a == "--retries") {
        o.retries = static_cast<unsigned>(std::stoul(need("--retries")));
        return true;
    }
    if (a == "--backoff-ms") {
        o.backoff_ms = std::stoull(need("--backoff-ms"));
        return true;
    }
    if (a == "--journal") {
        // Like --json, --journal takes an optional path.
        o.journal = true;
        if (i + 1 < argc && argv[i + 1][0] != '-')
            o.journal_path = argv[++i];
        return true;
    }
    if (a == "--resume") {
        // Resuming implies journaling: the replayed campaign keeps
        // appending the jobs it finishes this time around.
        o.resume = true;
        o.journal = true;
        return true;
    }
    if (a == "--keep-going") {
        o.keep_going = true;
        return true;
    }
    if (a == "--isolate") {
        o.isolate = true;
        return true;
    }
    if (a == "--rlimit-mb") {
        // Caging a worker only makes sense with workers to cage.
        o.rlimit_mb = std::stoull(need("--rlimit-mb"));
        o.isolate = true;
        return true;
    }
    if (a == "--rlimit-cpu-s") {
        o.rlimit_cpu_s = std::stoull(need("--rlimit-cpu-s"));
        o.isolate = true;
        return true;
    }
    if (a == "--cache") {
        o.cache_dir = need("--cache");
        return true;
    }
    if (a == "--cache-mb") {
        const std::string v = need("--cache-mb");
        const auto mb = parse_cache_mb(v);
        if (!mb)
            throw common::ToolchainError{
                "--cache-mb needs a whole number of MiB below 2^44, got '" +
                v + "'"};
        o.cache_mb = *mb;
        return true;
    }
    if (a == "--sentinel") {
        // Optional rate: bare --sentinel samples 1-in-4 by default.
        o.sentinel = kDefaultSentinelRate;
        if (i + 1 < argc && argv[i + 1][0] != '-') {
            o.sentinel =
                static_cast<unsigned>(std::stoul(argv[++i]));
            if (o.sentinel == 0)
                throw common::ToolchainError{"--sentinel rate must be >= 1"};
        }
        o.isolate = true;
        return true;
    }
    return false;
}

inline constexpr const char* kGridFlagsHelp =
    "  --jobs N         worker threads (default: HWST_JOBS or all cores)\n"
    "  --json [PATH]    write BENCH_<name>.json (default on; PATH "
    "overrides)\n"
    "  --no-json        skip the BENCH json file\n"
    "  --timeout-ms T   per-job wall-clock budget (0 = unlimited)\n"
    "  --smoke          tiny grid for CI smoke runs\n"
    "  --progress       live progress line on stderr\n"
    "  --retries N      retry timeout/error jobs up to N times with\n"
    "                   exponential backoff; exhaustion -> quarantined\n"
    "  --backoff-ms T   base retry backoff, doubles per attempt "
    "(default 100)\n"
    "  --journal [PATH] append each finished job to a fsync'd checkpoint\n"
    "                   journal (default BENCH_<name>.journal)\n"
    "  --resume         replay finished jobs from the journal, run the "
    "rest\n"
    "  --keep-going     exit 0 even when jobs failed or were "
    "quarantined\n"
    "  --isolate        run each job attempt in a forked worker process;\n"
    "                   crashes/hangs become quarantinable outcomes\n"
    "  --rlimit-mb N    cap each worker's address space at N MiB "
    "(implies\n"
    "                   --isolate)\n"
    "  --rlimit-cpu-s N cap each worker's CPU time at N seconds "
    "(implies\n"
    "                   --isolate)\n"
    "  --cache DIR      serve finished cells from the content-addressed\n"
    "                   result cache at DIR and publish fresh ones "
    "back\n"
    "  --cache-mb N     evict least-recently-used cache cells beyond N "
    "MiB\n"
    "  --sentinel [N]   re-run 1-in-N successful jobs (default 4) under "
    "the\n"
    "                   pure interpreter and compare; divergence "
    "degrades\n"
    "                   the job to the interpreter result (implies "
    "--isolate)\n";

} // namespace hwst::exec
