#include "exec/envelope.hpp"

#include <cstdlib>
#include <iostream>

#ifndef HWST_GIT_REV
#define HWST_GIT_REV "unknown"
#endif

namespace hwst::exec {

std::string build_git_rev()
{
    return HWST_GIT_REV;
}

std::unique_ptr<ResultCache> open_cache(const GridOptions& grid)
{
    std::string root = grid.cache_dir;
    if (root.empty()) {
        if (const char* env = std::getenv("HWST_CACHE")) root = env;
    }
    if (root.empty()) return nullptr;
    return std::make_unique<ResultCache>(CacheOptions{
        .root = std::move(root),
        .git_rev = build_git_rev(),
    });
}

Campaign::Campaign(std::string bench, const GridOptions& grid)
    : bench_{std::move(bench)}, grid_{grid}, cache_{open_cache(grid)}
{
}

EngineOptions Campaign::engine_options() const
{
    EngineOptions opts = grid_.engine();
    opts.cache = cache_.get();
    return opts;
}

std::string Campaign::write(const json::Value& payload) const
{
    json::Value body = payload;
    // Cache hit/miss counters are a fact about this host run, so they
    // ride in a host-side field json_check --equiv strips: warm and
    // cold envelopes stay bit-identical (docs/cache.md).
    if (cache_) body["cache"] = cache_->stats_json();
    const std::string path = write_bench_json(
        bench_, resolve_jobs(grid_.jobs), wall_ms(), body, grid_.json_path);
    std::cout << "wrote " << path << '\n';
    return path;
}

int Campaign::finish(json::Value payload, std::span<const Job> jobs,
                     std::span<const JobOutcome> outcomes,
                     bool bad_result) const
{
    payload["summary"] = summary_json(jobs, outcomes);
    if (grid_.json) write(payload);
    const int rc = grid_exit_code(outcomes);
    if (rc == 0 && bad_result) return 1;
    return rc;
}

} // namespace hwst::exec
