// Campaign: the shared harness scaffold every BENCH envelope writer
// (fig4/fig5/fig6/ablations, hwst_run's grid mode) used to open-code —
// the optional content-addressed result cache, the wall clock, the
// engine, and the envelope write + exit-code policy. Factoring it here
// means the harnesses cannot drift apart (docs/execution.md,
// docs/cache.md).
//
// Canonical shape:
//
//   exec::Campaign campaign{"fig5", grid};
//   const auto outcomes = campaign.run(jobs);
//   ... fold outcomes into payload ...
//   return campaign.finish(payload, jobs, outcomes, bad_result);
#pragma once

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "exec/cache.hpp"
#include "exec/cli.hpp"
#include "exec/engine.hpp"
#include "exec/report.hpp"

namespace hwst::exec {

/// The git revision this binary was built from ("unknown" outside a
/// checkout). Captured at configure time into hwst_exec, so every
/// harness — and every cache cell record — names its producer without
/// each CMake target redefining the macro.
std::string build_git_rev();

/// The result cache --cache DIR names (or the HWST_CACHE environment,
/// so presets can opt whole runs in), stamped with build_git_rev(); or
/// nullptr when no cache was requested. Throws common::ToolchainError
/// when the root cannot be created.
std::unique_ptr<ResultCache> open_cache(const GridOptions& grid);

class Campaign {
public:
    /// Starts the wall clock and opens the grid's result cache
    /// (open_cache); throws when the cache root cannot be created.
    Campaign(std::string bench, const GridOptions& grid);

    const GridOptions& grid() const { return grid_; }
    /// The attached result cache, or nullptr without --cache.
    const ResultCache* cache() const { return cache_.get(); }

    /// grid.engine() with the cache wired in.
    EngineOptions engine_options() const;

    /// Run a grid on the engine (usable repeatedly — ablations runs
    /// five sub-grids through one Campaign).
    std::vector<JobOutcome> run(std::span<const Job> jobs) const
    {
        return Engine{engine_options()}.run(jobs);
    }

    /// Engine::map with the campaign's engine options.
    template <typename R>
    std::vector<JobOutcome> map(
        std::size_t count,
        const std::function<R(std::size_t, const JobContext&)>& fn,
        std::vector<R>& out, const MapCodec<R>& codec = {}) const
    {
        return Engine{engine_options()}.map<R>(count, fn, out, codec);
    }

    /// Milliseconds since construction.
    double wall_ms() const { return stopwatch_.elapsed_ms(); }

    /// Write the BENCH envelope (payload + the cache's host-side stats
    /// when one is attached), print "wrote <path>" and return the path.
    /// Call only when grid().json.
    std::string write(const json::Value& payload) const;

    /// The shared harness epilogue: append payload["summary"], write
    /// the envelope when --json is on, and fold the exit-code policy —
    /// grid_exit_code's 1-failed rule plus the bad_result rule (a job
    /// that ran Ok but produced a wrong answer fails the campaign).
    int finish(json::Value payload, std::span<const Job> jobs,
               std::span<const JobOutcome> outcomes,
               bool bad_result = false) const;

private:
    std::string bench_;
    GridOptions grid_;
    std::unique_ptr<ResultCache> cache_;
    Stopwatch stopwatch_;
};

} // namespace hwst::exec
