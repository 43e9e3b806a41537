// Campaign: the shared harness scaffold every BENCH envelope writer
// (fig4/fig5/fig6/ablations, hwst_run's grid mode) used to open-code —
// the optional content-addressed result cache, the wall clock, the
// engine, and the envelope write + exit-code policy. Factoring it here
// means the harnesses cannot drift apart (docs/execution.md,
// docs/cache.md).
//
// Canonical shape:
//
//   exec::Campaign campaign{"fig5", grid, exec::grid_fingerprint(jobs)};
//   exec::attach_cache(campaign, grid);
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

class Campaign {
public:
    /// Starts the wall clock. `fingerprint` comes from
    /// grid_fingerprint() and keys the result cache.
    Campaign(std::string bench, const GridOptions& grid, u64 fingerprint);

    const std::string& bench() const { return bench_; }
    const GridOptions& grid() const { return grid_; }
    u64 fingerprint() const { return fingerprint_; }

    /// Attach the owned result-cache binding (normally open_cache's
    /// return value; nullptr — no --cache — is a no-op). Call before
    /// run()/map().
    void attach_cache(std::unique_ptr<CampaignCache> cache);

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
    u64 fingerprint_ = 0;
    std::unique_ptr<CampaignCache> cache_;
    Stopwatch stopwatch_;
};

} // namespace hwst::exec
