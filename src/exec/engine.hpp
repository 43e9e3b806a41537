// Engine: the shared parallel campaign executor. Every figure harness
// and the fault campaign enumerate a grid of independent Jobs; the
// engine runs them on an atomic-counter worker pool sized by --jobs /
// HWST_JOBS / hardware_concurrency and returns outcomes in grid order.
//
// Determinism contract (docs/execution.md): each sim::Machine run is
// fully deterministic, every job derives its randomness from the root
// seed and its own grid coordinates (derive_seed), and outcomes land in
// the slot of the job that produced them — so any aggregate computed by
// folding the outcome vector in index order is bit-identical at every
// thread count, including 1.
//
// Each job is one in-process run under its CancelToken deadline. The
// result cache, when attached, is consulted inside the run: by
// run_program for a simulation, by Engine::map for a MapCodec chunk.
#pragma once

#include <span>
#include <vector>

#include "exec/cache.hpp"
#include "exec/job.hpp"

namespace hwst::exec {

struct EngineOptions {
    /// Worker threads. 0 = HWST_JOBS env var if set, else
    /// hardware_concurrency. 1 runs everything inline on the caller.
    unsigned jobs = 0;
    /// Per-job wall-clock budget; 0 = unlimited. A job that exceeds it
    /// reports JobStatus::Timeout instead of hanging the grid.
    std::chrono::milliseconds timeout{0};
    /// Live progress line on stderr ("[done/total] name status").
    bool progress = false;
    /// Optional content-addressed result cache (--cache / HWST_CACHE,
    /// exec/cache.hpp), handed to every body as JobContext::cache.
    /// Cached and recomputed envelopes are bit-identical modulo
    /// host-side fields (docs/cache.md). Not owned.
    ResultCache* cache = nullptr;
};

/// Resolve an EngineOptions::jobs request against HWST_JOBS and
/// hardware_concurrency (never returns 0). An HWST_JOBS that is not a
/// whole number >= 1 (parse_count) is ignored.
unsigned resolve_jobs(unsigned requested);

/// Result-cache binding for Engine::map's typed per-job payloads (fig6
/// coverage chunks, fault records). `key(i)` is the digest of what
/// chunk i computes; encode/decode must be inverses.
template <typename R>
struct MapCodec {
    std::function<u64(std::size_t)> key;
    std::function<json::Value(const R&)> encode;
    std::function<R(const json::Value&)> decode;

    bool enabled() const
    {
        return static_cast<bool>(key) && static_cast<bool>(encode) &&
               static_cast<bool>(decode);
    }
};

class Engine {
public:
    explicit Engine(EngineOptions opts = {}) : opts_{opts} {}

    const EngineOptions& options() const { return opts_; }

    /// Run every job and return one outcome per job, index-aligned.
    std::vector<JobOutcome> run(std::span<const Job> jobs) const;

    /// Generic fan-out for harnesses whose per-job result is not a
    /// sim::RunResult (Juliet coverage chunks, fault records): runs
    /// fn(i, ctx) for i in [0, count) on the pool. fn's exceptions
    /// follow the same rules as Job bodies (JobTimeout -> Timeout slot,
    /// anything else -> Error slot); `out[i]` is written only on
    /// success, so R must be default-constructible. With a codec and a
    /// cache, each chunk is a cache cell under codec.key(i): a hit is
    /// decoded into out[i] without calling fn, a miss runs fn and
    /// publishes its result.
    template <typename R>
    std::vector<JobOutcome> map(
        std::size_t count,
        const std::function<R(std::size_t, const JobContext&)>& fn,
        std::vector<R>& out, const MapCodec<R>& codec = {}) const
    {
        out.assign(count, R{});
        std::vector<Job> jobs;
        jobs.reserve(count);
        for (std::size_t i = 0; i < count; ++i) {
            jobs.push_back(Job{
                .name = "#" + std::to_string(i),
                .body =
                    [&fn, &out, &codec, i](const JobContext& ctx) {
                        if (ctx.cache && codec.enabled())
                            out[i] = cached(
                                *ctx.cache, codec.key(i),
                                [&] { return fn(i, ctx); }, codec.decode,
                                codec.encode);
                        else
                            out[i] = fn(i, ctx);
                        return sim::RunResult{};
                    },
            });
        }
        return run(jobs);
    }

private:
    EngineOptions opts_;
};

} // namespace hwst::exec
