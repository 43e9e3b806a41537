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
// Durability layer (docs/execution.md, "Durability"): an optional
// checkpoint Journal replays finished jobs across restarts, timeout/
// error jobs are retried with exponential backoff up to `retries` times
// (exhaustion -> Quarantined), and a graceful shutdown (SIGINT/SIGTERM
// or the `stop` flag) drains in-flight jobs and marks the rest Skipped.
#pragma once

#include <span>
#include <vector>

#include "exec/job.hpp"

namespace hwst::exec {

class CampaignCache;
class Journal;

struct EngineOptions {
    /// Worker threads. 0 = HWST_JOBS env var if set, else
    /// hardware_concurrency. 1 runs everything inline on the caller.
    unsigned jobs = 0;
    /// Per-job wall-clock budget; 0 = unlimited. A job that exceeds it
    /// reports JobStatus::Timeout instead of hanging the grid. Each
    /// retry attempt gets a fresh budget.
    std::chrono::milliseconds timeout{0};
    /// Live progress line on stderr ("[done/total] name status").
    bool progress = false;
    /// Retry budget for jobs that end Timeout/Error (never for traps —
    /// those are results). 0 preserves the classic fail-once behavior;
    /// N > 0 retries with exponential backoff and lands jobs that
    /// exhaust the budget in JobStatus::Quarantined.
    unsigned retries = 0;
    /// Base backoff before the first retry; doubles per attempt.
    std::chrono::milliseconds backoff{100};
    /// Optional checkpoint journal: jobs with a non-empty `key` found
    /// in it are replayed instead of run, and every finished job is
    /// appended + fsync'd. Not owned.
    Journal* journal = nullptr;
    /// Optional content-addressed result cache (--cache / HWST_CACHE,
    /// exec/cache.hpp): jobs with a non-empty `key` are looked up
    /// before running — journal replay wins over a cache hit, a cache
    /// hit wins over a recompute — and freshly run Ok outcomes are
    /// published back. Cached and recomputed envelopes are
    /// bit-identical modulo host-side fields (docs/cache.md). Not owned.
    CampaignCache* cache = nullptr;
    /// Optional extra stop flag merged with the process-wide shutdown
    /// flag (tests cancel mid-grid in-process through this).
    const std::atomic<bool>* stop = nullptr;
    /// Process-isolation mode (--isolate / HWST_ISOLATE): run each job
    /// attempt in a forked, rlimit-caged worker subprocess. A worker
    /// SIGSEGV, runaway allocation or hang becomes a Crashed/Timeout
    /// outcome with forensics instead of killing the campaign
    /// (docs/execution.md, "Process isolation & failure taxonomy").
    bool isolate = false;
    /// Worker RLIMIT_AS cap in MiB (0 = unlimited; isolate mode only).
    u64 rlimit_mb = 0;
    /// Worker RLIMIT_CPU cap in seconds (0 = unlimited).
    u64 rlimit_cpu_s = 0;
    /// SIGTERM -> SIGKILL escalation window for hard kills.
    std::chrono::milliseconds grace{500};
    /// Worker heartbeat period; the watchdog kills a worker after 8
    /// missed beats. 0 disables the watchdog.
    std::chrono::milliseconds heartbeat{250};
    /// DBT divergence sentinel (--sentinel / HWST_SENTINEL): re-run
    /// 1-in-N successful jobs under the pure interpreter in a sibling
    /// worker and compare via the host-field-stripping comparator;
    /// divergent jobs degrade to the interpreter result with a
    /// journaled report. 0 = off. Nonzero implies isolate.
    unsigned sentinel = 0;
};

/// The 1-in-N sample rate --sentinel / HWST_SENTINEL=1 select when no
/// explicit rate is given.
inline constexpr unsigned kDefaultSentinelRate = 4;

/// Resolve an EngineOptions::jobs request against HWST_JOBS and
/// hardware_concurrency (never returns 0).
unsigned resolve_jobs(unsigned requested);

/// JSON round trip for Engine::map's typed per-job payloads, so
/// map-based harnesses (fig6 coverage chunks, fault records) can use
/// the checkpoint journal too. `label` prefixes the journal key (and
/// display name) of every chunk; encode/decode must be inverses.
template <typename R>
struct MapCodec {
    std::string label;
    std::function<json::Value(const R&)> encode;
    std::function<R(const json::Value&)> decode;

    bool enabled() const
    {
        return static_cast<bool>(encode) && static_cast<bool>(decode);
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
    /// success, so R must be default-constructible. With a codec, each
    /// chunk participates in the checkpoint journal: finished payloads
    /// are persisted and replayed chunks are decoded back into out[i].
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
            const std::string name =
                codec.label.empty() ? "#" + std::to_string(i)
                                    : codec.label + "#" + std::to_string(i);
            jobs.push_back(Job{
                .name = name,
                .key = codec.enabled() ? name : std::string{},
                .body =
                    [&fn, &out, &codec, i](const JobContext& ctx) {
                        out[i] = fn(i, ctx);
                        if (codec.enabled() && ctx.aux)
                            *ctx.aux = codec.encode(out[i]);
                        return sim::RunResult{};
                    },
                // Without a codec the only channel back is the out[i]
                // write above, which cannot cross a fork — those
                // chunks must stay in the caller's process even under
                // --isolate.
                .in_process = !codec.enabled(),
            });
        }
        auto outcomes = run(jobs);
        if (codec.enabled()) {
            for (std::size_t i = 0; i < count; ++i) {
                // Replayed and cache-served chunks never ran here;
                // isolated chunks ran, but their out[i] write happened
                // in the worker child. Either way the payload comes
                // back through aux.
                if ((outcomes[i].from_journal || outcomes[i].from_cache ||
                     outcomes[i].isolated) &&
                    outcomes[i].status == JobStatus::Ok)
                    out[i] = codec.decode(outcomes[i].aux);
            }
        }
        return outcomes;
    }

private:
    EngineOptions opts_;
};

} // namespace hwst::exec
