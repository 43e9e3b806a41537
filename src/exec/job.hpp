// Job model of the campaign execution engine: a Job is one independent
// sim::Machine run (workload × scheme × machine-config tweak × seed)
// and a JobOutcome is what the worker hands back. Everything the figure
// harnesses and the fault campaign share lives here, so every
// campaign-style driver enumerates the same shape of work — and every
// driver inherits the durability layer (checkpoint journal, retry with
// backoff, quarantine, graceful shutdown) for free.
#pragma once

#include <atomic>
#include <chrono>
#include <functional>
#include <optional>
#include <string>

#include "common/bitops.hpp"
#include "exec/json.hpp"
#include "exec/shutdown.hpp"
#include "sim/machine.hpp"

namespace hwst::exec {

using common::u64;

/// Cooperative cancellation handle passed to every job body. A job is
/// cancelled because its per-job wall-clock deadline passed, because
/// the engine's stop flag is set, or because a process-wide graceful
/// shutdown (SIGINT/SIGTERM) is in progress; long-running bodies must
/// poll `expired()` at a reasonable granularity (run_machine does this
/// every few thousand simulated instructions).
/// Bump the per-process job-progress counter (one tick per CancelToken
/// poll, i.e. every few thousand simulated instructions). Isolated
/// workers report it in their heartbeats, so a crash forensic record
/// can say how far the job got (exec/process.cpp).
void note_worker_progress();

class CancelToken {
public:
    CancelToken() = default;
    CancelToken(std::optional<std::chrono::steady_clock::time_point> deadline,
                const std::atomic<bool>* stop)
        : deadline_{deadline}, stop_{stop}
    {
    }

    bool expired() const
    {
        note_worker_progress();
        if (shutdown_requested()) return true;
        if (stop_ && stop_->load(std::memory_order_relaxed)) return true;
        return deadline_ &&
               std::chrono::steady_clock::now() >= *deadline_;
    }

private:
    std::optional<std::chrono::steady_clock::time_point> deadline_;
    const std::atomic<bool>* stop_ = nullptr;
};

/// Thrown by a job body when it observed its CancelToken expire and
/// unwound gracefully. The engine converts it into JobStatus::Timeout
/// (or Skipped when the expiry came from a shutdown) — it never escapes
/// Engine::run.
class JobTimeout : public std::runtime_error {
public:
    explicit JobTimeout(const std::string& what) : std::runtime_error{what} {}
};

enum class JobStatus : common::u8 {
    Ok,          ///< body completed and returned a RunResult
    Timeout,     ///< body observed its deadline and unwound (JobTimeout)
    Error,       ///< body threw any other exception (message captured)
    Crashed,     ///< isolated worker died (signal / nonzero exit) or hung
    Quarantined, ///< exhausted its --retries budget on timeout/error/crash
    Skipped,     ///< never ran / was cancelled by a graceful shutdown
};

constexpr std::string_view job_status_name(JobStatus s)
{
    switch (s) {
    case JobStatus::Ok: return "ok";
    case JobStatus::Timeout: return "timeout";
    case JobStatus::Error: return "error";
    case JobStatus::Crashed: return "crashed";
    case JobStatus::Quarantined: return "quarantined";
    case JobStatus::Skipped: return "skipped";
    }
    return "unknown";
}

constexpr std::optional<JobStatus> job_status_from_name(std::string_view s)
{
    for (const JobStatus k :
         {JobStatus::Ok, JobStatus::Timeout, JobStatus::Error,
          JobStatus::Crashed, JobStatus::Quarantined, JobStatus::Skipped}) {
        if (job_status_name(k) == s) return k;
    }
    return std::nullopt;
}

/// Everything a body receives for one attempt at one job. `attempt` is
/// 0 on the first try and counts up across --retries; `seed` is the
/// job's seed on attempt 0 and an attempt-indexed re-derivation after,
/// so a flaky body never replays the exact draw that hung it. `aux` (if
/// non-null) is a side-channel the body may fill with a JSON payload to
/// be persisted alongside the outcome in the checkpoint journal
/// (Engine::map uses it to round-trip typed per-job results).
struct JobContext {
    CancelToken token;
    unsigned attempt = 0;
    u64 seed = 0;
    json::Value* aux = nullptr;

    bool expired() const { return token.expired(); }
};

/// One unit of campaign work. `workload`/`scheme`/`seed` are the grid
/// coordinates (informational: they name the job in progress lines and
/// JSON rows); `key` is the checkpoint-journal identity (empty = never
/// journaled); `body` does the actual run. make_sim_job() builds the
/// common compile-and-run body; harnesses with bespoke emitters or
/// fault injectors supply their own.
struct Job {
    std::string name;     ///< unique display name, e.g. "bzip2/hwst128"
    std::string workload{};
    std::string scheme{};
    u64 seed = 0;
    std::string key{};    ///< journal key; empty opts out of the journal
    std::function<sim::RunResult(const JobContext&)> body;
    /// Force this job onto the caller's process even under --isolate:
    /// its body hands results back through captured references (golden
    /// compiles, host-timing cells) that cannot cross a fork.
    bool in_process = false;
};

/// What the engine hands back for one Job, in the job's grid slot:
/// results are stored by index, never by completion order, so merging
/// them in enumeration order is deterministic at any thread count.
struct JobOutcome {
    JobStatus status = JobStatus::Ok;
    sim::RunResult result;   ///< valid only when status == Ok
    std::string error;       ///< JobTimeout / exception message otherwise
    double wall_ms = 0.0;    ///< host wall-clock time spent in the body
    unsigned attempts = 1;   ///< body invocations (0 when skipped)
    bool from_journal = false; ///< replayed from the checkpoint journal
    bool from_cache = false; ///< served from the content-addressed cache
    bool isolated = false;   ///< ran in a worker subprocess (--isolate)
    json::Value aux;         ///< body side-channel (journal-persisted)
    /// Failure-taxonomy record (journal-persisted when non-null): exit
    /// status / terminating signal / last-reported progress of a dead
    /// worker, or the sentinel's divergence report.
    json::Value forensics;
};

/// Deterministic per-job seed: a SplitMix64-style mix of the root seed
/// with the job's grid coordinates. The same (root, salts...) always
/// yields the same seed, independent of enumeration or thread order, so
/// serial and parallel campaigns draw identical randomness.
template <typename... Salts>
u64 derive_seed(u64 root, Salts... salts)
{
    u64 z = root;
    for (const u64 salt : {static_cast<u64>(salts)...}) {
        z += 0x9E3779B97F4A7C15ULL + salt;
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
        z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
        z ^= z >> 31;
    }
    return z;
}

/// The attempt-indexed seed rule shared by the engine and any body that
/// derives extra randomness itself: attempt 0 reproduces `base` exactly
/// (so retry-free campaigns are byte-identical to the pre-retry world),
/// later attempts re-derive.
inline u64 attempt_seed(u64 base, unsigned attempt)
{
    return attempt == 0 ? base : derive_seed(base, attempt);
}

} // namespace hwst::exec
