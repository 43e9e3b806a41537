// Job model of the campaign execution engine: a Job is one independent
// sim::Machine run (workload × scheme × machine-config tweak)
// and a JobOutcome is what the worker hands back. Everything the figure
// harnesses and the fault campaign share lives here, so every
// campaign-style harness enumerates the same shape of work.
#pragma once

#include <chrono>
#include <functional>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>

#include "common/bitops.hpp"
#include "sim/machine.hpp"

namespace hwst::exec {

using common::u64;

class ResultCache; // exec/cache.hpp

/// Cooperative cancellation handle passed to every job body. A job is
/// cancelled when its per-job wall-clock deadline passes; long-running
/// bodies must poll `expired()` at a reasonable granularity
/// (run_machine does this every few thousand simulated instructions).
class CancelToken {
public:
    CancelToken() = default;
    explicit CancelToken(
        std::optional<std::chrono::steady_clock::time_point> deadline)
        : deadline_{deadline}
    {
    }

    bool expired() const
    {
        return deadline_ &&
               std::chrono::steady_clock::now() >= *deadline_;
    }

private:
    std::optional<std::chrono::steady_clock::time_point> deadline_;
};

/// Thrown by a job body when it observed its CancelToken expire and
/// unwound gracefully. The engine converts it into JobStatus::Timeout —
/// it never escapes Engine::run.
class JobTimeout : public std::runtime_error {
public:
    explicit JobTimeout(const std::string& what) : std::runtime_error{what} {}
};

enum class JobStatus : common::u8 {
    Ok,      ///< body completed and returned a RunResult
    Timeout, ///< body observed its deadline and unwound (JobTimeout)
    Error,   ///< body threw any other exception (message captured)
};

constexpr std::string_view job_status_name(JobStatus s)
{
    switch (s) {
    case JobStatus::Ok: return "ok";
    case JobStatus::Timeout: return "timeout";
    case JobStatus::Error: return "error";
    }
    return "unknown";
}

/// Everything a body receives for its one run: its cancellation token
/// and the result cache (nullptr without --cache). A body that
/// simulates through run_program, or an Engine::map chunk with a
/// MapCodec, looks its cell up there and publishes it on a miss.
struct JobContext {
    CancelToken token;
    ResultCache* cache = nullptr;

    bool expired() const { return token.expired(); }
};

/// One unit of campaign work. `workload`/`scheme` name the job in
/// progress lines and JSON rows; `body` does the actual run.
/// make_sim_job() builds the common compile-and-run body; harnesses
/// with bespoke emitters or fault injectors supply their own.
struct Job {
    std::string name;     ///< unique display name, e.g. "bzip2/hwst128"
    std::string workload{};
    std::string scheme{};
    std::function<sim::RunResult(const JobContext&)> body;
};

/// What the engine hands back for one Job, in the job's grid slot:
/// results are stored by index, never by completion order, so merging
/// them in enumeration order is deterministic at any thread count.
struct JobOutcome {
    JobStatus status = JobStatus::Ok;
    sim::RunResult result;   ///< valid only when status == Ok
    std::string error;       ///< JobTimeout / exception message otherwise
    double wall_ms = 0.0;    ///< host wall-clock time spent in the body
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

} // namespace hwst::exec
