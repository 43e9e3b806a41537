#include "exec/supervisor.hpp"

#include <cstdlib>
#include <cstring>
#include <iostream>
#include <mutex>

#include "common/env.hpp"
#include "exec/engine.hpp"
#include "exec/journal.hpp"
#include "exec/process.hpp"
#include "exec/report.hpp"
#include "sim/machine.hpp"

namespace hwst::exec {

JobOutcome attempt_in_process(const Job& job, const CancelToken& token,
                              unsigned attempt)
{
    JobOutcome out;
    out.attempts = attempt + 1;
    json::Value aux;
    const JobContext ctx{token, attempt, attempt_seed(job.seed, attempt),
                         &aux};
    const auto t0 = std::chrono::steady_clock::now();
    try {
        out.result = job.body(ctx);
        out.status = JobStatus::Ok;
    } catch (const JobTimeout& e) {
        out.status = JobStatus::Timeout;
        out.error = e.what();
    } catch (const std::exception& e) {
        out.status = JobStatus::Error;
        out.error = e.what();
    }
    out.wall_ms = std::chrono::duration<double, std::milli>(
                      std::chrono::steady_clock::now() - t0)
                      .count();
    out.aux = std::move(aux);
    return out;
}

namespace {

std::string signal_description(int sig)
{
#if defined(__unix__) || defined(__APPLE__)
    if (const char* s = ::strsignal(sig))
        return std::string{s} + " (signal " + std::to_string(sig) + ")";
#endif
    return "signal " + std::to_string(sig);
}

WorkerRequest worker_request(const SuperviseOptions& opts,
                             bool force_interpreter)
{
    WorkerRequest req;
    req.timeout = opts.timeout;
    req.grace = opts.grace;
    req.heartbeat = opts.heartbeat;
    req.rlimit_mb = opts.rlimit_mb;
    req.rlimit_cpu_s = opts.rlimit_cpu_s;
    req.force_interpreter = force_interpreter;
    req.stop = opts.stop;
    return req;
}

/// WorkerReport -> JobOutcome: a reported record wins outright; a dead
/// or hung worker becomes a first-class Crashed/Timeout outcome with a
/// forensic record instead of taking the campaign down.
JobOutcome classify_report(const WorkerReport& rep, unsigned attempt)
{
    if (rep.has_record) {
        try {
            auto [key, out] = outcome_from_record(rep.record);
            out.from_journal = false;
            out.isolated = true;
            return out;
        } catch (const json::JsonError&) {
            // Fall through: a record that fails validation is treated
            // like a torn one.
        }
    }

    JobOutcome out;
    out.attempts = attempt + 1;
    out.isolated = true;
    out.wall_ms = rep.wall_ms;

    if (!rep.spawn_error.empty()) {
        // The worker never existed; an ordinary (retriable) host error.
        out.status = JobStatus::Error;
        out.error = "worker spawn failed: " + rep.spawn_error;
        return out;
    }

    json::Value f = json::Value::object();
    const char* cause = rep.hard_timeout ? "hard-timeout"
                        : rep.hung       ? "watchdog"
                        : rep.torn_record || rep.has_record
                            ? "torn-record"
                            : "crash";
    f["cause"] = cause;
    if (rep.term_signal != 0) {
        f["signal"] = rep.term_signal;
        f["signal_name"] = signal_description(rep.term_signal);
    }
    if (rep.exit_status >= 0) f["exit_status"] = rep.exit_status;
    f["last_progress"] = rep.last_progress;
    f["heartbeats"] = rep.heartbeats;
    out.forensics = f;

    const std::string death =
        rep.term_signal != 0
            ? "killed by " + signal_description(rep.term_signal)
            : "exited with status " + std::to_string(rep.exit_status);
    if (rep.hard_timeout) {
        out.status = JobStatus::Timeout;
        out.error = "hard timeout: worker ignored its deadline and was " +
                    death;
    } else if (rep.hung) {
        out.status = JobStatus::Crashed;
        out.error = "worker hung: heartbeat watchdog fired after " +
                    std::to_string(rep.heartbeats) + " beats; " + death;
    } else {
        out.status = JobStatus::Crashed;
        out.error = "worker died without reporting: " + death;
    }
    return out;
}

} // namespace

JobOutcome attempt_isolated(const Job& job, unsigned attempt,
                            const SuperviseOptions& opts)
{
    const WorkerReport rep =
        run_worker(job, attempt, worker_request(opts, false));
    return classify_report(rep, attempt);
}

bool sentinel_sampled(const Job& job, unsigned sentinel)
{
    if (sentinel == 0) return false;
    if (sentinel <= 1) return true;
    const std::string& id = job.key.empty() ? job.name : job.key;
    return derive_seed(job.seed, fnv1a(id)) % sentinel == 0;
}

JobOutcome sentinel_check(const Job& job, unsigned attempt,
                          const SuperviseOptions& opts, JobOutcome primary)
{
    // With the interpreter pinned globally (HWST_TIER=interp) both runs
    // would use it: nothing to cross-check.
    if (sim::env_tier() == sim::ExecTier::Interp) return primary;

    // The sibling runs the identical attempt (same attempt-indexed
    // seed) in a fresh worker forced onto the pure interpreter — a
    // fresh process is, among other things, a flushed block cache.
    const WorkerReport rep =
        run_worker(job, attempt, worker_request(opts, true));
    JobOutcome reference = classify_report(rep, attempt);

    json::Value note = json::Value::object();
    if (reference.status != JobStatus::Ok) {
        // Advisory only: the cross-check itself failing must not
        // invalidate a job that completed.
        note["verdict"] = "reference-failed";
        note["status"] = job_status_name(reference.status);
        note["error"] = reference.error;
        if (primary.forensics.is_null())
            primary.forensics = json::Value::object();
        primary.forensics["sentinel"] = note;
        return primary;
    }

    // The json_check --equiv comparator, applied to the two records:
    // strip host-side fields, then require byte equality.
    const std::string a =
        strip_host_fields(outcome_to_record("sentinel", primary)).dump(0);
    const std::string b =
        strip_host_fields(outcome_to_record("sentinel", reference))
            .dump(0);
    if (a == b) {
        note["verdict"] = "match";
        if (primary.forensics.is_null())
            primary.forensics = json::Value::object();
        primary.forensics["sentinel"] = note;
        return primary;
    }

    // Divergence: the superblock dispatcher broke the determinism
    // contract for this job. Degrade gracefully — the
    // interpreter result is ground truth — and journal a full
    // divergence report.
    note["verdict"] = "divergence";
    note["dbt_result"] = result_to_json(primary.result);
    note["interpreter_result"] = result_to_json(reference.result);
    reference.forensics = json::Value::object();
    reference.forensics["sentinel"] = note;
    {
        static std::mutex mutex;
        const std::lock_guard lock{mutex};
        std::cerr << "[sentinel] " << job.name
                  << ": accelerated tier diverged from the interpreter; "
                     "degraded to the interpreter result (divergence "
                     "report journaled)\n";
    }
    return reference;
}

unsigned sentinel_from_env()
{
    const char* e = std::getenv("HWST_SENTINEL");
    if (!e) return 0;
    if (const auto b = common::parse_bool_flag(e))
        return *b ? kDefaultSentinelRate : 0;
    char* end = nullptr;
    const unsigned long v = std::strtoul(e, &end, 10);
    if (end != e && *end == '\0' && v > 0)
        return static_cast<unsigned>(v);
    std::cerr << "[env] HWST_SENTINEL='" << e
              << "' is neither a boolean nor a positive sample rate; "
                 "ignoring\n";
    return 0;
}

} // namespace hwst::exec
