#include "exec/engine.hpp"

#include <cstdlib>
#include <iostream>
#include <limits>
#include <mutex>
#include <thread>

#include "exec/cache.hpp"
#include "exec/cli.hpp"

namespace hwst::exec {

unsigned resolve_jobs(unsigned requested)
{
    if (requested != 0) return requested;
    if (const char* env = std::getenv("HWST_JOBS")) {
        const auto n =
            parse_count(env, std::numeric_limits<unsigned>::max());
        if (n && *n > 0) return static_cast<unsigned>(*n);
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw ? hw : 1;
}

namespace {

/// The job's one run on the calling thread under its deadline; the
/// outcome's aux carries the body's side-channel payload.
JobOutcome run_in_process(const Job& job, const EngineOptions& opts)
{
    std::optional<std::chrono::steady_clock::time_point> deadline;
    if (opts.timeout.count() > 0)
        deadline = std::chrono::steady_clock::now() + opts.timeout;
    JobOutcome out;
    json::Value aux;
    const JobContext ctx{CancelToken{deadline}, &aux};
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

} // namespace

std::vector<JobOutcome> Engine::run(std::span<const Job> jobs) const
{
    const EngineOptions& opts = opts_;
    std::vector<JobOutcome> outcomes(jobs.size());
    if (jobs.empty()) return outcomes;

    // Cache prepass: jobs with a finished cell in the content-addressed
    // cache never hit the pool. Serial and deterministic — served
    // outcomes land in their grid slots exactly as the cold run left
    // them.
    std::vector<std::size_t> pending;
    pending.reserve(jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        std::optional<JobOutcome> hit =
            opts.cache && !jobs[i].key.empty() ? opts.cache->load(jobs[i])
                                               : std::nullopt;
        if (hit) {
            outcomes[i] = std::move(*hit);
            outcomes[i].from_cache = true;
            continue;
        }
        pending.push_back(i);
    }

    const unsigned workers = std::max<std::size_t>(
        1, std::min<std::size_t>(resolve_jobs(opts.jobs), pending.size()));

    std::atomic<std::size_t> next{0};
    std::atomic<std::size_t> done{jobs.size() - pending.size()};
    std::mutex progress_mutex;

    const auto report = [&](const Job& job, const JobOutcome& out) {
        if (!opts.progress) return;
        const std::size_t n = done.fetch_add(1) + 1;
        std::lock_guard lock{progress_mutex};
        std::cerr << "\r[" << n << "/" << jobs.size() << "] " << job.name
                  << " " << job_status_name(out.status) << "      ";
        if (n == jobs.size()) std::cerr << '\n';
        std::cerr.flush();
    };

    const auto worker = [&] {
        for (;;) {
            const std::size_t slot = next.fetch_add(1);
            if (slot >= pending.size()) return;
            const std::size_t i = pending[slot];
            outcomes[i] = run_in_process(jobs[i], opts);
            // Only a finished verdict is worth serving to other
            // campaigns; a timeout is a fact about this host run, not
            // the cell.
            if (opts.cache && !jobs[i].key.empty() &&
                outcomes[i].status == JobStatus::Ok)
                opts.cache->store(jobs[i], outcomes[i]);
            report(jobs[i], outcomes[i]);
        }
    };

    if (workers <= 1) {
        // Inline serial path: the reference execution every parallel
        // run must reproduce bit-identically.
        worker();
        return outcomes;
    }

    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (unsigned t = 0; t < workers; ++t) pool.emplace_back(worker);
    for (auto& t : pool) t.join();
    return outcomes;
}

} // namespace hwst::exec
