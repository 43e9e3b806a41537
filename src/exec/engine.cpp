#include "exec/engine.hpp"

#include <cstdlib>
#include <iostream>
#include <limits>
#include <mutex>
#include <thread>

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

/// The job's one run on the calling thread under its deadline.
JobOutcome run_in_process(const Job& job, const EngineOptions& opts)
{
    std::optional<std::chrono::steady_clock::time_point> deadline;
    if (opts.timeout.count() > 0)
        deadline = std::chrono::steady_clock::now() + opts.timeout;
    JobOutcome out;
    const JobContext ctx{CancelToken{deadline}, opts.cache};
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
    return out;
}

} // namespace

std::vector<JobOutcome> Engine::run(std::span<const Job> jobs) const
{
    const EngineOptions& opts = opts_;
    std::vector<JobOutcome> outcomes(jobs.size());
    if (jobs.empty()) return outcomes;

    const unsigned workers = std::max<std::size_t>(
        1, std::min<std::size_t>(resolve_jobs(opts.jobs), jobs.size()));

    std::atomic<std::size_t> next{0};
    std::atomic<std::size_t> done{0};
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
            const std::size_t i = next.fetch_add(1);
            if (i >= jobs.size()) return;
            outcomes[i] = run_in_process(jobs[i], opts);
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
