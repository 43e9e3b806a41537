// Durability-layer tests: the checkpoint journal's full-fidelity
// round trip, kill-and-resume bit-identity of the BENCH envelope,
// retry/backoff/quarantine semantics, the attempt-indexed seed rule,
// foreign-journal refusal and corrupt-line recovery. The kill is
// in-process — a job body requests the process-wide shutdown after
// finishing, exactly what a SIGINT mid-grid does — so the test exercises
// the same drain-and-skip path without fork/exec.
//
// The Isolate/Sentinel suites exercise the process-isolation layer with
// real worker deaths: seeded SIGSEGV, allocation past RLIMIT_AS, a
// worker that ignores its deadline, one that blocks every signal the
// supervisor relies on, and a seeded DBT/interpreter divergence. The
// crash assertions are deliberately loose about *how* the worker died
// (a sanitizer turns SIGSEGV into exit(1), allocation failure into an
// abort); the contract under test is containment + forensics +
// bit-identical resume, not the exact signal number.
#include <chrono>
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <fstream>

#include <gtest/gtest.h>

#include "compiler/driver.hpp"
#include "exec/engine.hpp"
#include "exec/journal.hpp"
#include "exec/process.hpp"
#include "exec/report.hpp"
#include "exec/shutdown.hpp"
#include "exec/simrun.hpp"
#include "exec/supervisor.hpp"
#include "workloads/workload.hpp"

using namespace hwst;
using common::u64;
using exec::Engine;
using exec::EngineOptions;
using exec::Job;
using exec::JobOutcome;
using exec::JobStatus;
using exec::Journal;

namespace {

std::string temp_journal(const char* name)
{
    return (std::filesystem::temp_directory_path() / name).string();
}

/// Every test must leave the process-wide flag clear, even on failure.
struct ShutdownGuard {
    ShutdownGuard() { exec::clear_shutdown(); }
    ~ShutdownGuard() { exec::clear_shutdown(); }
};

/// The grid the resume tests replay: two workloads under two schemes,
/// real simulations so replayed results carry every counter.
std::vector<Job> small_grid()
{
    std::vector<Job> jobs;
    for (const char* name : {"crc32", "treeadd"}) {
        const auto& w = workloads::workload(name);
        for (const auto scheme :
             {compiler::Scheme::None, compiler::Scheme::Hwst128Tchk}) {
            jobs.push_back(exec::make_sim_job(
                std::string{name} + "/" +
                    std::string{compiler::scheme_name(scheme)},
                name, scheme, w.build));
        }
    }
    return jobs;
}

/// The deterministic part of a campaign's envelope: rows folded from
/// the outcome vector in grid order plus the status summary. wall_ms
/// and jobs are host-dependent by design, so the bit-identity claim is
/// made with both pinned.
std::string envelope_bytes(const std::vector<Job>& jobs,
                           const std::vector<JobOutcome>& outcomes)
{
    exec::json::Value payload = exec::json::Value::object();
    exec::json::Value rows = exec::json::Value::array();
    u64 total_cycles = 0;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        exec::json::Value row = exec::json::Value::object();
        row["name"] = jobs[i].name;
        row["status"] = exec::job_status_name(outcomes[i].status);
        if (outcomes[i].status == JobStatus::Ok) {
            const sim::RunResult& r = outcomes[i].result;
            row["cycles"] = r.cycles;
            row["instret"] = r.instret;
            row["exit_code"] = r.exit_code;
            row["dcache_misses"] = r.dcache.misses;
            row["keybuffer_hits"] = r.keybuffer.hits;
            total_cycles += r.cycles;
        }
        rows.push_back(row);
    }
    payload["rows"] = rows;
    payload["total_cycles"] = total_cycles;
    payload["summary"] = exec::summary_json(jobs, outcomes);
    return exec::bench_envelope("resume_test", 1, 0.0, payload).dump();
}

/// RAII environment variable, restored (to unset) on scope exit.
struct EnvGuard {
    std::string name;
    EnvGuard(const char* n, const char* v) : name{n}
    {
#if defined(__unix__) || defined(__APPLE__)
        ::setenv(n, v, 1);
#endif
    }
    ~EnvGuard()
    {
#if defined(__unix__) || defined(__APPLE__)
        ::unsetenv(name.c_str());
#endif
    }
};

/// Spin without ever polling the cancel token — the "worker ignores
/// everything" body. Bounded so a supervision bug fails the test
/// instead of hanging the suite.
sim::RunResult spin_ignoring_cancellation()
{
    const auto failsafe =
        std::chrono::steady_clock::now() + std::chrono::seconds{30};
    volatile u64 sink = 0;
    while (std::chrono::steady_clock::now() < failsafe) sink = sink + 1;
    return sim::RunResult{};
}

sim::RunResult synthetic_result()
{
    sim::RunResult r;
    r.trap.kind = ::hwst::hwst::TrapKind::SpatialViolation;
    r.trap.addr = 0xDEAD;
    r.trap.pc = 0xBEEF;
    r.exit_code = 7;
    r.cycles = 123456;
    r.instret = 654321;
    r.output = {1, -2, 3};
    r.dcache = {1000, 42};
    r.icache = {2000, 17};
    r.keybuffer = {300, 250, 4};
    r.scu_checks = 11;
    r.tcu_checks = 22;
    r.scu_saturated = 1;
    r.tcu_saturated = 2;
    r.smac_translations = 33;
    r.mix = {10, 9, 8, 7, 6, 5, 4, 3, 2, 1, 12, 13};
    return r;
}

} // namespace

TEST(Journal, OutcomeRecordRoundTripsFullFidelity)
{
    JobOutcome out;
    out.status = JobStatus::Ok;
    out.result = synthetic_result();
    out.wall_ms = 1.5;
    out.attempts = 2;
    out.aux = exec::json::Value::object();
    out.aux["extra"] = 99;

    // Through the serialized form, exactly as a resume sees it.
    const exec::json::Value rec =
        exec::json::Value::parse(exec::outcome_to_record("k", out).dump(0));
    const auto [key, back] = exec::outcome_from_record(rec);
    EXPECT_EQ(key, "k");
    EXPECT_EQ(back.status, JobStatus::Ok);
    EXPECT_EQ(back.attempts, 2u);
    const sim::RunResult& a = out.result;
    const sim::RunResult& b = back.result;
    EXPECT_EQ(b.trap.kind, a.trap.kind);
    EXPECT_EQ(b.trap.addr, a.trap.addr);
    EXPECT_EQ(b.trap.pc, a.trap.pc);
    EXPECT_EQ(b.exit_code, a.exit_code);
    EXPECT_EQ(b.cycles, a.cycles);
    EXPECT_EQ(b.instret, a.instret);
    EXPECT_EQ(b.output, a.output);
    EXPECT_EQ(b.dcache.accesses, a.dcache.accesses);
    EXPECT_EQ(b.dcache.misses, a.dcache.misses);
    EXPECT_EQ(b.icache.accesses, a.icache.accesses);
    EXPECT_EQ(b.icache.misses, a.icache.misses);
    EXPECT_EQ(b.keybuffer.lookups, a.keybuffer.lookups);
    EXPECT_EQ(b.keybuffer.hits, a.keybuffer.hits);
    EXPECT_EQ(b.keybuffer.flushes, a.keybuffer.flushes);
    EXPECT_EQ(b.scu_checks, a.scu_checks);
    EXPECT_EQ(b.tcu_checks, a.tcu_checks);
    EXPECT_EQ(b.scu_saturated, a.scu_saturated);
    EXPECT_EQ(b.tcu_saturated, a.tcu_saturated);
    EXPECT_EQ(b.smac_translations, a.smac_translations);
    EXPECT_EQ(b.mix.alu, a.mix.alu);
    EXPECT_EQ(b.mix.tchk, a.mix.tchk);
    EXPECT_EQ(b.mix.other, a.mix.other);
    EXPECT_EQ(back.aux.at("extra").as_int(), 99);

    // Failed outcomes carry the message instead of a result.
    JobOutcome bad;
    bad.status = JobStatus::Quarantined;
    bad.error = "still timing out";
    bad.attempts = 3;
    const auto [k2, back2] = exec::outcome_from_record(
        exec::outcome_to_record("k2", bad));
    EXPECT_EQ(back2.status, JobStatus::Quarantined);
    EXPECT_EQ(back2.error, "still timing out");

    // Crash forensics are part of the journaled record: a resume must
    // be able to explain a quarantined worker death after the fact.
    JobOutcome dead;
    dead.status = JobStatus::Crashed;
    dead.error = "worker died without reporting: killed by signal 11";
    dead.attempts = 1;
    dead.forensics = exec::json::Value::object();
    dead.forensics["cause"] = "crash";
    dead.forensics["signal"] = 11;
    const auto [k3, back3] = exec::outcome_from_record(
        exec::json::Value::parse(
            exec::outcome_to_record("k3", dead).dump(0)));
    EXPECT_EQ(back3.status, JobStatus::Crashed);
    ASSERT_FALSE(back3.forensics.is_null());
    EXPECT_EQ(back3.forensics.at("cause").as_string(), "crash");
    EXPECT_EQ(back3.forensics.at("signal").as_int(), 11);
}

TEST(Journal, KillAndResumeEnvelopeIsBitIdentical)
{
    const ShutdownGuard guard;
    const std::string path = temp_journal("hwst_resume_kill.journal");
    std::remove(path.c_str());

    const auto jobs = small_grid();
    const u64 fp = exec::grid_fingerprint(jobs);

    // Reference: one uninterrupted, unjournaled run.
    const auto reference = Engine{EngineOptions{.jobs = 1}}.run(jobs);
    const std::string want = envelope_bytes(jobs, reference);

    // Interrupted run: job #1's body requests a graceful shutdown after
    // finishing its work, so jobs #2/#3 are never started.
    {
        auto killer = jobs;
        const auto inner = killer[1].body;
        killer[1].body = [inner](const exec::JobContext& ctx) {
            const sim::RunResult r = inner(ctx);
            exec::request_shutdown();
            return r;
        };
        Journal journal{path, "resume_test", fp, /*resume=*/false};
        const auto partial = Engine{EngineOptions{
            .jobs = 1, .journal = &journal}}.run(killer);
        ASSERT_EQ(partial[0].status, JobStatus::Ok);
        ASSERT_EQ(partial[1].status, JobStatus::Ok);
        ASSERT_EQ(partial[2].status, JobStatus::Skipped);
        ASSERT_EQ(partial[3].status, JobStatus::Skipped);
        // Partial envelope is still valid, and flags itself partial.
        EXPECT_EQ(exec::grid_exit_code(partial, false), 130);
    }

    // Restart: replay the two finished jobs, run the two skipped ones.
    exec::clear_shutdown();
    Journal journal{path, "resume_test", fp, /*resume=*/true};
    EXPECT_EQ(journal.loaded(), 2u);
    EXPECT_EQ(journal.corrupt_lines(), 0u);
    const auto resumed =
        Engine{EngineOptions{.jobs = 1, .journal = &journal}}.run(jobs);
    EXPECT_TRUE(resumed[0].from_journal);
    EXPECT_TRUE(resumed[1].from_journal);
    EXPECT_FALSE(resumed[2].from_journal);
    EXPECT_FALSE(resumed[3].from_journal);

    EXPECT_EQ(envelope_bytes(jobs, resumed), want);
    std::remove(path.c_str());
}

TEST(Journal, SecondResumeReplaysEverything)
{
    const ShutdownGuard guard;
    const std::string path = temp_journal("hwst_resume_full.journal");
    std::remove(path.c_str());

    const auto jobs = small_grid();
    const u64 fp = exec::grid_fingerprint(jobs);
    std::string want;
    {
        Journal journal{path, "resume_test", fp, false};
        const auto outcomes = Engine{EngineOptions{
            .jobs = 1, .journal = &journal}}.run(jobs);
        want = envelope_bytes(jobs, outcomes);
    }
    Journal journal{path, "resume_test", fp, true};
    EXPECT_EQ(journal.loaded(), jobs.size());
    const auto replayed =
        Engine{EngineOptions{.jobs = 1, .journal = &journal}}.run(jobs);
    for (const auto& o : replayed) EXPECT_TRUE(o.from_journal);
    EXPECT_EQ(envelope_bytes(jobs, replayed), want);
    std::remove(path.c_str());
}

TEST(Journal, ResumeRefusesAForeignCampaign)
{
    const ShutdownGuard guard;
    const std::string path = temp_journal("hwst_resume_foreign.journal");
    std::remove(path.c_str());

    const auto jobs = small_grid();
    {
        Journal journal{path, "resume_test",
                        exec::grid_fingerprint(jobs), false};
    }
    // Same path, different grid shape -> refusal, not silent misuse.
    EXPECT_THROW(
        (Journal{path, "resume_test",
                 exec::grid_fingerprint(jobs, /*root_seed=*/99), true}),
        common::ToolchainError);
    // Same shape, different bench -> refusal too.
    EXPECT_THROW(
        (Journal{path, "other_bench", exec::grid_fingerprint(jobs), true}),
        common::ToolchainError);
    std::remove(path.c_str());
}

TEST(Journal, CorruptAndTruncatedLinesAreSkipped)
{
    const ShutdownGuard guard;
    const std::string path = temp_journal("hwst_resume_corrupt.journal");
    std::remove(path.c_str());

    const auto jobs = small_grid();
    const u64 fp = exec::grid_fingerprint(jobs);
    {
        Journal journal{path, "resume_test", fp, false};
        Engine{EngineOptions{.jobs = 1, .journal = &journal}}.run(jobs);
    }
    {
        // A torn trailing write and a garbage line mid-file: the crash
        // artifacts the loader must survive.
        std::ofstream out{path, std::ios::app};
        out << "{\"key\":\"torn\",\"status\":\"ok\",\"atte\n";
        out << "complete garbage\n";
    }
    Journal journal{path, "resume_test", fp, true};
    EXPECT_EQ(journal.loaded(), jobs.size());
    EXPECT_EQ(journal.corrupt_lines(), 2u);
    const auto replayed =
        Engine{EngineOptions{.jobs = 1, .journal = &journal}}.run(jobs);
    for (const auto& o : replayed) EXPECT_TRUE(o.from_journal);
    std::remove(path.c_str());
}

TEST(Journal, EmptyFileResumesFresh)
{
    const ShutdownGuard guard;
    const std::string path = temp_journal("hwst_resume_empty.journal");
    {
        std::ofstream create{path, std::ios::trunc};
    }
    // A crash right after creat() leaves a zero-byte file; resuming it
    // must start fresh, not refuse.
    Journal journal{path, "resume_test", 1234, true};
    EXPECT_EQ(journal.loaded(), 0u);
    std::remove(path.c_str());
}

TEST(Retry, FlakyJobRecoversAndSeedsAreAttemptIndexed)
{
    const ShutdownGuard guard;
    std::vector<u64> seeds;
    std::vector<Job> jobs;
    jobs.push_back(Job{
        .name = "flaky",
        .seed = 42,
        .body = [&seeds](const exec::JobContext& ctx) -> sim::RunResult {
            seeds.push_back(ctx.seed);
            if (ctx.attempt == 0)
                throw common::ToolchainError{"transient failure"};
            return sim::RunResult{};
        }});
    const auto& crc = workloads::workload("crc32");
    jobs.push_back(exec::make_sim_job("crc32/none", "crc32",
                                      compiler::Scheme::None, crc.build));

    const Engine engine{EngineOptions{
        .jobs = 1, .retries = 2, .backoff = std::chrono::milliseconds{1}}};
    const auto outcomes = engine.run(jobs);
    EXPECT_EQ(outcomes[0].status, JobStatus::Ok);
    EXPECT_EQ(outcomes[0].attempts, 2u);
    ASSERT_EQ(seeds.size(), 2u);
    EXPECT_EQ(seeds[0], 42u); // attempt 0 keeps the original seed
    EXPECT_EQ(seeds[1], exec::derive_seed(42, 1));

    // The retried neighbour never contaminates a clean job's result.
    EXPECT_EQ(outcomes[1].status, JobStatus::Ok);
    const auto plain = Engine{EngineOptions{.jobs = 1}}.run(
        std::span<const Job>{&jobs[1], 1});
    EXPECT_EQ(outcomes[1].result.cycles, plain[0].result.cycles);
    EXPECT_EQ(outcomes[1].result.exit_code, crc.expected);
}

TEST(Retry, ExhaustedBudgetQuarantines)
{
    const ShutdownGuard guard;
    std::vector<Job> jobs;
    jobs.push_back(Job{
        .name = "hopeless",
        .body = [](const exec::JobContext&) -> sim::RunResult {
            throw exec::JobTimeout{"always slow"};
        }});
    const Engine engine{EngineOptions{
        .jobs = 1, .retries = 2, .backoff = std::chrono::milliseconds{1}}};
    const auto outcomes = engine.run(jobs);
    EXPECT_EQ(outcomes[0].status, JobStatus::Quarantined);
    EXPECT_EQ(outcomes[0].attempts, 3u); // 1 try + 2 retries
    EXPECT_EQ(exec::grid_exit_code(outcomes, false), 1);
    EXPECT_EQ(exec::grid_exit_code(outcomes, true), 0);

    // Without a retry budget the classic statuses are preserved.
    const auto classic = Engine{EngineOptions{.jobs = 1}}.run(jobs);
    EXPECT_EQ(classic[0].status, JobStatus::Timeout);
    EXPECT_EQ(classic[0].attempts, 1u);
}

TEST(Retry, QuarantinedJobsReplayFromTheJournal)
{
    const ShutdownGuard guard;
    const std::string path = temp_journal("hwst_resume_quar.journal");
    std::remove(path.c_str());

    std::vector<Job> jobs;
    unsigned invocations = 0;
    jobs.push_back(Job{
        .name = "hopeless",
        .key = "hopeless",
        .body = [&invocations](const exec::JobContext&) -> sim::RunResult {
            ++invocations;
            throw common::ToolchainError{"permanent failure"};
        }});
    const u64 fp = exec::grid_fingerprint(jobs);
    {
        Journal journal{path, "resume_test", fp, false};
        const auto outcomes = Engine{EngineOptions{
            .jobs = 1,
            .retries = 1,
            .backoff = std::chrono::milliseconds{1},
            .journal = &journal}}.run(jobs);
        EXPECT_EQ(outcomes[0].status, JobStatus::Quarantined);
        EXPECT_EQ(invocations, 2u);
    }
    // The quarantine is a journaled verdict: a resume must not burn the
    // retry budget again.
    Journal journal{path, "resume_test", fp, true};
    const auto replayed = Engine{EngineOptions{
        .jobs = 1, .retries = 1, .journal = &journal}}.run(jobs);
    EXPECT_EQ(replayed[0].status, JobStatus::Quarantined);
    EXPECT_TRUE(replayed[0].from_journal);
    EXPECT_EQ(invocations, 2u); // body never ran again
    std::remove(path.c_str());
}

TEST(Isolate, MatchesInProcessBitIdentically)
{
    if (!exec::isolation_supported())
        GTEST_SKIP() << "no fork on this host";
    const ShutdownGuard guard;
    const auto jobs = small_grid();

    const auto in_process = Engine{EngineOptions{.jobs = 1}}.run(jobs);
    const auto isolated =
        Engine{EngineOptions{.jobs = 2, .isolate = true}}.run(jobs);
    for (const auto& o : isolated) {
        EXPECT_EQ(o.status, JobStatus::Ok) << o.error;
        EXPECT_TRUE(o.isolated);
    }
    EXPECT_EQ(envelope_bytes(jobs, isolated),
              envelope_bytes(jobs, in_process));
}

TEST(Isolate, WorkerCrashIsContainedAndForensic)
{
    if (!exec::isolation_supported())
        GTEST_SKIP() << "no fork on this host";
    const ShutdownGuard guard;
    const std::string path = temp_journal("hwst_isolate_crash.journal");
    std::remove(path.c_str());

    // Job 0 dies mid-job on every attempt; job 1 is an ordinary
    // simulation that must be untouched by its neighbour's death.
    std::vector<Job> jobs;
    jobs.push_back(Job{
        .name = "crasher",
        .key = "crasher",
        .body = [](const exec::JobContext&) -> sim::RunResult {
            std::raise(SIGSEGV);
            return sim::RunResult{};
        }});
    const auto& crc = workloads::workload("crc32");
    jobs.push_back(exec::make_sim_job("crc32/none", "crc32",
                                      compiler::Scheme::None, crc.build));
    const u64 fp = exec::grid_fingerprint(jobs);

    // Reference: an uninterrupted --isolate run of the same grid.
    const auto reference = Engine{EngineOptions{
        .jobs = 1,
        .retries = 1,
        .backoff = std::chrono::milliseconds{1},
        .isolate = true}}.run(jobs);
    EXPECT_EQ(reference[0].status, JobStatus::Quarantined);
    EXPECT_EQ(reference[1].status, JobStatus::Ok);
    const std::string want = envelope_bytes(jobs, reference);

    // Journaled run: the supervisor must survive both attempts of the
    // crash and journal the quarantine verdict with forensics.
    {
        Journal journal{path, "resume_test", fp, /*resume=*/false};
        const auto outcomes = Engine{EngineOptions{
            .jobs = 1,
            .retries = 1,
            .backoff = std::chrono::milliseconds{1},
            .journal = &journal,
            .isolate = true}}.run(jobs);
        EXPECT_EQ(outcomes[0].status, JobStatus::Quarantined);
        EXPECT_EQ(outcomes[0].attempts, 2u);
        EXPECT_FALSE(outcomes[0].error.empty());
        // Loose on purpose: plain builds record the signal, sanitizer
        // builds intercept SIGSEGV and exit(1). Either is forensic.
        ASSERT_FALSE(outcomes[0].forensics.is_null());
        EXPECT_TRUE(outcomes[0].forensics.find("cause") != nullptr);
        EXPECT_TRUE(outcomes[0].forensics.find("signal") != nullptr ||
                    outcomes[0].forensics.find("exit_status") != nullptr);
        EXPECT_EQ(outcomes[1].status, JobStatus::Ok);
    }

    // Resume: the quarantined crash replays (with its forensics) and
    // the envelope is byte-identical to the uninterrupted run.
    Journal journal{path, "resume_test", fp, /*resume=*/true};
    EXPECT_EQ(journal.loaded(), 2u);
    const JobOutcome* rec = journal.find("crasher");
    ASSERT_NE(rec, nullptr);
    EXPECT_FALSE(rec->forensics.is_null());
    const auto resumed = Engine{EngineOptions{
        .jobs = 1,
        .retries = 1,
        .journal = &journal,
        .isolate = true}}.run(jobs);
    EXPECT_TRUE(resumed[0].from_journal);
    EXPECT_TRUE(resumed[1].from_journal);
    EXPECT_EQ(envelope_bytes(jobs, resumed), want);
    std::remove(path.c_str());
}

TEST(Isolate, RlimitCagedAllocationQuarantines)
{
    if (!exec::isolation_supported())
        GTEST_SKIP() << "no fork on this host";
    const ShutdownGuard guard;
    std::vector<Job> jobs;
    jobs.push_back(Job{
        .name = "hog",
        .body = [](const exec::JobContext&) -> sim::RunResult {
            // ~1 GiB, touched so it cannot stay virtual — far past the
            // 256 MiB cage below. Depending on the allocator this is a
            // clean bad_alloc (an Error record from the worker) or a
            // death by signal; both must end in quarantine.
            std::vector<char> hog(1u << 30, 1);
            sim::RunResult r;
            r.exit_code = hog[hog.size() - 1];
            return r;
        }});
    const auto outcomes = Engine{EngineOptions{
        .jobs = 1,
        .retries = 1,
        .backoff = std::chrono::milliseconds{1},
        .isolate = true,
        .rlimit_mb = 256}}.run(jobs);
    EXPECT_EQ(outcomes[0].status, JobStatus::Quarantined);
    EXPECT_EQ(outcomes[0].attempts, 2u);
    EXPECT_FALSE(outcomes[0].error.empty());
}

TEST(Isolate, HardTimeoutKillsHungWorker)
{
    if (!exec::isolation_supported())
        GTEST_SKIP() << "no fork on this host";
    const ShutdownGuard guard;
    std::vector<Job> jobs;
    jobs.push_back(Job{
        .name = "deadline-ignorer",
        .body = [](const exec::JobContext&) {
            return spin_ignoring_cancellation();
        }});
    const auto outcomes = Engine{EngineOptions{
        .jobs = 1,
        .timeout = std::chrono::milliseconds{200},
        .isolate = true,
        .grace = std::chrono::milliseconds{150},
        .heartbeat = std::chrono::milliseconds{50}}}.run(jobs);
    EXPECT_EQ(outcomes[0].status, JobStatus::Timeout);
    EXPECT_NE(outcomes[0].error.find("hard timeout"), std::string::npos)
        << outcomes[0].error;
    ASSERT_FALSE(outcomes[0].forensics.is_null());
    EXPECT_EQ(outcomes[0].forensics.at("cause").as_string(),
              "hard-timeout");
}

#if defined(__unix__) || defined(__APPLE__)
TEST(Isolate, HeartbeatWatchdogCatchesWedgedWorker)
{
    const ShutdownGuard guard;
    std::vector<Job> jobs;
    jobs.push_back(Job{
        .name = "wedged",
        .body = [](const exec::JobContext&) {
            // Block every signal the supervisor relies on — the worst
            // case short of a kernel-side hang. Only the heartbeat
            // watchdog (silence on the pipe) can catch this.
            sigset_t set;
            sigemptyset(&set);
            sigaddset(&set, SIGALRM);
            sigaddset(&set, SIGTERM);
            sigprocmask(SIG_BLOCK, &set, nullptr);
            return spin_ignoring_cancellation();
        }});
    const auto outcomes = Engine{EngineOptions{
        .jobs = 1,
        .isolate = true,
        .grace = std::chrono::milliseconds{150},
        .heartbeat = std::chrono::milliseconds{50}}}.run(jobs);
    EXPECT_EQ(outcomes[0].status, JobStatus::Crashed);
    ASSERT_FALSE(outcomes[0].forensics.is_null());
    EXPECT_EQ(outcomes[0].forensics.at("cause").as_string(), "watchdog");
}
#endif

TEST(Sentinel, SamplingIsDeterministic)
{
    Job job;
    job.name = "a/b";
    job.key = "a/b";
    job.seed = 7;
    EXPECT_FALSE(exec::sentinel_sampled(job, 0));
    EXPECT_TRUE(exec::sentinel_sampled(job, 1));
    const bool first = exec::sentinel_sampled(job, 4);
    for (int i = 0; i < 3; ++i)
        EXPECT_EQ(exec::sentinel_sampled(job, 4), first);
    // Sampling keys off job identity, not address or call order.
    Job other = job;
    other.key = "c/d";
    other.seed = 8;
    bool any_diff = exec::sentinel_sampled(other, 4) != first;
    for (u64 s = 0; s < 64 && !any_diff; ++s) {
        other.seed = s;
        any_diff = exec::sentinel_sampled(other, 4) != first;
    }
    EXPECT_TRUE(any_diff);
}

TEST(Sentinel, CleanRunMatches)
{
    if (!exec::isolation_supported())
        GTEST_SKIP() << "no fork on this host";
    const ShutdownGuard guard;
    const auto& crc = workloads::workload("crc32");
    std::vector<Job> jobs;
    jobs.push_back(exec::make_sim_job("crc32/none", "crc32",
                                      compiler::Scheme::None, crc.build));

    const auto plain = Engine{EngineOptions{.jobs = 1}}.run(jobs);
    const auto checked = Engine{EngineOptions{
        .jobs = 1, .isolate = true, .sentinel = 1}}.run(jobs);
    ASSERT_EQ(checked[0].status, JobStatus::Ok);
    EXPECT_EQ(checked[0].result.cycles, plain[0].result.cycles);
    EXPECT_EQ(checked[0].result.exit_code, plain[0].result.exit_code);
    ASSERT_FALSE(checked[0].forensics.is_null());
    EXPECT_EQ(
        checked[0].forensics.at("sentinel").at("verdict").as_string(),
        "match");
}

TEST(Sentinel, SeededDivergenceDegradesToInterpreter)
{
    if (!exec::isolation_supported())
        GTEST_SKIP() << "no fork on this host";
    const ShutdownGuard guard;
    const std::string path = temp_journal("hwst_sentinel_div.journal");
    std::remove(path.c_str());

    const auto& crc = workloads::workload("crc32");
    std::vector<Job> jobs;
    jobs.push_back(exec::make_sim_job("crc32/none", "crc32",
                                      compiler::Scheme::None, crc.build));
    const u64 fp = exec::grid_fingerprint(jobs);

    // Interpreter ground truth, captured before the fault hook is set.
    const auto reference = Engine{EngineOptions{.jobs = 1}}.run(jobs);
    ASSERT_EQ(reference[0].status, JobStatus::Ok);

    // HWST_DBT_FAULT nudges the DBT tier's cycle count (test-only); the
    // interpreter sibling is unaffected, so the sentinel must catch the
    // divergence and degrade the job to the interpreter result.
    const EnvGuard fault{"HWST_DBT_FAULT", "1"};
    Journal journal{path, "resume_test", fp, /*resume=*/false};
    const auto outcomes = Engine{EngineOptions{
        .jobs = 1,
        .journal = &journal,
        .isolate = true,
        .sentinel = 1}}.run(jobs);
    ASSERT_EQ(outcomes[0].status, JobStatus::Ok);
    EXPECT_EQ(outcomes[0].result.cycles, reference[0].result.cycles);
    EXPECT_EQ(outcomes[0].result.instret, reference[0].result.instret);
    ASSERT_FALSE(outcomes[0].forensics.is_null());
    const auto& note = outcomes[0].forensics.at("sentinel");
    EXPECT_EQ(note.at("verdict").as_string(), "divergence");
    EXPECT_TRUE(note.find("dbt_result") != nullptr);
    EXPECT_TRUE(note.find("interpreter_result") != nullptr);

    // The divergence report is durable: it replays from the journal.
    Journal replay{path, "resume_test", fp, /*resume=*/true};
    const JobOutcome* rec = replay.find(jobs[0].key);
    ASSERT_NE(rec, nullptr);
    ASSERT_FALSE(rec->forensics.is_null());
    EXPECT_EQ(
        rec->forensics.at("sentinel").at("verdict").as_string(),
        "divergence");
    std::remove(path.c_str());
}

TEST(Sentinel, ForcedInterpreterIsCountedInDbtStats)
{
    const auto& crc = workloads::workload("crc32");
    const mir::Module module = crc.build();
    const auto cp = compiler::compile(module, compiler::Scheme::None);
    sim::force_interpreter(true);
    sim::Machine machine{cp.program, cp.machine_config};
    const sim::RunResult r = machine.run();
    sim::force_interpreter(false);
    EXPECT_EQ(r.exit_code, crc.expected);
    // Unless the environment pinned the interpreter outright, the forced
    // interpreter run counts as a sentinel degradation, and the block
    // cache must never have been consulted.
    if (sim::env_tier() != sim::ExecTier::Interp) {
        EXPECT_EQ(machine.dbt_stats().sentinel_degraded, 1u);
        EXPECT_EQ(machine.dbt_stats().blocks, 0u);
    }
}
