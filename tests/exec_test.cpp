// Exec engine tests: the determinism contract (serial and parallel runs
// of the same grid produce identical aggregates), timeout/cancellation,
// error capture, seed derivation, and the JSON layer (round-trip plus
// the BENCH_<name>.json envelope).
#include <cstdio>
#include <filesystem>
#include <fstream>

#include <gtest/gtest.h>

#include "exec/cli.hpp"
#include "exec/engine.hpp"
#include "exec/report.hpp"
#include "exec/simrun.hpp"
#include "mir/builder.hpp"
#include "workloads/workload.hpp"

using namespace hwst;
using common::u64;
using exec::CancelToken;
using exec::Engine;
using exec::EngineOptions;
using exec::Job;
using exec::JobStatus;

namespace {

/// main() { i = 0; loop: i = i + 1; goto loop; } — runs until fuel or
/// cancellation. The counter keeps the state from ever repeating, so
/// the dispatcher's periodic fast-forward cannot reach the fuel limit
/// early: the run really burns host time.
mir::Module infinite_module()
{
    mir::Module m;
    auto& fn = m.add_function("main", {}, mir::Ty::I64);
    mir::FunctionBuilder b{m, fn};
    b.set_insert(b.block("entry"));
    const auto i = b.local("i");
    b.store_local(i, b.const_i64(0));
    const auto loop = b.block("loop");
    b.jmp(loop);
    b.set_insert(loop);
    b.store_local(i, b.add(b.load_local(i), b.const_i64(1)));
    b.jmp(loop);
    return m;
}

/// The fig5-style grid the determinism test runs at several thread
/// counts: two real workloads under two schemes.
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

} // namespace

TEST(ExecEngine, SerialAndParallelOutcomesAreIdentical)
{
    const auto jobs = small_grid();
    const Engine serial{EngineOptions{.jobs = 1}};
    const Engine parallel{EngineOptions{.jobs = 8}};
    const auto a = serial.run(jobs);
    const auto b = parallel.run(jobs);
    ASSERT_EQ(a.size(), jobs.size());
    ASSERT_EQ(b.size(), jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        EXPECT_EQ(a[i].status, JobStatus::Ok) << jobs[i].name;
        EXPECT_EQ(b[i].status, JobStatus::Ok) << jobs[i].name;
        // The full per-run aggregate, not just the headline numbers.
        EXPECT_EQ(a[i].result.cycles, b[i].result.cycles) << jobs[i].name;
        EXPECT_EQ(a[i].result.instret, b[i].result.instret)
            << jobs[i].name;
        EXPECT_EQ(a[i].result.exit_code, b[i].result.exit_code)
            << jobs[i].name;
        EXPECT_EQ(a[i].result.output, b[i].result.output) << jobs[i].name;
        EXPECT_EQ(a[i].result.dcache.misses, b[i].result.dcache.misses)
            << jobs[i].name;
    }
}

TEST(ExecEngine, TimeoutCancelsAHungJobAndSparesTheRest)
{
    std::vector<Job> jobs;
    jobs.push_back(exec::make_sim_job(
        "hang/none", "hang", compiler::Scheme::None, infinite_module,
        [](sim::MachineConfig& cfg) {
            // Far more fuel than the budget allows to burn: the timeout,
            // not the fuel limit, must end this run.
            cfg.fuel = 4'000'000'000ULL;
        }));
    const auto& crc = workloads::workload("crc32");
    jobs.push_back(exec::make_sim_job("crc32/none", "crc32",
                                      compiler::Scheme::None, crc.build));

    // Generous budget: crc32 must finish inside it even under the
    // sanitizer presets' ~10x slowdown, while the hung job can only be
    // ended by it.
    const Engine engine{EngineOptions{
        .jobs = 1, .timeout = std::chrono::milliseconds{2000}}};
    const auto outcomes = engine.run(jobs);
    EXPECT_EQ(outcomes[0].status, JobStatus::Timeout);
    EXPECT_FALSE(outcomes[0].error.empty());
    // The deadline is per job, so the well-behaved neighbour completes.
    EXPECT_EQ(outcomes[1].status, JobStatus::Ok);
    EXPECT_EQ(outcomes[1].result.exit_code, crc.expected);
}

TEST(ExecEngine, BodyExceptionIsCapturedAsError)
{
    std::vector<Job> jobs;
    jobs.push_back(
        Job{.name = "boom",
            .body = [](const exec::JobContext&) -> sim::RunResult {
                throw common::ToolchainError{"deliberate"};
            }});
    const auto outcomes = Engine{}.run(jobs);
    ASSERT_EQ(outcomes.size(), 1u);
    EXPECT_EQ(outcomes[0].status, JobStatus::Error);
    EXPECT_NE(outcomes[0].error.find("deliberate"), std::string::npos);
}

TEST(ExecEngine, MapCollectsTypedResultsInIndexOrder)
{
    const Engine engine{EngineOptions{.jobs = 4}};
    std::vector<std::size_t> out;
    const auto outcomes = engine.map<std::size_t>(
        16, [](std::size_t i, const exec::JobContext&) { return i * i; },
        out);
    ASSERT_EQ(out.size(), 16u);
    for (std::size_t i = 0; i < out.size(); ++i) {
        EXPECT_EQ(outcomes[i].status, JobStatus::Ok);
        EXPECT_EQ(out[i], i * i);
    }
}

TEST(ExecEngine, DeriveSeedIsCoordinateStable)
{
    const auto s = exec::derive_seed(0xC0FFEE, 1, 2, 3);
    EXPECT_EQ(s, exec::derive_seed(0xC0FFEE, 1, 2, 3));
    EXPECT_NE(s, exec::derive_seed(0xC0FFEE, 1, 2, 4));
    EXPECT_NE(s, exec::derive_seed(0xC0FFEE, 2, 1, 3));
    EXPECT_NE(s, exec::derive_seed(0xBEEF, 1, 2, 3));
}

TEST(ExecEngine, AttemptSeedKeepsAttemptZeroByteCompatible)
{
    // Attempt 0 must reproduce the original seed exactly (a retry-free
    // campaign is bit-identical to the pre-retry engine); later
    // attempts re-derive so a flaky run sees fresh randomness.
    EXPECT_EQ(exec::attempt_seed(42, 0), 42u);
    EXPECT_EQ(exec::attempt_seed(42, 1), exec::derive_seed(42, 1));
    EXPECT_NE(exec::attempt_seed(42, 1), exec::attempt_seed(42, 2));
}

TEST(ExecEngine, JobStatusNamesRoundTrip)
{
    using exec::JobStatus;
    for (const JobStatus s :
         {JobStatus::Ok, JobStatus::Timeout, JobStatus::Error,
          JobStatus::Crashed, JobStatus::Quarantined,
          JobStatus::Skipped}) {
        const auto back =
            exec::job_status_from_name(exec::job_status_name(s));
        ASSERT_TRUE(back.has_value());
        EXPECT_EQ(*back, s);
    }
    EXPECT_FALSE(exec::job_status_from_name("nonsense").has_value());
}

TEST(ExecEngine, ResolveJobsNeverReturnsZero)
{
    EXPECT_GE(exec::resolve_jobs(0), 1u);
    EXPECT_EQ(exec::resolve_jobs(3), 3u);
}

TEST(ExecCli, ParsesTheSharedGridFlags)
{
    exec::GridOptions o;
    const char* argv[] = {"prog",    "--jobs", "4",        "--json",
                          "out.json", "--timeout-ms", "250", "--smoke"};
    const int argc = static_cast<int>(std::size(argv));
    for (int i = 1; i < argc; ++i)
        EXPECT_TRUE(exec::parse_grid_flag(
            o, argc, const_cast<char**>(argv), i));
    EXPECT_EQ(o.jobs, 4u);
    EXPECT_EQ(o.json_path, "out.json");
    EXPECT_TRUE(o.json);
    EXPECT_EQ(o.timeout_ms, 250u);
    EXPECT_TRUE(o.smoke);

    exec::GridOptions n;
    const char* argv2[] = {"prog", "--no-json"};
    int i = 1;
    EXPECT_TRUE(
        exec::parse_grid_flag(n, 2, const_cast<char**>(argv2), i));
    EXPECT_FALSE(n.json);

    exec::GridOptions bad;
    const char* argv3[] = {"prog", "--jobs", "0"};
    i = 1;
    EXPECT_THROW(
        exec::parse_grid_flag(bad, 3, const_cast<char**>(argv3), i),
        common::ToolchainError);
}

TEST(ExecCli, ParsesTheDurabilityFlags)
{
    exec::GridOptions o;
    const char* argv[] = {"prog",      "--retries", "3",
                          "--backoff-ms", "50",     "--journal",
                          "ckpt.journal", "--keep-going"};
    const int argc = static_cast<int>(std::size(argv));
    for (int i = 1; i < argc; ++i)
        EXPECT_TRUE(exec::parse_grid_flag(
            o, argc, const_cast<char**>(argv), i));
    EXPECT_EQ(o.retries, 3u);
    EXPECT_EQ(o.backoff_ms, 50u);
    EXPECT_TRUE(o.journal);
    EXPECT_EQ(o.journal_path, "ckpt.journal");
    EXPECT_FALSE(o.resume);
    EXPECT_TRUE(o.keep_going);

    // --resume implies --journal; --journal without a path keeps the
    // default (bench-derived) location.
    exec::GridOptions r;
    const char* argv2[] = {"prog", "--resume"};
    int i = 1;
    EXPECT_TRUE(
        exec::parse_grid_flag(r, 2, const_cast<char**>(argv2), i));
    EXPECT_TRUE(r.resume);
    EXPECT_TRUE(r.journal);
    EXPECT_TRUE(r.journal_path.empty());

    const exec::EngineOptions eo = o.engine();
    EXPECT_EQ(eo.retries, 3u);
    EXPECT_EQ(eo.backoff, std::chrono::milliseconds{50});
}

TEST(ExecJson, RoundTripsEveryValueKind)
{
    using exec::json::Value;
    Value v = Value::object();
    v["null"] = nullptr;
    v["flag"] = true;
    v["int"] = -42;
    v["big"] = u64{1} << 53;
    v["pi"] = 3.25;
    v["text"] = std::string{"quote \" slash \\ newline \n tab \t"};
    Value arr = Value::array();
    arr.push_back(1);
    arr.push_back("two");
    arr.push_back(Value::object());
    v["arr"] = arr;

    const Value back = Value::parse(v.dump());
    EXPECT_EQ(back, v);
    // Key order is part of the format: dumps must be byte-identical.
    EXPECT_EQ(back.dump(), v.dump());
}

TEST(ExecJson, ParserRejectsMalformedInput)
{
    using exec::json::Value;
    EXPECT_THROW(Value::parse("{"), exec::json::JsonError);
    EXPECT_THROW(Value::parse("[1,]"), exec::json::JsonError);
    EXPECT_THROW(Value::parse("{\"a\":1} trailing"),
                 exec::json::JsonError);
    EXPECT_THROW(Value::parse("nul"), exec::json::JsonError);
}

TEST(ExecJson, ParserSurvivesTruncatedAndGarbageInput)
{
    using exec::json::Value;
    // The crash artifacts the journal loader must shrug off: truncated
    // records, torn strings, half-written numbers. Every one must be a
    // JsonError, never a crash or hang.
    EXPECT_THROW(Value::parse(""), exec::json::JsonError);
    EXPECT_THROW(Value::parse("{\"a\":1"), exec::json::JsonError);
    EXPECT_THROW(Value::parse("{\"key\":\"unterminat"),
                 exec::json::JsonError);
    EXPECT_THROW(Value::parse("\"\\u12"), exec::json::JsonError);
    EXPECT_THROW(Value::parse("-"), exec::json::JsonError);
    EXPECT_THROW(Value::parse("1e999999"), exec::json::JsonError);
    EXPECT_THROW(Value::parse("{\"a\":}"), exec::json::JsonError);
    EXPECT_THROW(Value::parse(std::string(64, '\xff')),
                 exec::json::JsonError);
}

TEST(ExecJson, ParserBoundsNestingDepth)
{
    using exec::json::Value;
    // A kilobyte of '[' (or alternating {"a":[...) must fail cleanly
    // instead of overflowing the parser's stack.
    EXPECT_THROW(Value::parse(std::string(1000, '[')),
                 exec::json::JsonError);
    std::string deep;
    for (int i = 0; i < 500; ++i) deep += "{\"a\":[";
    EXPECT_THROW(Value::parse(deep), exec::json::JsonError);
    // 100 levels is legitimate and must still parse.
    const std::string ok =
        std::string(100, '[') + "1" + std::string(100, ']');
    EXPECT_EQ(Value::parse(ok).kind(), Value::Kind::Array);
}

TEST(ExecJson, ParseErrorsQuoteAnExcerpt)
{
    using exec::json::Value;
    try {
        Value::parse("{\"a\": gargage-here}");
        FAIL() << "expected JsonError";
    } catch (const exec::json::JsonError& e) {
        // The diagnostic names the offset and shows printable context,
        // so a corrupt journal line is identifiable at a glance.
        EXPECT_NE(std::string{e.what()}.find("offset"), std::string::npos);
        EXPECT_NE(std::string{e.what()}.find("gargage"), std::string::npos);
    }
}

TEST(ExecReport, OutcomeCountsAndExitPolicy)
{
    using exec::JobOutcome;
    using exec::JobStatus;
    std::vector<JobOutcome> outcomes(5);
    outcomes[0].status = JobStatus::Ok;
    outcomes[1].status = JobStatus::Timeout;
    outcomes[2].status = JobStatus::Error;
    outcomes[3].status = JobStatus::Quarantined;
    outcomes[4].status = JobStatus::Skipped;

    const exec::OutcomeCounts c = exec::count_outcomes(outcomes);
    EXPECT_EQ(c.ok, 1u);
    EXPECT_EQ(c.failed(), 3u);
    EXPECT_TRUE(c.partial());

    // Shutdown-partial dominates (130), then failures (1), and
    // --keep-going only forgives failures, never partiality.
    EXPECT_EQ(exec::grid_exit_code(outcomes, false), 130);
    EXPECT_EQ(exec::grid_exit_code(outcomes, true), 130);
    outcomes[4].status = JobStatus::Ok;
    EXPECT_EQ(exec::grid_exit_code(outcomes, false), 1);
    EXPECT_EQ(exec::grid_exit_code(outcomes, true), 0);
    outcomes[1].status = JobStatus::Ok;
    outcomes[2].status = JobStatus::Ok;
    outcomes[3].status = JobStatus::Ok;
    EXPECT_EQ(exec::grid_exit_code(outcomes, false), 0);

    const exec::json::Value s = exec::summary_json({}, outcomes);
    EXPECT_EQ(s.at("ok").as_int(), 5);
    EXPECT_EQ(s.at("partial").as_bool(), false);
}

TEST(ExecReport, BenchEnvelopeRoundTrips)
{
    using exec::json::Value;
    Value payload = Value::object();
    payload["answer"] = 42;
    const std::string path =
        (std::filesystem::temp_directory_path() / "hwst_exec_test.json")
            .string();
    const std::string written =
        exec::write_bench_json("exec_test", 3, 12.5, payload, path);
    EXPECT_EQ(written, path);

    const Value v = exec::read_bench_json(path);
    EXPECT_EQ(v.at("schema_version"), Value{exec::kBenchSchemaVersion});
    EXPECT_EQ(v.at("bench"), Value{"exec_test"});
    EXPECT_EQ(v.at("jobs"), Value{3});
    EXPECT_EQ(v.at("answer"), Value{42});
    std::remove(path.c_str());
}

TEST(ExecReport, DefaultBenchPathUsesTheBenchName)
{
    EXPECT_EQ(exec::bench_json_path("fig5"), "BENCH_fig5.json");
}
