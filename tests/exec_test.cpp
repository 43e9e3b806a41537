// Exec engine tests: the determinism contract (serial and parallel runs
// of the same grid produce identical aggregates), timeout/cancellation,
// error capture, seed derivation, the shared grid flags, and the JSON
// layer (round-trip plus the BENCH_<name>.json envelope).
#include <cstdio>
#include <filesystem>
#include <fstream>

#include <gtest/gtest.h>

#include "env_guard.hpp"
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
        .jobs = 1, .timeout = std::chrono::milliseconds{500}}};
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

TEST(ExecEngine, JobStatusNames)
{
    // The names envelope rows and progress lines print.
    EXPECT_EQ(exec::job_status_name(JobStatus::Ok), "ok");
    EXPECT_EQ(exec::job_status_name(JobStatus::Timeout), "timeout");
    EXPECT_EQ(exec::job_status_name(JobStatus::Error), "error");
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

namespace {

/// parse_grid_flag over one flag and its value, as a harness's argv
/// loop would see them. Returns whether the flag was consumed.
bool parse_one(exec::GridOptions& o, const char* flag, const char* value)
{
    const char* argv[] = {"prog", flag, value};
    int i = 1;
    return exec::parse_grid_flag(o, 3, const_cast<char**>(argv), i);
}

} // namespace

TEST(ExecCli, NumericFlagsRejectSignsAndTrailingJunk)
{
    // std::stoul read "-1" as 4294967295 workers and "4x" as 4;
    // std::stoull read "-5" ms as a wrapped, i.e. absent, timeout.
    for (const char* bad : {"-1", "4x", "+3", " 4", "", "0", "0x10",
                            "4294967296"}) {
        exec::GridOptions o;
        EXPECT_THROW(parse_one(o, "--jobs", bad), common::ToolchainError)
            << "--jobs '" << bad << "'";
        EXPECT_EQ(o.jobs, 0u) << bad;
    }
    for (const char* bad : {"12abc", "-5", "+5", "1e3", "",
                            "1099511627777"}) {
        exec::GridOptions o;
        EXPECT_THROW(parse_one(o, "--timeout-ms", bad),
                     common::ToolchainError)
            << "--timeout-ms '" << bad << "'";
        EXPECT_EQ(o.timeout_ms, 0u) << bad;
    }

    exec::GridOptions o;
    EXPECT_TRUE(parse_one(o, "--jobs", "4294967295"));
    EXPECT_EQ(o.jobs, 4294967295u);
    EXPECT_TRUE(parse_one(o, "--timeout-ms", "0"));
    EXPECT_EQ(o.timeout_ms, 0u);
    EXPECT_TRUE(parse_one(o, "--timeout-ms", "1099511627776"));
    EXPECT_EQ(o.timeout_ms, u64{1} << 40);
}

TEST(ExecCli, CountsAndPercentagesRejectJunk)
{
    // The parsers behind --seeds/--repeat/--keybuffer/fig6's stride and
    // --gate/--expect-cached.
    for (const char* bad : {"-1", "1x", "+1", " 1", "", "0", "0x10"})
        EXPECT_THROW(exec::count_flag("--seeds", bad, 1),
                     common::ToolchainError)
            << bad;
    EXPECT_EQ(exec::count_flag("--seeds", "7", 1), 7u);
    EXPECT_THROW(exec::count_flag("--repeat", "101", 1, 100),
                 common::ToolchainError);
    // Base 16 (fault_tool's --xor): a required 0x prefix, either case.
    // An unprefixed mask is refused, not read in another base.
    for (const char* bad : {"0xZZ", "0x", "", "-1", "+f", "0x-1", " f",
                            "fx", "0x10000000000000000", "Ff", "64",
                            "0100"})
        EXPECT_THROW(exec::count_flag("--xor", bad, 0, ~u64{0}, 16),
                     common::ToolchainError)
            << bad;
    EXPECT_EQ(exec::count_flag("--xor", "0x40", 0, ~u64{0}, 16), 0x40u);
    EXPECT_EQ(exec::count_flag("--xor", "0xFf", 0, ~u64{0}, 16), 0xFFu);
    EXPECT_EQ(exec::count_flag("--xor", "0XffffFFFFffffFFFF", 0, ~u64{0}, 16),
              ~u64{0});

    for (const char* bad : {"-1", "1x", "+1", " 1", "", ".", "1.2.3",
                            "1e2", "nan", "inf", "100.5", "101"})
        EXPECT_THROW(exec::percent_flag("--gate", bad),
                     common::ToolchainError)
            << bad;
    EXPECT_EQ(exec::percent_flag("--gate", "0"), 0.0);
    EXPECT_EQ(exec::percent_flag("--gate", "30"), 30.0);
    EXPECT_EQ(exec::percent_flag("--gate", "99.5"), 99.5);
    EXPECT_EQ(exec::percent_flag("--gate", "100"), 100.0);
}

TEST(ExecCli, MalformedHwstJobsIsIgnored)
{
    const EnvGuard unset{"HWST_JOBS", nullptr};
    const unsigned fallback = exec::resolve_jobs(0);
    {
        const EnvGuard env{"HWST_JOBS", "3"};
        EXPECT_EQ(exec::resolve_jobs(0), 3u);
        // An explicit request wins over the environment.
        EXPECT_EQ(exec::resolve_jobs(2), 2u);
    }
    for (const char* bad : {"4x", "abc", "-1", "0", "", " 2"}) {
        const EnvGuard env{"HWST_JOBS", bad};
        EXPECT_EQ(exec::resolve_jobs(0), fallback) << "'" << bad << "'";
    }
}

TEST(ExecCli, RetiredFlagsAreNotConsumed)
{
    // The crash-safety flags are gone: each reaches the harness's own
    // "unknown flag" handling instead of being swallowed here.
    for (const char* flag :
         {"--journal", "--resume", "--retries", "--backoff-ms",
          "--keep-going", "--isolate", "--rlimit-mb", "--rlimit-cpu-s",
          "--sentinel", "--cache-mb"}) {
        exec::GridOptions o;
        const char* argv[] = {"prog", flag, "1"};
        int i = 1;
        EXPECT_FALSE(
            exec::parse_grid_flag(o, 3, const_cast<char**>(argv), i))
            << flag;
        EXPECT_EQ(i, 1) << flag;
    }
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
    // The artifacts a torn cache cell or BENCH file can hold: truncated
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
        // so a corrupt record is identifiable at a glance.
        EXPECT_NE(std::string{e.what()}.find("offset"), std::string::npos);
        EXPECT_NE(std::string{e.what()}.find("gargage"), std::string::npos);
    }
}

TEST(ExecReport, OutcomeCountsAndExitPolicy)
{
    using exec::JobOutcome;
    using exec::JobStatus;
    std::vector<JobOutcome> outcomes(3);
    outcomes[0].status = JobStatus::Ok;
    outcomes[1].status = JobStatus::Timeout;
    outcomes[2].status = JobStatus::Error;

    const exec::OutcomeCounts c = exec::count_outcomes(outcomes);
    EXPECT_EQ(c.ok, 1u);
    EXPECT_EQ(c.failed(), 2u);
    EXPECT_EQ(exec::grid_exit_code(outcomes), 1);

    exec::json::Value s = exec::summary_json({}, outcomes);
    EXPECT_EQ(s.at("failed_jobs").size(), 2u);

    outcomes[1].status = JobStatus::Ok;
    outcomes[2].status = JobStatus::Ok;
    EXPECT_EQ(exec::grid_exit_code(outcomes), 0);

    s = exec::summary_json({}, outcomes);
    EXPECT_EQ(s.at("ok").as_int(), 3);
    EXPECT_EQ(s.at("failed_jobs").size(), 0u);
    // The retired statuses' constant keys are gone.
    for (const char* gone :
         {"crashed", "quarantined", "skipped", "partial", "quarantined_jobs"})
        EXPECT_EQ(s.find(gone), nullptr) << gone;
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
