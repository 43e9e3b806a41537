// reprobench — the reproduction benchmark binary (README.md). Runs one
// workload's cells through the public APIs in passes until --seconds
// has elapsed and prints one JSON result line: end-to-end metrics
// untraced, per-layer metrics with --trace 1.
//
//   reprobench --workload NAME --seed N --seconds S --trace 0|1
//              --expected DIR [--rev REV]
//
// A traced run writes its spans to .bench_out/trace-NAME-N.json.
//   reprobench --workload NAME --generate FILE
//
// --generate runs every cell any seed can draw once and writes the
// expected-observables table instead of checking against it.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>

#include "common/stats.hpp"
#include "exec/json.hpp"
#include "workloads.hpp"

using namespace reprobench;
using hwst::exec::json::Value;

namespace {

/// Variables that change what the program under test is (tier, engine,
/// result cache, isolation). A parent/child pair must measure the same
/// program, so the benchmark refuses to run with any of them set.
constexpr const char* kRefusedEnv[] = {
    "HWST_TIER",    "HWST_DBT",      "HWST_JOBS",      "HWST_CACHE",
    "HWST_ISOLATE", "HWST_SENTINEL", "HWST_DBT_FAULT",
};

/// Layer spans whose self time counts as attributed (span coverage).
constexpr const char* kLayerSpans[] = {
    "workloads.build", "compiler.compile", "sim.load",   "sim.run",
    "sim.teardown",    "fault.classify",   "exec.engine"};

struct Options {
    std::string workload;
    u64 seed = 1;
    double seconds = 10;
    bool trace = false;
    std::string expected_dir;
    std::string rev = "unknown";
    std::string generate; ///< output path of --generate
};

Options parse(int argc, char** argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (i + 1 >= argc) throw std::runtime_error{a + " needs a value"};
        const std::string v = argv[++i];
        if (a == "--workload") o.workload = v;
        else if (a == "--seed") o.seed = std::stoull(v);
        else if (a == "--seconds") o.seconds = std::stod(v);
        else if (a == "--trace") o.trace = std::stoi(v) != 0;
        else if (a == "--expected") o.expected_dir = v;
        else if (a == "--rev") o.rev = v;
        else if (a == "--generate") o.generate = v;
        else throw std::runtime_error{"unknown flag " + a};
    }
    if (o.generate.empty() && o.expected_dir.empty())
        throw std::runtime_error{"--expected DIR is required"};
    return o;
}

/// Refill `t` from `path`. Reusing the table keeps one copy alive at a
/// time, so the peak RSS does not depend on the number of passes.
void load_table(const std::string& path, ExpectedTable& t)
{
    std::ifstream in{path};
    if (!in) throw std::runtime_error{"cannot read " + path};
    t.clear();
    std::string line;
    while (std::getline(in, line)) {
        const auto tab = line.find('\t');
        if (tab == std::string::npos) continue;
        t.emplace(line.substr(0, tab), line.substr(tab + 1));
    }
    if (t.empty()) throw std::runtime_error{path + " holds no rows"};
}

double median(const std::vector<double>& xs)
{
    return hwst::common::percentile(xs, 50.0);
}

/// This process image's RSS high-water mark. Not getrusage(): its
/// ru_maxrss carries over the pre-exec image (the launcher's RSS).
double peak_rss_mb()
{
    std::ifstream status{"/proc/self/status"};
    std::string line;
    while (std::getline(status, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0; // kB
    throw std::runtime_error{"no VmHWM in /proc/self/status"};
}

/// Every pass sets up at least kMinSetups times and until kMinSetupMs
/// have passed, so that short set-ups are sampled often; setup_s is the
/// median over all of them.
constexpr std::size_t kMinSetups = 3;
constexpr double kMinSetupMs = 5.0;

struct PassResult {
    bool traced = false;
    double wall_ms = 0.0; ///< calibration slices excluded
    std::vector<double> setup_ms;
    /// Calibrator::factor() over the pass; 1 where nothing calibrates.
    double factor = 1.0;
    double slice_ms = 0.0; ///< mean calibration slice in the pass
    PassStats stats;
    /// Per cell: Calibrator::local_factor() of the window it ran in.
    std::vector<double> cell_factor;
    std::map<std::string, double> self_ms; ///< traced passes only
    std::size_t spans = 0;
};

/// Chrome trace-event JSON, one complete event per span.
void write_trace(const std::string& path, const std::vector<Span>& spans)
{
    std::ofstream out{path};
    out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    char buf[256];
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span& s = spans[i];
        std::snprintf(buf, sizeof buf,
                      "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                      "\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{"
                      "\"id\":%zu,\"parent\":%d,\"cell\":%u}}",
                      i ? "," : "", s.name, s.start_us,
                      s.end_us - s.start_us, i, s.parent, s.cell);
        out << buf;
    }
    out << "\n]}\n";
    if (!out) throw std::runtime_error{"cannot write " + path};
}

void put(Value& metrics, const std::string& name, double value,
         const char* unit)
{
    Value m = Value::object();
    m["value"] = value;
    m["unit"] = unit;
    metrics[name] = std::move(m);
}

double ratio(u64 num, u64 den)
{
    return den ? static_cast<double>(num) / static_cast<double>(den) : 0.0;
}

/// Median over `passes` of f(pass).
template <typename F>
double med(const std::vector<const PassResult*>& passes, F&& f)
{
    std::vector<double> xs;
    for (const PassResult* p : passes) xs.push_back(f(*p));
    return median(xs);
}

/// Cell i's latency in reference-host time (calibrate.hpp).
double calibrated_cell_ms(const PassResult& p, std::size_t i)
{
    return p.stats.cell_ms[i] * p.cell_factor[i];
}

/// The pass's time outside cells (engine, fault-rerun goldens) in
/// reference-host time, by the pass's factor.
double calibrated_outside_ms(const PassResult& p)
{
    double in_cells = 0.0;
    for (const double c : p.stats.cell_ms) in_cells += c;
    return (p.wall_ms - in_cells) * p.factor;
}

/// The pass wall in reference-host time: every cell by its own window's
/// factor, the time outside cells by the pass's.
double calibrated_wall_ms(const PassResult& p)
{
    double ms = calibrated_outside_ms(p);
    for (std::size_t i = 0; i < p.stats.cell_ms.size(); ++i)
        ms += calibrated_cell_ms(p, i);
    return ms;
}

/// Mean of the faster half of `passes` (the middle one included) of
/// f(pass). Contention only ever adds time, and calibration takes out
/// most but not all of it, so the faster half estimates the program's
/// own cost more steadily than the median does; unlike a minimum, it
/// does not pick the one pass whose calibration erred low.
template <typename F>
double faster_half(const std::vector<const PassResult*>& passes, F&& f)
{
    std::vector<double> xs;
    for (const PassResult* p : passes) xs.push_back(f(*p));
    std::sort(xs.begin(), xs.end());
    const std::size_t n = (xs.size() + 1) / 2;
    double sum = 0.0;
    for (std::size_t i = 0; i < n; ++i) sum += xs[i];
    return sum / static_cast<double>(n);
}

/// Every time below is calibrated. Every pass runs the same cells in
/// the same order, so each cell's latency is taken over the faster half
/// of the passes, which drops a slow stretch of a pass without dropping
/// the rest of it. The wall is the sum of those latencies plus the time
/// outside cells over the faster half of the passes. Set-up is the
/// median of every set-up.
Value end_to_end(const std::vector<const PassResult*>& passes,
                 double rss_mb)
{
    std::vector<double> setup_ms;
    for (const PassResult* p : passes)
        for (const double s : p->setup_ms) setup_ms.push_back(s * p->factor);
    std::vector<double> cell_ms(passes.front()->stats.cell_ms.size());
    double wall_ms = faster_half(passes, calibrated_outside_ms);
    for (std::size_t i = 0; i < cell_ms.size(); ++i) {
        cell_ms[i] = faster_half(passes, [i](const PassResult& p) {
            return calibrated_cell_ms(p, i);
        });
        wall_ms += cell_ms[i];
    }
    Value m = Value::object();
    put(m, "wall_s", wall_ms / 1e3, "s");
    put(m, "setup_s", median(setup_ms) / 1e3, "s");
    put(m, "sim_mips",
        static_cast<double>(passes.front()->stats.instret) / wall_ms / 1e3,
        "MIPS");
    put(m, "cell_ms_p50", hwst::common::percentile(cell_ms, 50.0), "ms");
    put(m, "cell_ms_p90", hwst::common::percentile(cell_ms, 90.0), "ms");
    put(m, "peak_rss_mb", rss_mb, "MiB");
    return m;
}

Value per_layer(const std::vector<const PassResult*>& traced,
                const std::vector<const PassResult*>& untraced)
{
    const auto self = [&](const char* name) {
        return med(traced, [name](const PassResult& p) {
            const auto it = p.self_ms.find(name);
            return it == p.self_ms.end() ? 0.0 : it->second;
        });
    };
    const auto stat = [&](auto f) {
        return med(traced, [&f](const PassResult& p) { return f(p.stats); });
    };
    const auto count = [&](u64 PassStats::*field) {
        return stat([field](const PassStats& s) {
            return static_cast<double>(s.*field);
        });
    };
    Value m = Value::object();
    put(m, "workloads.build_ms", self("workloads.build"), "ms");
    put(m, "workloads.calls", count(&PassStats::build_calls), "count");
    put(m, "compiler.compile_ms", self("compiler.compile"), "ms");
    put(m, "compiler.text_bytes", count(&PassStats::text_bytes), "B");
    put(m, "sim.load_ms", self("sim.load"), "ms");
    put(m, "sim.teardown_ms", self("sim.teardown"), "ms");
    const double run_ms = self("sim.run");
    put(m, "sim.run_ms", run_ms, "ms");
    put(m, "sim.run_mips", count(&PassStats::instret) / run_ms / 1e3,
        "MIPS");
    put(m, "sim.dbt_blocks", count(&PassStats::dbt_blocks), "count");
    put(m, "sim.dbt_chained_frac", stat([](const PassStats& s) {
            return ratio(s.dbt_chained, s.dbt_block_execs);
        }), "frac");
    put(m, "sim.dbt_fallback_runs", count(&PassStats::dbt_fallback_runs),
        "count");
    put(m, "sim.jit_translated", count(&PassStats::jit_translated), "count");
    put(m, "sim.jit_code_bytes", count(&PassStats::jit_code_bytes), "B");
    put(m, "sim.instret", count(&PassStats::instret), "count");
    put(m, "sim.cycles", count(&PassStats::cycles), "count");
    put(m, "sim.ipc", stat([](const PassStats& s) {
            return ratio(s.instret, s.cycles);
        }), "instr/cycle");
    put(m, "mem.dcache_accesses", count(&PassStats::dcache_accesses),
        "count");
    put(m, "mem.dcache_miss_rate", stat([](const PassStats& s) {
            return ratio(s.dcache_misses, s.dcache_accesses);
        }), "frac");
    put(m, "mem.icache_miss_rate", stat([](const PassStats& s) {
            return ratio(s.icache_misses, s.icache_accesses);
        }), "frac");
    put(m, "metadata.keybuffer_lookups", count(&PassStats::kb_lookups),
        "count");
    put(m, "metadata.keybuffer_hit_rate", stat([](const PassStats& s) {
            return ratio(s.kb_hits, s.kb_lookups);
        }), "frac");
    put(m, "hwst.scu_checks", count(&PassStats::scu_checks), "count");
    put(m, "hwst.tcu_checks", count(&PassStats::tcu_checks), "count");
    put(m, "fault.classify_ms", self("fault.classify"), "ms");
    put(m, "fault.fired_frac", stat([](const PassStats& s) {
            return ratio(s.fired, s.cells);
        }), "frac");
    put(m, "fault.protected_silent", count(&PassStats::protected_silent),
        "count");
    put(m, "exec.overhead_ms", self("exec.engine"), "ms");
    const auto wall = [](const PassResult& p) { return p.wall_ms; };
    const double traced_ms = med(traced, wall);
    const double untraced_ms = med(untraced, wall);
    put(m, "trace.overhead_pct",
        100.0 * (traced_ms - untraced_ms) / untraced_ms, "%");
    put(m, "trace.span_coverage", med(traced, [](const PassResult& p) {
            double attributed = 0.0;
            for (const char* name : kLayerSpans) {
                const auto it = p.self_ms.find(name);
                if (it != p.self_ms.end()) attributed += it->second;
            }
            return 100.0 * attributed / p.wall_ms;
        }), "%");
    put(m, "trace.spans", med(traced, [](const PassResult& p) {
            return static_cast<double>(p.spans);
        }), "count");
    put(m, "cells", count(&PassStats::cells), "count");
    put(m, "cells_failed", count(&PassStats::failed), "count");
    return m;
}

int generate(Workload& wl, const Options& o)
{
    wl.setup(0, /*universe=*/true);
    Tracer tracer{Clock::now()};
    PassStats stats;
    std::vector<std::pair<std::string, std::string>> rows;
    PassCtx ctx{tracer, stats};
    ctx.record = &rows;
    wl.pass(ctx);
    std::sort(rows.begin(), rows.end());
    std::ofstream out{o.generate};
    for (const auto& [key, row] : rows) out << key << '\t' << row << '\n';
    if (!out) throw std::runtime_error{"cannot write " + o.generate};
    std::cerr << "reprobench: wrote " << rows.size() << " rows to "
              << o.generate << " (" << stats.failed << " failed)\n";
    return stats.failed == 0 ? 0 : 1;
}

} // namespace

int main(int argc, char** argv)
{
    for (const char* name : kRefusedEnv) {
        if (std::getenv(name)) {
            std::cerr << "reprobench: refusing to run with " << name
                      << " set: it changes the program under test; unset "
                         "it\n";
            return 2;
        }
    }
    try {
        const Options o = parse(argc, argv);
        const auto wl = make_workload(o.workload);
        if (!wl) throw std::runtime_error{"unknown workload " + o.workload};
        if (!o.generate.empty()) return generate(*wl, o);

        // Passes until --seconds would be exceeded. The first is a
        // warm-up: checked and counted, not timed; the peak RSS is read
        // after it, before the calibrator allocates. After it, traced
        // runs alternate traced and untraced passes, and untraced runs
        // calibrate every pass (calibrate.hpp). Every pass sets up
        // afresh (the expected table, the registry, the seed's cells).
        ExpectedTable table;
        Tracer tracer{Clock::now()};
        std::unique_ptr<Calibrator> cal;
        double rss_mb = 0.0;
        std::vector<PassResult> passes;
        std::vector<Span> last_trace;
        const auto run_start = Clock::now();
        const std::size_t min_passes = o.trace ? 3 : 2;
        for (;;) {
            PassResult p;
            p.traced = o.trace && passes.size() % 2 == 1;
            if (cal) {
                cal->reset();
                cal->slice();
            }
            for (double total = 0.0;
                 p.setup_ms.size() < kMinSetups || total < kMinSetupMs;) {
                const auto setup_start = Clock::now();
                load_table(o.expected_dir + "/" + o.workload + ".tsv", table);
                wl->setup(o.seed, false);
                p.setup_ms.push_back(ms_between(setup_start, Clock::now()));
                total += p.setup_ms.back();
            }

            tracer.clear();
            tracer.on = p.traced;
            PassCtx ctx{tracer, p.stats, &table};
            ctx.calibrator = cal.get();
            const double cal_before = cal ? cal->total_ms() : 0.0;
            const auto t0 = Clock::now();
            {
                const auto span = tracer.span("pass", 0);
                wl->pass(ctx);
            }
            p.wall_ms = ms_between(t0, Clock::now());
            if (cal) {
                p.wall_ms -= cal->total_ms() - cal_before;
                cal->slice();
                p.factor = cal->factor();
                p.slice_ms = cal->total_ms() / cal->slices();
                for (const std::size_t w : p.stats.cell_window)
                    p.cell_factor.push_back(cal->local_factor(w));
            } else {
                p.cell_factor.assign(p.stats.cell_ms.size(), 1.0);
            }
            if (passes.empty()) {
                rss_mb = peak_rss_mb();
                if (!o.trace) {
                    cal = std::make_unique<Calibrator>();
                    for (int i = 0; i < 3; ++i) cal->slice(); // warm
                }
            }
            if (p.traced) {
                p.self_ms = tracer.self_ms();
                p.spans = tracer.spans().size();
                last_trace = tracer.spans();
            }
            passes.push_back(std::move(p));
            const double elapsed = ms_between(run_start, Clock::now()) / 1e3;
            const double per_pass = elapsed / static_cast<double>(passes.size());
            if (passes.size() >= min_passes && elapsed + per_pass > o.seconds)
                break;
        }

        std::vector<const PassResult*> traced, untraced;
        u64 attempted = 0, failed = 0;
        for (std::size_t i = 0; i < passes.size(); ++i) {
            const PassResult& p = passes[i];
            if (i > 0) (p.traced ? traced : untraced).push_back(&p);
            attempted += p.stats.cells;
            failed += p.stats.failed;
        }

        Value info = Value::object();
        info["workload"] = o.workload;
        info["seed"] = o.seed;
        info["tier"] = hwst::sim::tier_name(passes.front().stats.tier);
        info["nproc"] = std::thread::hardware_concurrency();
        info["build_type"] = REPROBENCH_BUILD_TYPE;
        info["source_rev"] = o.rev;
        info["passes"] = passes.size();
        info["traced_passes"] = traced.size();
        info["cells_per_pass"] = passes.front().stats.cells;
        info["detected_per_pass"] = passes.front().stats.detected;
        Value walls = Value::array(), slices = Value::array(),
              calibrated = Value::array();
        for (const PassResult* p : untraced) {
            walls.push_back(p->wall_ms / 1e3);
            slices.push_back(p->slice_ms);
            calibrated.push_back(calibrated_wall_ms(*p) / 1e3);
        }
        info["pass_wall_s"] = std::move(walls);
        info["pass_slice_ms"] = std::move(slices);
        info["pass_calibrated_s"] = std::move(calibrated);
        info["reference_slice_ms"] = kReferenceSliceMs;
        if (o.trace) {
            std::filesystem::create_directories(".bench_out");
            const std::string path = ".bench_out/trace-" + o.workload + "-" +
                                     std::to_string(o.seed) + ".json";
            write_trace(path, last_trace);
            info["trace_file"] = path;
        }
        std::cout << info.dump(0) << '\n';

        Value result = Value::object();
        result["correct"] = failed == 0 && attempted > 0;
        result["attempted"] = attempted;
        result["failed"] = failed;
        result["metrics"] = o.trace ? per_layer(traced, untraced)
                                    : end_to_end(untraced, rss_mb);
        std::cout << result.dump(0) << std::endl;
        return 0;
    } catch (const std::exception& e) {
        std::cerr << "reprobench: " << e.what() << '\n';
        return 2;
    }
}
