// repro — every exhibit in one process: Fig. 4, Fig. 5, Fig. 6, the
// ablations and the one-shot fault campaign, at full size or --smoke.
// Each exhibit writes its own BENCH_<name>.json into the working
// directory, as its harness binary would; BENCH_repro.json records each
// exhibit's wall time and its calibrated wall time
// (docs/performance.md "Regenerating every exhibit: bench/repro").
//
//   repro [--smoke] [--jobs N] [--json [PATH]] [--gate PCT]
//
// Calibration: between exhibits, and before the first, repro times a
// fixed heap-churn kernel (the idea of reprobench/calibrate.hpp, with
// its own copy here). An exhibit's calibrated time is its wall time
// scaled by kReferenceSliceMs over the mean kernel time just before and
// just after it, so it reads as the time on the host kReferenceSliceMs
// was measured on, and a busy or slow host moves it less than the wall
// time. A --smoke run takes each exhibit's fastest of five passes.
//
// --gate PCT fails (exit 1) when the calibrated sum exceeds that of
// bench/baselines/BENCH_repro.baseline.json, which must be a run of the
// same size and worker count, by more than PCT % less throughput would
// (a factor 1 / (1 - PCT/100): 1.43 at 30). Re-baseline with
// `repro --smoke --jobs 1 --json bench/baselines/BENCH_repro.baseline.json`
// from the repo root.
#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <limits>
#include <memory>
#include <vector>

#include "common/table.hpp"
#include "exec/envelope.hpp"
#include "exhibits/exhibits.hpp"

using namespace hwst;

namespace {

/// About the heap-churn kernel's time per slice on the host the
/// baseline was recorded on (a 4-vCPU container).
constexpr double kReferenceSliceMs = 0.2;
/// Slices per calibration point; the point is their median.
constexpr unsigned kSlices = 15;
/// Passes over every exhibit that a --smoke run takes the fastest of.
constexpr unsigned kSmokeRounds = 5;

/// Blocks of mixed sizes allocated, zeroed, written through and freed,
/// as every cell's build, compile and load do: of the kernels
/// reprobench tried, the one that tracked a busy host's slowdown best.
class HeapChurn {
public:
    /// The median time of kSlices slices, in ms.
    double time_ms()
    {
        std::vector<double> ms;
        for (unsigned i = 0; i < kSlices; ++i) {
            const exec::Stopwatch stopwatch;
            slice();
            ms.push_back(stopwatch.elapsed_ms());
        }
        std::nth_element(ms.begin(), ms.begin() + kSlices / 2, ms.end());
        return ms[kSlices / 2];
    }

private:
    void slice()
    {
        common::u64 x = state_ | 1;
        for (unsigned i = 0; i < 1200; ++i) {
            x = x * 6364136223846793005ull + 1442695040888963407ull;
            const std::size_t n = 16 + ((x >> 33) % 4096);
            auto& block = ring_[i % ring_.size()];
            block = std::make_unique<char[]>(n);
            std::memset(block.get(), static_cast<int>(i), n);
            state_ += static_cast<unsigned char>(block[n / 2]);
        }
    }

    std::vector<std::unique_ptr<char[]>> ring_ =
        std::vector<std::unique_ptr<char[]>>(64);
    common::u64 state_ = 0;
};

struct Exhibit {
    const char* name;
    int (*run)(const exec::GridOptions&);
};

constexpr Exhibit kExhibits[] = {
    {"fig4", exhibits::fig4},
    {"fig5", exhibits::fig5},
    {"fig6", [](const exec::GridOptions& g) { return exhibits::fig6(g); }},
    {"ablations", exhibits::ablations},
    {"fault_campaign",
     [](const exec::GridOptions& g) { return exhibits::fault_campaign(g); }},
};

/// The baseline's calibrated sum, after checking that it was a run of
/// the same size and worker count.
double baseline_ms(const exec::json::Value& base, bool smoke, unsigned jobs)
{
    if (base.at("smoke").as_bool() != smoke ||
        base.at("jobs").as_int() != static_cast<common::i64>(jobs))
        throw common::ToolchainError{
            "the baseline is a run of another size or worker count"};
    return base.at("calibrated_ms").as_double();
}

} // namespace

int main(int argc, char** argv)
{
    exec::GridOptions grid;
    double gate_pct = -1.0;
    try {
        for (int i = 1; i < argc; ++i) {
            if (exec::parse_grid_flag(grid, argc, argv, i)) continue;
            const std::string a = argv[i];
            if (a != "--gate")
                throw common::ToolchainError{"unknown flag: " + a};
            if (i + 1 >= argc)
                throw common::ToolchainError{"--gate needs a percentage"};
            gate_pct = exec::percent_flag(a, argv[++i]);
        }
        // A cache-served cell would time a file read, not a simulation.
        if (gate_pct >= 0.0 &&
            (!grid.cache_dir.empty() || std::getenv("HWST_CACHE")))
            throw common::ToolchainError{
                "--gate times simulations; run it without a result cache"};
    } catch (const std::exception& e) {
        std::cerr << "repro: " << e.what() << "\nflags:\n"
                  << exec::kGridFlagsHelp
                  << "  --gate PCT       fail (exit 1) if the calibrated "
                     "sum exceeds the\n"
                     "                   checked-in baseline's by more "
                     "than PCT% less\n"
                     "                   throughput would\n";
        return 2;
    }
    const unsigned jobs = exec::resolve_jobs(grid.jobs);
    // The gate's limit, known before any exhibit runs: time up by
    // 1 / (1 - PCT) is throughput down by PCT.
    double base_ms = 0.0;
    double limit_ms = 0.0;
    if (gate_pct >= 0.0) {
        try {
            base_ms = baseline_ms(exec::read_bench_json(HWST_REPRO_BASELINE),
                                  grid.smoke, jobs);
        } catch (const std::exception& e) {
            std::cerr << "repro: --gate: " << e.what() << '\n';
            return 2;
        }
        limit_ms = base_ms / (1.0 - gate_pct / 100.0);
    }

    // Each exhibit writes BENCH_<name>.json; --json PATH names only
    // BENCH_repro.json.
    exec::GridOptions exhibit_grid = grid;
    exhibit_grid.json_path.clear();

    // A smoke run, which the gate and its baseline time, takes each
    // exhibit's fastest of kSmokeRounds passes: a busy host only ever
    // adds time. Only the first pass prints.
    const unsigned rounds = grid.smoke ? kSmokeRounds : 1;
    struct Timing {
        int rc = 0;
        double wall_ms = 0.0, slice_ms = 0.0;
        double calibrated_ms = std::numeric_limits<double>::infinity();
    };
    std::vector<Timing> best(std::size(kExhibits));
    const exec::Stopwatch total;
    HeapChurn churn;
    double slice_before = churn.time_ms();
    for (unsigned round = 0; round < rounds; ++round) {
        std::streambuf* const out =
            round ? std::cout.rdbuf(nullptr) : std::cout.rdbuf();
        for (std::size_t i = 0; i < best.size(); ++i) {
            const exec::Stopwatch stopwatch;
            const int x_rc = kExhibits[i].run(exhibit_grid);
            const double wall_ms = stopwatch.elapsed_ms();
            const double slice_after = churn.time_ms();
            const double slice_ms = (slice_before + slice_after) / 2.0;
            slice_before = slice_after;
            std::cout << '\n';
            const double calibrated_ms = wall_ms * kReferenceSliceMs / slice_ms;
            Timing& b = best[i];
            if (b.rc == 0) b.rc = x_rc;
            if (calibrated_ms < b.calibrated_ms)
                b = Timing{b.rc, wall_ms, slice_ms, calibrated_ms};
        }
        std::cout.rdbuf(out);
    }

    int rc = 0;
    double wall_sum = 0.0;
    double calibrated_sum = 0.0;
    common::TextTable table{
        {"exhibit", "exit", "wall ms", "slice ms", "calibrated ms"}};
    exec::json::Value rows = exec::json::Value::array();
    for (std::size_t i = 0; i < best.size(); ++i) {
        const Timing& t = best[i];
        if (rc == 0) rc = t.rc;
        wall_sum += t.wall_ms;
        calibrated_sum += t.calibrated_ms;
        table.add_row({kExhibits[i].name, std::to_string(t.rc),
                       common::fmt(t.wall_ms, 1), common::fmt(t.slice_ms, 3),
                       common::fmt(t.calibrated_ms, 1)});
        exec::json::Value row = exec::json::Value::object();
        row["name"] = kExhibits[i].name;
        row["exit"] = t.rc;
        row["wall_ms"] = t.wall_ms;
        row["slice_ms"] = t.slice_ms;
        row["calibrated_ms"] = t.calibrated_ms;
        rows.push_back(row);
    }
    table.add_row({"sum", std::to_string(rc), common::fmt(wall_sum, 1), "",
                   common::fmt(calibrated_sum, 1)});
    std::cout << "Every exhibit in one process"
              << (grid.smoke ? " (smoke)" : "") << ", " << jobs
              << " worker(s), fastest of " << rounds << " pass(es)\n\n";
    table.print(std::cout);

    exec::json::Value payload = exec::json::Value::object();
    payload["git_rev"] = exec::build_git_rev();
    payload["smoke"] = grid.smoke;
    payload["reference_slice_ms"] = kReferenceSliceMs;
    payload["rounds"] = rounds;
    payload["exhibits"] = rows;
    payload["calibrated_ms"] = calibrated_sum;

    int gate_rc = 0;
    if (gate_pct >= 0.0) {
        exec::json::Value gate = exec::json::Value::object();
        gate["pct"] = gate_pct;
        gate["baseline_ms"] = base_ms;
        gate["limit_ms"] = limit_ms;
        gate["passed"] = calibrated_sum <= limit_ms;
        payload["gate"] = gate;
        std::cout << "\ngate: calibrated sum " << common::fmt(calibrated_sum, 1)
                  << " ms vs baseline " << common::fmt(base_ms, 1)
                  << " ms (limit " << common::fmt(limit_ms, 1) << " ms at -"
                  << gate_pct << "% throughput)\n";
        if (calibrated_sum > limit_ms) {
            std::cerr << "repro: gate FAILED: calibrated sum "
                      << common::fmt(calibrated_sum, 1)
                      << " ms is above the limit (" << HWST_REPRO_BASELINE
                      << ")\n";
            gate_rc = 1;
        }
    }
    if (grid.json) {
        try {
            const std::string path = exec::write_bench_json(
                "repro", jobs, total.elapsed_ms(), payload, grid.json_path);
            std::cout << "wrote " << path << '\n';
        } catch (const std::exception& e) {
            std::cerr << "repro: " << e.what() << '\n';
            return 2;
        }
    }
    return rc != 0 ? rc : gate_rc;
}
