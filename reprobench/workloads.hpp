// The benchmark's three workloads (README.md): juliet-sweep, spec-grid
// and fault-rerun. Each derives its cells from the seed in setup(), then
// runs every cell once per pass() through the public APIs, timing each
// layer call with the Tracer and checking every run's simulated
// observables against the expected table.
#pragma once

#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "calibrate.hpp"
#include "sim/machine.hpp"
#include "tracer.hpp"

namespace reprobench {

using hwst::common::u64;

/// Expected simulated observables, keyed by cell name; the value is
/// observables_row() of the reference run.
using ExpectedTable = std::unordered_map<std::string, std::string>;

/// Tab-separated simulated observables of one run: trap, exit code,
/// instret, cycles, D$/I$ accesses and misses, keybuffer lookups and
/// hits, SCU and TCU checks.
std::string observables_row(const hwst::sim::RunResult& r);

/// Everything one pass counts. Simulated counters are sums over every
/// Machine the pass ran.
struct PassStats {
    u64 cells = 0;
    u64 failed = 0;
    std::vector<double> cell_ms; ///< per-cell host latency
    /// Per cell: calibration slices run in the pass before it started.
    std::vector<std::size_t> cell_window;
    u64 build_calls = 0;
    u64 text_bytes = 0;
    u64 instret = 0;
    u64 cycles = 0;
    u64 dcache_accesses = 0;
    u64 dcache_misses = 0;
    u64 icache_accesses = 0;
    u64 icache_misses = 0;
    u64 kb_lookups = 0;
    u64 kb_hits = 0;
    u64 scu_checks = 0;
    u64 tcu_checks = 0;
    u64 dbt_blocks = 0;
    u64 dbt_block_execs = 0;
    u64 dbt_chained = 0;
    u64 dbt_fallback_runs = 0;
    u64 jit_translated = 0;
    u64 jit_code_bytes = 0;
    u64 detected = 0;         ///< juliet-sweep: runs scored as detected
    u64 fired = 0;            ///< fault: faulted runs whose fault fired
    u64 protected_silent = 0; ///< fault: silent at a protected point
    hwst::sim::ExecTier tier = hwst::sim::ExecTier::Auto;

    void add_run(const hwst::sim::Machine& m,
                 const hwst::sim::RunResult& r);
};

/// What a pass runs against.
struct PassCtx {
    Tracer& tracer;
    PassStats& stats;
    /// Reference observables; every cell is checked against it.
    const ExpectedTable* expected = nullptr;
    /// When set, cells append (name, row) here instead of checking:
    /// the --generate mode that writes the expected table.
    std::vector<std::pair<std::string, std::string>>* record = nullptr;
    unsigned next_cell = 0;
    /// When set, calibration slices run between cells (untraced passes).
    Calibrator* calibrator = nullptr;

    /// Record or check one run. Returns false on a mismatch.
    bool check(const std::string& key, const hwst::sim::RunResult& r);
    /// Count a failed cell and report the first few on stderr.
    void fail(const std::string& key, const std::string& why);
};

class Workload {
public:
    virtual ~Workload() = default;
    /// Derive the cells from the seed. `universe` selects every cell any
    /// seed can draw instead (the --generate mode).
    virtual void setup(u64 seed, bool universe) = 0;
    /// Run every cell once.
    virtual void pass(PassCtx& ctx) = 0;
};

/// nullptr for an unknown name.
std::unique_ptr<Workload> make_workload(std::string_view name);

} // namespace reprobench
