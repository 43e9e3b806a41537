#include "workloads.hpp"

#include <algorithm>
#include <array>
#include <iostream>
#include <map>
#include <optional>

#include "common/prng.hpp"
#include "compiler/driver.hpp"
#include "exec/engine.hpp"
#include "exec/simrun.hpp"
#include "fault/campaign.hpp"
#include "juliet/runner.hpp"
#include "workloads/workload.hpp"

namespace reprobench {

using namespace hwst;
using compiler::Scheme;

std::string observables_row(const sim::RunResult& r)
{
    std::string row{trap_name(r.trap.kind)};
    row += '\t';
    row += std::to_string(r.exit_code);
    for (const u64 v :
         {r.instret, r.cycles,
          r.dcache.accesses, r.dcache.misses, r.icache.accesses,
          r.icache.misses, r.keybuffer.lookups, r.keybuffer.hits,
          r.scu_checks, r.tcu_checks}) {
        row += '\t';
        row += std::to_string(v);
    }
    return row;
}

void PassStats::add_run(const sim::Machine& m, const sim::RunResult& r)
{
    instret += r.instret;
    cycles += r.cycles;
    dcache_accesses += r.dcache.accesses;
    dcache_misses += r.dcache.misses;
    icache_accesses += r.icache.accesses;
    icache_misses += r.icache.misses;
    kb_lookups += r.keybuffer.lookups;
    kb_hits += r.keybuffer.hits;
    scu_checks += r.scu_checks;
    tcu_checks += r.tcu_checks;
    dbt_blocks += m.dbt_stats().blocks;
    dbt_block_execs += m.dbt_stats().block_execs;
    dbt_chained += m.dbt_stats().chained;
    dbt_fallback_runs += m.dbt_stats().fallback_runs;
    jit_translated += m.jit_stats().translated;
    jit_code_bytes += m.jit_stats().code_bytes;
    tier = m.tier();
}

void PassCtx::fail(const std::string& key, const std::string& why)
{
    ++stats.failed;
    static unsigned reported = 0;
    if (reported++ < 10)
        std::cerr << "reprobench: cell " << key << " failed: " << why << '\n';
}

bool PassCtx::check(const std::string& key, const sim::RunResult& r)
{
    std::string row = observables_row(r);
    if (record) {
        record->emplace_back(key, std::move(row));
        return true;
    }
    const auto it = expected->find(key);
    if (it == expected->end()) {
        fail(key, "no expected row");
        return false;
    }
    if (it->second != row) {
        fail(key, "observables [" + row + "] != expected [" + it->second +
                      "]");
        return false;
    }
    return true;
}

namespace {

/// A module and the program compiled from it. Codegen may keep
/// references into the module, so neither moves once compiled.
struct Compiled {
    mir::Module module;
    std::optional<compiler::CompiledProgram> cp;
};

template <typename Build>
void build_and_compile(PassCtx& c, unsigned id, Build&& build, Scheme s,
                       Compiled& out)
{
    {
        const auto span = c.tracer.span("workloads.build", id);
        out.module = build();
    }
    ++c.stats.build_calls;
    {
        const auto span = c.tracer.span("compiler.compile", id);
        out.cp.emplace(compiler::compile(out.module, s));
    }
    c.stats.text_bytes += out.cp->program.code().size() * 4;
}

/// Construct a Machine (load + predecode), run it, destroy it: three
/// timed layer calls. `attach` sees the Machine before it runs.
template <typename Run, typename Attach>
sim::RunResult load_run_teardown(PassCtx& c, unsigned id,
                                 const compiler::CompiledProgram& cp,
                                 const sim::MachineConfig& cfg, Run&& run,
                                 Attach&& attach)
{
    std::optional<sim::Machine> m;
    {
        const auto span = c.tracer.span("sim.load", id);
        m.emplace(cp.program, cfg);
    }
    attach(*m);
    sim::RunResult r;
    {
        const auto span = c.tracer.span("sim.run", id);
        r = run(*m);
    }
    c.stats.add_run(*m, r);
    {
        const auto span = c.tracer.span("sim.teardown", id);
        m.reset();
    }
    return r;
}

/// One cell: host latency from build to teardown, exceptions counted as
/// failures.
template <typename Body>
void run_cell(PassCtx& c, const std::string& key, Body&& body)
{
    const unsigned id = c.next_cell++;
    const auto t0 = Clock::now();
    {
        const auto span = c.tracer.span("cell", id);
        try {
            body(id);
        } catch (const std::exception& e) {
            c.fail(key, e.what());
        }
    }
    c.stats.cell_ms.push_back(ms_between(t0, Clock::now()));
    c.stats.cell_window.push_back(c.calibrator ? c.calibrator->slices() : 0);
    ++c.stats.cells;
    if (c.calibrator) c.calibrator->tick();
}

/// Schedule `count` jobs on the engine inline (jobs = 1), as the
/// harnesses do with --jobs 1. A job that fails outside its cells fails
/// `cells_per_job(i)` cells.
template <typename Fn, typename CellsPerJob>
void schedule(PassCtx& c, std::size_t count, Fn&& fn,
              CellsPerJob&& cells_per_job)
{
    const exec::Engine engine{exec::EngineOptions{.jobs = 1}};
    std::vector<int> done;
    std::vector<exec::JobOutcome> outcomes;
    {
        const auto span = c.tracer.span("exec.engine", 0);
        outcomes = engine.map<int>(
            count,
            [&](std::size_t i, const exec::JobContext& ctx) {
                const auto job = c.tracer.span("exec.job", c.next_cell);
                fn(i, ctx);
                return 1;
            },
            done);
    }
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
        if (outcomes[i].status == exec::JobStatus::Ok) continue;
        for (std::size_t k = 0; k < cells_per_job(i); ++k)
            c.fail("job#" + std::to_string(i), outcomes[i].error);
    }
}

// ---- juliet-sweep --------------------------------------------------------

/// fig6's schemes, fuel (juliet::run_case) and cases per engine job.
constexpr Scheme kJulietSchemes[] = {Scheme::Gcc, Scheme::Asan,
                                     Scheme::Sbcets, Scheme::Hwst128Tchk};
constexpr u64 kJulietFuel = 2'000'000;
constexpr std::size_t kJulietChunk = 128;
/// The seed draws one case in this many from every stratum of the suite.
constexpr std::size_t kJulietSampleEvery = 8;

class JulietSweep final : public Workload {
public:
    void setup(u64 seed, bool universe) override
    {
        const auto all = juliet::all_bad_cases();
        cases_.clear();
        if (universe) {
            cases_ = all;
        } else {
            // Stratified sample: split the suite by the spec's variant
            // dimensions and draw the same share of every stratum, so
            // each seed's sample has the same mix. Host time hinges on
            // it: one stratum (CWE124 stack loop underwrites, far)
            // livelocks to the fuel limit under three schemes.
            std::map<std::array<int, 5>, std::vector<std::size_t>> strata;
            for (std::size_t i = 0; i < all.size(); ++i) {
                const auto& c = all[i];
                strata[{static_cast<int>(c.cwe), static_cast<int>(c.access),
                        static_cast<int>(c.container),
                        static_cast<int>(c.distance),
                        static_cast<int>(c.provenance)}]
                    .push_back(i);
            }
            common::Xoshiro256 rng{seed};
            std::vector<std::size_t> picked;
            for (auto& [dims, members] : strata) {
                const std::size_t n = std::max<std::size_t>(
                    1, (members.size() + kJulietSampleEvery / 2) /
                           kJulietSampleEvery);
                for (std::size_t j = 0; j < n; ++j)
                    std::swap(members[j],
                              members[j + rng.below(members.size() - j)]);
                picked.insert(picked.end(), members.begin(),
                              members.begin() + static_cast<long>(n));
            }
            std::sort(picked.begin(), picked.end()); // suite order
            for (const std::size_t i : picked) cases_.push_back(all[i]);
        }
        chunks_.clear();
        keys_.clear();
        for (std::size_t si = 0; si < std::size(kJulietSchemes); ++si) {
            for (std::size_t lo = 0; lo < cases_.size(); lo += kJulietChunk)
                chunks_.push_back(Chunk{
                    si, lo, std::min(lo + kJulietChunk, cases_.size())});
            for (const auto& spec : cases_)
                keys_.push_back(
                    std::string{compiler::scheme_name(kJulietSchemes[si])} +
                    "/" + spec.id());
        }
    }

    void pass(PassCtx& c) override
    {
        schedule(
            c, chunks_.size(),
            [&](std::size_t i, const exec::JobContext&) {
                const Chunk& ch = chunks_[i];
                for (std::size_t k = ch.lo; k < ch.hi; ++k)
                    cell(c, kJulietSchemes[ch.scheme_i], cases_[k],
                         keys_[ch.scheme_i * cases_.size() + k]);
            },
            [&](std::size_t i) { return chunks_[i].hi - chunks_[i].lo; });
    }

private:
    struct Chunk {
        std::size_t scheme_i; ///< index into kJulietSchemes
        std::size_t lo, hi;
    };

    static void cell(PassCtx& c, Scheme s, const juliet::CaseSpec& spec,
                     const std::string& key)
    {
        run_cell(c, key, [&](unsigned id) {
            Compiled k;
            build_and_compile(
                c, id, [&] { return juliet::build_case(spec); }, s, k);
            k.cp->machine_config.fuel = kJulietFuel;
            const auto r = load_run_teardown(
                c, id, *k.cp, k.cp->machine_config,
                [](sim::Machine& m) { return m.run(); },
                [](sim::Machine&) {});
            bool detected = false;
            {
                const auto span = c.tracer.span("fault.classify", id);
                detected = juliet::counts_as_detection(s, r.trap.kind);
            }
            c.stats.detected += detected;
            c.check(key, r);
        });
    }

    std::vector<juliet::CaseSpec> cases_;
    std::vector<Chunk> chunks_;
    std::vector<std::string> keys_; ///< per (scheme, case), scheme-major
};

// ---- spec-grid -----------------------------------------------------------

class SpecGrid final : public Workload {
public:
    void setup(u64 seed, bool) override
    {
        cells_.clear();
        // fig4: every registry workload under none/sbcets/hwst128/tchk.
        for (const auto& w : workloads::all_workloads())
            for (const Scheme s : {Scheme::None, Scheme::Sbcets,
                                   Scheme::Hwst128, Scheme::Hwst128Tchk})
                cells_.push_back(Cell{&w, s, key(w, s)});
        // fig5: the SPEC subset under the comparators fig4 lacks.
        for (const auto* w : workloads::spec_workloads())
            for (const Scheme s :
                 {Scheme::Bogo, Scheme::WdlNarrow, Scheme::WdlWide})
                cells_.push_back(Cell{w, s, key(*w, s)});
        // The seed picks the order the engine sees the cells in.
        common::Xoshiro256 rng{seed};
        for (std::size_t i = cells_.size(); i > 1; --i)
            std::swap(cells_[i - 1], cells_[rng.below(i)]);
    }

    void pass(PassCtx& c) override
    {
        schedule(
            c, cells_.size(),
            [&](std::size_t i, const exec::JobContext& ctx) {
                cell(c, cells_[i], ctx);
            },
            [](std::size_t) { return std::size_t{1}; });
    }

private:
    struct Cell {
        const workloads::Workload* w;
        Scheme s;
        std::string key;
    };

    static std::string key(const workloads::Workload& w, Scheme s)
    {
        return w.name + "/" + std::string{compiler::scheme_name(s)};
    }

    static void cell(PassCtx& c, const Cell& cell,
                     const exec::JobContext& ctx)
    {
        run_cell(c, cell.key, [&](unsigned id) {
            Compiled k;
            build_and_compile(c, id, cell.w->build, cell.s, k);
            const auto r = load_run_teardown(
                c, id, *k.cp, k.cp->machine_config,
                [&](sim::Machine& m) {
                    return exec::run_machine(m, ctx.token);
                },
                [](sim::Machine&) {});
            bool checksum_ok = false;
            {
                const auto span = c.tracer.span("fault.classify", id);
                checksum_ok = r.ok() && r.exit_code == cell.w->expected;
            }
            if (!checksum_ok)
                c.fail(cell.key, "checksum " + std::to_string(r.exit_code) +
                                     " != registry " +
                                     std::to_string(cell.w->expected));
            else
                c.check(cell.key, r);
        });
    }

    std::vector<Cell> cells_;
};

// ---- fault-rerun ---------------------------------------------------------

/// fault_campaign's default workloads and scheme.
const std::vector<std::string> kFaultWorkloads = {"crc32", "treeadd"};
constexpr Scheme kFaultScheme = Scheme::Hwst128Tchk;
/// Every (workload, point) has kFaultDraws fault draws in the expected
/// table; a pass runs the first kFaultRuns of them, half of
/// fault_campaign's 20 seeds per point, so that a run fits about ten
/// passes. The seed picks the order the engine sees the runs in. It does not pick the draws: a faulted run's length depends on its
/// draw (crc32's run to the end, treeadd's stop anywhere), so drawing
/// them would make the latency percentiles measure the seed.
constexpr u64 kFaultDraws = 24;
constexpr u64 kFaultRuns = 10;
constexpr u64 kFaultRoot = 0xC0FFEE;

class FaultRerun final : public Workload {
public:
    void setup(u64 seed, bool universe) override
    {
        for (const auto& name : kFaultWorkloads)
            (void)workloads::workload(name); // throws if renamed
        runs_.clear();
        const u64 n = universe ? kFaultDraws : kFaultRuns;
        for (std::size_t wi = 0; wi < kFaultWorkloads.size(); ++wi)
            for (const sim::Probe p : fault::all_probes())
                for (u64 draw = 0; draw < n; ++draw)
                    runs_.push_back(
                        Run{wi, p, draw,
                            kFaultWorkloads[wi] + "/" +
                                std::string{sim::probe_name(p)} + "/" +
                                std::to_string(draw)});
        common::Xoshiro256 rng{seed};
        for (std::size_t i = runs_.size(); i > 1; --i)
            std::swap(runs_[i - 1], runs_[rng.below(i)]);
    }

    void pass(PassCtx& c) override
    {
        // Phase 1 (fault_campaign's goldens): build and compile each
        // workload once, run it fault-free once.
        std::vector<std::shared_ptr<Golden>> goldens(kFaultWorkloads.size());
        schedule(
            c, kFaultWorkloads.size(),
            [&](std::size_t wi, const exec::JobContext&) {
                goldens[wi] = golden(c, kFaultWorkloads[wi]);
            },
            [](std::size_t) { return std::size_t{1}; });
        // Phase 2: every faulted run re-runs its golden's Program with
        // an Injector probe hook installed.
        schedule(
            c, runs_.size(),
            [&](std::size_t i, const exec::JobContext& ctx) {
                const Run& run = runs_[i];
                const Golden* g = goldens[run.wi].get();
                if (!g) {
                    c.fail(run.key, "no golden run");
                    return;
                }
                faulted(c, *g, run, ctx);
            },
            [](std::size_t) { return std::size_t{1}; });
    }

private:
    struct Golden {
        Compiled k;
        sim::RunResult run;
        sim::MachineConfig faulted_cfg;
    };

    struct Run {
        std::size_t wi;
        sim::Probe point;
        u64 draw;
        std::string key;
    };

    /// nullptr when the golden run failed (its faulted runs fail too).
    static std::shared_ptr<Golden> golden(PassCtx& c, const std::string& name)
    {
        const std::string key = name + "/golden";
        const unsigned id = c.next_cell++;
        const auto span = c.tracer.span("golden", id);
        try {
            auto g = std::make_shared<Golden>();
            build_and_compile(c, id, workloads::workload(name).build,
                              kFaultScheme, g->k);
            g->run = load_run_teardown(
                c, id, *g->k.cp, g->k.cp->machine_config,
                [](sim::Machine& m) { return m.run(); },
                [](sim::Machine&) {});
            if (!g->run.ok() ||
                g->run.exit_code != workloads::workload(name).expected) {
                c.fail(key, "golden run did not return the registry "
                            "checksum");
                return nullptr;
            }
            if (!c.check(key, g->run)) return nullptr;
            // fault_campaign's fuel rule for faulted runs.
            g->faulted_cfg = g->k.cp->machine_config;
            g->faulted_cfg.fuel = g->run.instret * 4 + 100'000;
            return g;
        } catch (const std::exception& e) {
            c.fail(key, e.what());
            return nullptr;
        }
    }

    static void faulted(PassCtx& c, const Golden& g, const Run& run,
                        const exec::JobContext& ctx)
    {
        run_cell(c, run.key, [&](unsigned id) {
            common::Xoshiro256 rng{
                exec::derive_seed(kFaultRoot, run.wi,
                                  static_cast<u64>(run.point), run.draw)};
            fault::Injector injector{fault::FaultPlan{
                {fault::FaultPlan::random_spec(run.point, g.run.instret,
                                               rng)}}};
            const auto r = load_run_teardown(
                c, id, *g.k.cp, g.faulted_cfg,
                [&](sim::Machine& m) {
                    return exec::run_machine(m, ctx.token);
                },
                [&](sim::Machine& m) { injector.attach(m); });
            fault::Outcome outcome;
            {
                const auto span = c.tracer.span("fault.classify", id);
                outcome = fault::classify(g.run, r, injector);
            }
            c.stats.fired += outcome.fired;
            if (outcome.verdict == fault::Verdict::SilentCorruption &&
                fault::metadata_protected(run.point)) {
                ++c.stats.protected_silent;
                c.fail(run.key, "silent corruption at a metadata-protected "
                                "point");
                return;
            }
            c.check(run.key, r);
        });
    }

    std::vector<Run> runs_;
};

} // namespace

std::unique_ptr<Workload> make_workload(std::string_view name)
{
    if (name == "juliet-sweep") return std::make_unique<JulietSweep>();
    if (name == "spec-grid") return std::make_unique<SpecGrid>();
    if (name == "fault-rerun") return std::make_unique<FaultRerun>();
    return nullptr;
}

} // namespace reprobench
