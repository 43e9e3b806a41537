#include "fault/campaign.hpp"

#include <memory>

#include "common/error.hpp"
#include "common/table.hpp"
#include "compiler/driver.hpp"
#include "exec/cache.hpp"
#include "exec/engine.hpp"
#include "exec/simrun.hpp"
#include "workloads/workload.hpp"

namespace hwst::fault {

std::vector<Probe> all_probes()
{
    std::vector<Probe> ps;
    ps.reserve(sim::kNumProbes);
    for (unsigned i = 0; i < sim::kNumProbes; ++i)
        ps.push_back(static_cast<Probe>(i));
    return ps;
}

u64 CampaignReport::total_runs() const
{
    u64 n = 0;
    for (const PointStats& p : points) n += p.runs;
    return n;
}

u64 CampaignReport::total_silent() const
{
    u64 n = 0;
    for (const PointStats& p : points) n += p.silent;
    return n;
}

u64 CampaignReport::total_timeouts() const
{
    u64 n = 0;
    for (const PointStats& p : points) n += p.timeouts;
    return n;
}

u64 CampaignReport::protected_silent() const
{
    u64 n = 0;
    for (const PointStats& p : points)
        if (metadata_protected(p.point)) n += p.silent;
    return n;
}

namespace {

/// Deterministic per-run seed: a SplitMix64-style mix of the campaign
/// seed with the (workload, point, seed) coordinates, so adding a
/// workload or point never shifts another run's fault draw, and thread
/// count never matters.
u64 run_seed(u64 base, u64 workload_i, Probe point, u64 seed_i)
{
    return exec::derive_seed(base, workload_i, static_cast<u64>(point),
                             seed_i);
}

/// Per-workload golden state shared read-only by every faulted run of
/// that workload. The module outlives the program: Codegen may keep
/// references into it.
struct Golden {
    mir::Module module;
    compiler::CompiledProgram cp;
    sim::RunResult run;
    sim::MachineConfig faulted_cfg;
};

/// One classified faulted run's contribution, merged into PointStats in
/// grid order.
struct RunRecord {
    bool fired = false;
    Verdict verdict = Verdict::Masked;
    bool has_latency = false;
    double latency = 0.0;
    /// Host-side, so not cached: a record served from the cache has none.
    CheckpointActivity dbt;
};

/// Cache round trip for a RunRecord, so a warm --cache run serves
/// classified runs instead of re-simulating them.
exec::json::Value record_to_json(const RunRecord& r)
{
    exec::json::Value v = exec::json::Value::object();
    v["f"] = r.fired;
    v["v"] = static_cast<common::i64>(r.verdict);
    v["hl"] = r.has_latency;
    v["l"] = r.latency;
    return v;
}

RunRecord record_from_json(const exec::json::Value& v)
{
    RunRecord r;
    r.fired = v.at("f").as_bool();
    const common::i64 verdict = v.at("v").as_int();
    if (verdict < 0 ||
        verdict > static_cast<common::i64>(Verdict::SilentCorruption))
        throw exec::json::JsonError{"bad verdict"};
    r.verdict = static_cast<Verdict>(verdict);
    r.has_latency = v.at("hl").as_bool();
    r.latency = v.at("l").as_double();
    return r;
}

} // namespace

CampaignReport run_campaign(const CampaignConfig& cfg)
{
    CampaignReport report;
    report.config = cfg;
    report.points.resize(cfg.points.size());
    for (std::size_t i = 0; i < cfg.points.size(); ++i)
        report.points[i].point = cfg.points[i];

    // The cache holds classified faulted runs only. Goldens are
    // deliberately keyless (a compiled program does not round-trip
    // through JSON), so they re-run on every campaign.
    const exec::Engine engine{exec::EngineOptions{
        .jobs = cfg.jobs,
        .timeout = std::chrono::milliseconds{cfg.timeout_ms},
        .cache = cfg.cache,
    }};

    // Phase 1: compile + golden run, one job per workload. Goldens are
    // never allowed to time out — a campaign without its reference runs
    // is meaningless — so a timeout here is an error.
    std::vector<std::shared_ptr<Golden>> goldens;
    {
        const auto outcomes = engine.map<std::shared_ptr<Golden>>(
            cfg.workloads.size(),
            [&](std::size_t wi, const exec::JobContext&) {
                auto g = std::make_shared<Golden>();
                const auto& wl = workloads::workload(cfg.workloads[wi]);
                g->module = wl.build();
                g->cp = compiler::compile(g->module, cfg.scheme);
                sim::Machine machine{g->cp.program, g->cp.machine_config};
                g->run = machine.run();
                if (g->run.trap.kind != hwst::TrapKind::None)
                    throw common::ToolchainError{
                        "golden run of " + cfg.workloads[wi] +
                        " trapped: " +
                        std::string{trap_name(g->run.trap.kind)}};
                // Stuck-at faults can turn a loop bound into a
                // near-infinite trip count; bound faulted runs well past
                // the golden length so a genuine hang classifies as such
                // without burning the default 400M-instruction fuel.
                g->faulted_cfg = g->cp.machine_config;
                g->faulted_cfg.fuel = g->run.instret * 4 + 100'000;
                return g;
            },
            goldens);
        for (std::size_t wi = 0; wi < outcomes.size(); ++wi) {
            if (outcomes[wi].status != exec::JobStatus::Ok)
                throw common::ToolchainError{
                    "golden run of " + cfg.workloads[wi] + " failed: " +
                    outcomes[wi].error};
        }
    }

    // Phase 2: the (workload × point × seed) grid, one faulted run per
    // job, records merged below in the same nesting order the serial
    // runner used — so the report is byte-identical at any thread count.
    const std::size_t n_points = cfg.points.size();
    const std::size_t n_seeds = cfg.seeds_per_point;
    const std::size_t n_runs = cfg.workloads.size() * n_points * n_seeds;
    std::vector<FaultSpec> specs;
    specs.reserve(n_runs);
    for (std::size_t i = 0; i < n_runs; ++i) {
        const std::size_t wi = i / (n_points * n_seeds);
        const Probe point = cfg.points[(i / n_seeds) % n_points];
        common::Xoshiro256 rng{run_seed(cfg.base_seed, wi, point,
                                        i % n_seeds)};
        specs.push_back(FaultPlan::random_spec(
            point, goldens[wi]->run.instret, rng, cfg.mode));
    }
    // A record is keyed by what its run simulates: the golden program
    // under the faulted config, plus the one fault injected into it.
    std::vector<u64> golden_digests;
    if (cfg.cache) {
        for (const auto& g : goldens)
            golden_digests.push_back(
                exec::cell_digest(g->cp.program, g->faulted_cfg));
    }
    const exec::MapCodec<RunRecord> codec{
        .key =
            [&](std::size_t i) {
                const FaultSpec& f = specs[i];
                return exec::derive_seed(
                    golden_digests[i / (n_points * n_seeds)],
                    static_cast<u64>(f.point), static_cast<u64>(f.mode),
                    f.trigger_instret, f.xor_mask);
            },
        .encode = record_to_json,
        .decode = record_from_json,
    };
    std::vector<RunRecord> records;
    const auto outcomes = engine.map<RunRecord>(
        n_runs,
        [&](std::size_t i, const exec::JobContext& ctx) {
            const Golden& g = *goldens[i / (n_points * n_seeds)];
            Injector injector{FaultPlan{{specs[i]}}};
            sim::Machine machine{g.cp.program, g.faulted_cfg};
            injector.attach(machine);
            // A JobTimeout propagates: the slot becomes a Timeout
            // outcome, counted below and never published.
            const sim::RunResult faulted =
                exec::run_machine(machine, ctx.token);
            const Outcome outcome = classify(g.run, faulted, injector);
            RunRecord rec;
            rec.fired = outcome.fired;
            rec.verdict = outcome.verdict;
            const sim::DbtStats& st = machine.dbt_stats();
            rec.dbt = {st.prefix_restores, st.restored_instret, st.rejoins};
            if (outcome.verdict == Verdict::Detected && outcome.fired) {
                rec.has_latency = true;
                rec.latency =
                    static_cast<double>(outcome.detection_latency());
            }
            return rec;
        },
        records, codec);

    for (std::size_t i = 0; i < outcomes.size(); ++i) {
        if (outcomes[i].status == exec::JobStatus::Error)
            throw common::ToolchainError{"campaign run #" +
                                         std::to_string(i) +
                                         " failed: " + outcomes[i].error};
    }

    // Merge in (workload, point, seed) order — the serial loop order.
    for (std::size_t wi = 0; wi < cfg.workloads.size(); ++wi) {
        for (std::size_t pi = 0; pi < n_points; ++pi) {
            PointStats& stats = report.points[pi];
            for (std::size_t si = 0; si < n_seeds; ++si) {
                const std::size_t i = (wi * n_points + pi) * n_seeds + si;
                const RunRecord& rec = records[i];
                ++stats.runs;
                report.dbt.prefix_restores += rec.dbt.prefix_restores;
                report.dbt.restored_instret += rec.dbt.restored_instret;
                report.dbt.rejoins += rec.dbt.rejoins;
                if (outcomes[i].status == exec::JobStatus::Timeout) {
                    ++stats.timeouts;
                    continue;
                }
                if (rec.fired) ++stats.fired;
                switch (rec.verdict) {
                case Verdict::Detected:
                    ++stats.detected;
                    if (rec.has_latency)
                        stats.latencies.push_back(rec.latency);
                    break;
                case Verdict::Masked: ++stats.masked; break;
                case Verdict::SilentCorruption: ++stats.silent; break;
                }
            }
        }
    }
    return report;
}

void CampaignReport::print(std::ostream& os) const
{
    os << "fault campaign: scheme=" << compiler::scheme_name(config.scheme)
       << " mode=" << fault_mode_name(config.mode)
       << " seeds/point=" << config.seeds_per_point
       << " seed=" << config.base_seed << "\nworkloads:";
    for (const auto& w : config.workloads) os << ' ' << w;
    os << "\n\n";

    common::TextTable table{{"point", "runs", "fired", "detected", "masked",
                             "silent", "det-rate", "mean-latency"}};
    for (const PointStats& p : points) {
        table.add_row({std::string{sim::probe_name(p.point)},
                       std::to_string(p.runs), std::to_string(p.fired),
                       std::to_string(p.detected), std::to_string(p.masked),
                       std::to_string(p.silent),
                       common::fmt(100.0 * p.detection_rate(), 1) + "%",
                       common::fmt(p.mean_latency(), 1)});
    }
    table.print(os);
    os << "\ntotal runs " << total_runs() << ", silent corruptions "
       << total_silent() << " (" << protected_silent()
       << " at metadata-protected points)\n";
    if (total_timeouts())
        os << "warning: " << total_timeouts()
           << " runs hit the wall-clock budget and were not classified\n";
}

exec::json::Value CampaignReport::to_json() const
{
    using exec::json::Value;
    Value root = Value::object();
    Value jcfg = Value::object();
    jcfg["scheme"] = compiler::scheme_name(config.scheme);
    jcfg["mode"] = fault_mode_name(config.mode);
    jcfg["seeds_per_point"] = config.seeds_per_point;
    jcfg["base_seed"] = config.base_seed;
    Value jwl = Value::array();
    for (const auto& w : config.workloads) jwl.push_back(w);
    jcfg["workloads"] = jwl;
    jcfg["timeout_ms"] = config.timeout_ms;
    root["config"] = jcfg;

    Value jpoints = Value::array();
    for (const PointStats& p : points) {
        Value jp = Value::object();
        jp["point"] = sim::probe_name(p.point);
        jp["metadata_protected"] = metadata_protected(p.point);
        jp["runs"] = p.runs;
        jp["fired"] = p.fired;
        jp["detected"] = p.detected;
        jp["masked"] = p.masked;
        jp["silent"] = p.silent;
        jp["timeouts"] = p.timeouts;
        jp["detection_rate"] = p.detection_rate();
        jp["mean_latency"] = p.mean_latency();
        jpoints.push_back(jp);
    }
    root["points"] = jpoints;
    root["total_runs"] = total_runs();
    root["total_silent"] = total_silent();
    root["protected_silent"] = protected_silent();
    root["total_timeouts"] = total_timeouts();
    Value jdbt = Value::object();
    jdbt["prefix_restores"] = dbt.prefix_restores;
    jdbt["restored_instret"] = dbt.restored_instret;
    jdbt["rejoins"] = dbt.rejoins;
    root["dbt"] = jdbt;
    return root;
}

} // namespace hwst::fault
