// Campaign runner: sweeps N seeded faults per injection point over one
// or more workloads, classifies every run with the oracle and
// aggregates per-point detection statistics. Everything is derived
// deterministically from (base_seed, point, workload index, seed
// index), so the same command line reproduces a byte-identical report.
#pragma once

#include <ostream>
#include <string>
#include <vector>

#include "common/stats.hpp"
#include "compiler/scheme.hpp"
#include "exec/engine.hpp"
#include "fault/oracle.hpp"

namespace hwst::fault {

/// Every Probe point, in declaration order.
std::vector<Probe> all_probes();

/// True for points inside HWST128's metadata protection domain, where
/// a fault must never be silent (it only feeds checks, so it can trap
/// spuriously or be masked). D-cache fill data is the exception: the
/// paper leaves program-data integrity to ECC, so faults there are
/// *expected* to corrupt output silently — the campaign reports them as
/// the unprotected contrast.
constexpr bool metadata_protected(Probe p)
{
    return p != Probe::DcacheFillData;
}

struct CampaignConfig {
    compiler::Scheme scheme = compiler::Scheme::Hwst128Tchk;
    std::vector<std::string> workloads{"crc32", "treeadd"};
    std::vector<Probe> points = all_probes();
    unsigned seeds_per_point = 20;
    u64 base_seed = 0xC0FFEE;
    FaultMode mode = FaultMode::OneShot;
    /// Engine worker threads (0 = HWST_JOBS / hardware_concurrency).
    /// The report is bit-identical at every value (docs/execution.md).
    unsigned jobs = 0;
    /// Per-run wall-clock budget in ms (0 = none). Timed-out runs are
    /// counted separately, never classified, and never cached.
    u64 timeout_ms = 0;
    /// Optional content-addressed result cache (--cache,
    /// docs/cache.md): a classified faulted run is a cell keyed by its
    /// golden program, faulted config and FaultSpec. Not owned.
    exec::ResultCache* cache = nullptr;
};

struct PointStats {
    Probe point = Probe::SrfSpatialWrite;
    u64 runs = 0;
    u64 fired = 0; ///< runs where the fault actually perturbed a value
    u64 detected = 0;
    u64 masked = 0;
    u64 silent = 0;
    u64 timeouts = 0; ///< runs killed by the wall-clock budget
    /// Detection latencies (instructions) over detected-and-fired runs.
    std::vector<double> latencies;

    double detection_rate() const
    {
        return fired ? static_cast<double>(detected) /
                           static_cast<double>(fired)
                     : 0.0;
    }
    /// 0 when no detected-and-fired run recorded a latency (mean of an
    /// empty series throws by design; "no latency" prints as 0.0).
    double mean_latency() const
    {
        return latencies.empty() ? 0.0 : common::mean(latencies);
    }
};

/// Golden-prefix checkpoint activity (sim::DbtStats) summed over the
/// faulted runs the campaign simulated; runs served from the cache add
/// nothing. Host-side: it depends on the tier, the worker count and the
/// order the runs shared their checkpoints in, never on a result.
struct CheckpointActivity {
    u64 prefix_restores = 0;
    u64 restored_instret = 0;
    u64 rejoins = 0;
};

struct CampaignReport {
    CampaignConfig config;
    std::vector<PointStats> points; ///< one entry per config.points entry
    CheckpointActivity dbt;

    u64 total_runs() const;
    u64 total_silent() const;
    u64 total_timeouts() const;

    /// Silent corruptions at metadata_protected() points only — the
    /// quantity that must be zero for the completeness claim to hold.
    u64 protected_silent() const;

    /// Aggregate table (deterministic: same config -> same bytes).
    void print(std::ostream& os) const;

    /// Machine-readable form (the payload of BENCH_fault_campaign.json).
    /// Its `dbt` block is host-side (exec::is_host_field).
    exec::json::Value to_json() const;
};

CampaignReport run_campaign(const CampaignConfig& cfg);

} // namespace hwst::fault
