// Reporter layer: every campaign harness records its grid in the same
// machine-readable envelope, BENCH_<name>.json (schema v1, see
// docs/execution.md). The envelope carries the schema version, bench
// name, worker count and host wall-time; the harness supplies the
// payload keys (rows, geo-means, grid description...).
#pragma once

#include <chrono>
#include <span>
#include <string_view>

#include "exec/job.hpp"
#include "exec/json.hpp"

namespace hwst::exec {

inline constexpr int kBenchSchemaVersion = 1;

/// Default output path for a bench: BENCH_<name>.json in the cwd.
std::string bench_json_path(const std::string& bench);

/// Wrap `payload`'s members in the schema-v1 envelope.
json::Value bench_envelope(const std::string& bench, unsigned jobs,
                           double wall_ms, const json::Value& payload);

/// Write the envelope to `path` (empty -> bench_json_path(bench)).
/// Returns the path written. Throws common::ToolchainError on I/O
/// failure.
std::string write_bench_json(const std::string& bench, unsigned jobs,
                             double wall_ms, const json::Value& payload,
                             const std::string& path = {});

/// Read + parse a BENCH json file and check the envelope (used by
/// json_check and the round-trip tests).
json::Value read_bench_json(const std::string& path);

/// True for envelope/record keys that carry host-side timing or
/// provenance — legitimately different between two runs of the same
/// campaign (json_check --equiv strips them).
bool is_host_field(std::string_view key);

/// Deep copy of `v` with every host-side key removed, at any nesting
/// depth.
json::Value strip_host_fields(const json::Value& v);

/// Aggregate status counts over a grid's outcomes.
struct OutcomeCounts {
    std::size_t ok = 0;
    std::size_t timeout = 0;
    std::size_t error = 0;

    std::size_t failed() const { return timeout + error; }
};

OutcomeCounts count_outcomes(std::span<const JobOutcome> outcomes);

/// The envelope's status summary: status counts and the failed job
/// names (so CI output names the culprits). Deterministic at every
/// thread count and whether cells were computed or cache-served.
json::Value summary_json(std::span<const Job> jobs,
                         std::span<const JobOutcome> outcomes);

/// The shared exit-code policy (CI-visible failures): 1 when any job
/// ended timeout/error, else 0.
int grid_exit_code(std::span<const JobOutcome> outcomes);

/// Wall-clock stopwatch for the envelope's wall_ms field.
class Stopwatch {
public:
    Stopwatch() : start_{std::chrono::steady_clock::now()} {}
    double elapsed_ms() const
    {
        return std::chrono::duration<double, std::milli>(
                   std::chrono::steady_clock::now() - start_)
            .count();
    }

private:
    std::chrono::steady_clock::time_point start_;
};

} // namespace hwst::exec
