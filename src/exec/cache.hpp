// Content-addressed result cache (docs/cache.md): finished Ok cells
// from any campaign, keyed by everything that determines the simulated
// numbers — (bench, grid_hash, job key, seed, git_rev) — and stored as
// outcome records, one JSON file per cell. A warm cache serves a
// repeated grid instead of recomputing it; the envelope stays
// bit-identical modulo host-side fields because a cell record round
// trips every counter through outcome_to_record/outcome_from_record.
//
// On-disk layout under the cache root:
//   cells/<16-hex-address>.json   published cells (content-addressed)
//   tmp/<address>.<pid>.<n>       in-flight writes (publish = rename)
//
// Publishing is atomic: a cell is written to tmp/ and rename(2)d into
// cells/, so concurrent publishers — worker threads, several campaign
// processes on one root — can never tear a record; the last writer of
// one address wins with a bit-identical cell. Nothing is ever evicted:
// a full fig4 plus fig6 cache is a few hundred cells in about 1.5 MB,
// and a cache directory is deleted by hand.
#pragma once

#include <atomic>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "exec/cli.hpp"
#include "exec/engine.hpp"

namespace hwst::exec {

class Campaign;

/// Cell record format revision: readers reject other versions as a
/// miss. v2 dropped the retry count and crash forensics from records.
inline constexpr int kCacheVersion = 2;

/// Bump when a scheme's instrumentation defaults or the machine-config
/// defaults change in a way that alters simulated numbers without
/// changing any grid coordinate. Folded into every grid fingerprint.
inline constexpr int kConfigRevision = 1;

// ---- fingerprints ----------------------------------------------------

/// FNV-1a over a byte string — the leaf hash every fingerprint and the
/// cache's content address build on (fold results via derive_seed so
/// field boundaries matter: "ab","c" != "a","bc").
u64 fnv1a(std::string_view s);

/// Canonical "0x%016x" rendering of a fingerprint, shared by the cache
/// cell records and their audit.
std::string hash_hex(u64 h);

/// Hash of everything a grid's coordinates do NOT name but its results
/// depend on: the scheme registry (names, in order), the default
/// MachineConfig (cache geometry, keybuffer, fuel) and kConfigRevision.
/// Folded into every grid fingerprint so two grids that differ only in
/// instrumentation defaults can never alias in the cache.
u64 config_revision_hash();

/// Fingerprint of a campaign grid: mixes the root seed with every job's
/// key, workload, scheme and seed — plus config_revision_hash() and an
/// optional harness-supplied `config_desc` naming grid-level knobs that
/// the job coordinates don't (hwst_run's --keybuffer/--dcache-kib
/// tweaks). Any change to any of these changes the fingerprint, so the
/// cache can never serve a cell across configs.
u64 grid_fingerprint(std::span<const Job> jobs, u64 root_seed = 0,
                     std::string_view config_desc = {});

/// Fingerprint for harnesses whose grid is built lazily (Engine::map
/// chunks, multi-grid ablations): hash a descriptor string that names
/// the campaign shape instead.
u64 grid_fingerprint(std::string_view grid_desc, u64 root_seed = 0);

// ---- JobOutcome <-> cell record (full-fidelity round trip) -----------

/// Serialize a RunResult with every counter the harnesses fold into
/// their tables, so a served cell is indistinguishable from a run one.
json::Value result_to_json(const sim::RunResult& r);
sim::RunResult result_from_json(const json::Value& v);

/// One outcome record: key, status, wall_ms, then the result (Ok) or
/// the error message, plus the body's aux payload when it set one.
json::Value outcome_to_record(const std::string& key,
                              const JobOutcome& outcome);
/// Parse + validate one record; throws json::JsonError on a malformed
/// or incomplete one.
std::pair<std::string, JobOutcome> outcome_from_record(
    const json::Value& v);

// ---- the store -------------------------------------------------------

struct CacheOptions {
    std::string root;    ///< cache directory (created if missing)
    std::string git_rev; ///< producer revision stamped into cells
};

/// Everything that addresses one cell. bench + grid_hash name the
/// campaign (the grid fingerprint already folds the config revision),
/// key + seed name the cell inside it, git_rev pins the producing
/// binary — a rebuilt simulator can never serve stale cells.
struct CellKey {
    std::string bench;
    std::string grid_hash; ///< hash_hex(grid_fingerprint(...))
    std::string key;       ///< the job's cache key
    u64 seed = 0;
    std::string git_rev;

    /// The 64-bit content address the cell file is named after.
    u64 address() const;
};

/// The shared on-disk store. Thread-safe; one instance may be shared by
/// many campaigns at once, each bound to it through a CampaignCache.
class ResultCache {
public:
    /// Creates root/cells and root/tmp; throws common::ToolchainError
    /// when the root cannot be created.
    explicit ResultCache(CacheOptions opts);

    const CacheOptions& options() const { return opts_; }

    /// The published outcome for `key`, or nullopt. A hit revalidates
    /// the stored key fields — an address collision or git_rev mismatch
    /// reads as a miss.
    std::optional<JobOutcome> load(const CellKey& key);

    /// Publish one finished Ok outcome (write-temp + rename). Failures
    /// degrade to a warning on stderr — the campaign keeps running.
    void store(const CellKey& key, const JobOutcome& outcome);

    u64 hits() const { return hits_.load(std::memory_order_relaxed); }
    u64 misses() const { return misses_.load(std::memory_order_relaxed); }
    u64 stores() const { return stores_.load(std::memory_order_relaxed); }

    /// {"root","hits","misses","stores"} — the host-side payload behind
    /// every envelope's stripped "cache" field.
    json::Value stats_json() const;

private:
    std::string cell_path(u64 address) const;

    CacheOptions opts_;
    std::atomic<unsigned> temp_counter_{0};
    std::atomic<u64> hits_{0};
    std::atomic<u64> misses_{0};
    std::atomic<u64> stores_{0};
};

/// One campaign's binding onto a shared ResultCache: fixes the
/// (bench, grid_hash, git_rev) half of every CellKey so the engine —
/// which knows only Jobs — can hit the store (EngineOptions::cache).
/// Thread-safe: workers call load/store concurrently.
class CampaignCache {
public:
    CampaignCache(std::shared_ptr<ResultCache> cache, std::string bench,
                  u64 fingerprint);

    /// A finished outcome for this job, or nullopt on a miss. The
    /// returned outcome is always JobStatus::Ok (failures are verdicts
    /// of a particular host run and are never cached).
    std::optional<JobOutcome> load(const Job& job);
    /// Publish a completed Ok outcome (atomic: concurrent publishers
    /// of the same cell never tear a record).
    void store(const Job& job, const JobOutcome& outcome);
    /// Hit/miss/store counters for the envelope's host-side `cache`
    /// payload (stripped by json_check --equiv).
    json::Value stats_json() const;

private:
    CellKey key_for(const Job& job) const;

    std::shared_ptr<ResultCache> cache_;
    std::string bench_;
    std::string grid_hash_;
};

/// The one-liner harnesses use: build the campaign's cache binding from
/// --cache (or the HWST_CACHE environment, so presets can opt whole
/// runs in), or nullptr when no cache was requested. The binding stamps
/// build_git_rev() into every cell.
std::unique_ptr<CampaignCache> open_cache(const GridOptions& grid,
                                          const std::string& bench,
                                          u64 fingerprint);

/// attach_cache(open_cache(...)) for the Campaign scaffold.
void attach_cache(Campaign& campaign, const GridOptions& grid);

// ---- auditing (json_check --cache) -----------------------------------

struct CacheAudit {
    u64 cells = 0;
    u64 bytes = 0;
    u64 dangling_tmp = 0; ///< leftover tmp/ files (crashed publishers)
    u64 invalid = 0;      ///< cells that fail to parse or round-trip
    u64 stale = 0;        ///< cells whose git_rev != the expected one
    std::vector<std::string> problems; ///< one line per invalid/stale cell

    bool ok() const { return invalid == 0 && stale == 0; }
};

/// Walk a cache root validating every published cell: JSON parses,
/// cache_version matches, the stored address fields re-hash to the file
/// name, and the record decodes through outcome_from_record. A
/// non-empty `expect_rev` additionally flags cells from other builds.
CacheAudit audit_cache(const std::string& root,
                       const std::string& expect_rev = {});

} // namespace hwst::exec
