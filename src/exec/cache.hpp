// Content-addressed result cache (docs/cache.md): finished Ok cells
// from any campaign, keyed by everything that determines the simulated
// numbers — (bench, grid_hash, job key, seed, git_rev) — and stored as
// journal-format records, one JSON file per cell. A warm cache serves a
// repeated grid instead of recomputing it; the envelope stays
// bit-identical modulo host-side fields because a cell record round
// trips through the same outcome_to_record/outcome_from_record pair the
// checkpoint journal uses.
//
// On-disk layout under the cache root:
//   cells/<16-hex-address>.json   published cells (content-addressed)
//   tmp/<address>.<pid>.<n>       in-flight writes (publish = rename)
//
// Publishing is atomic: a cell is written to tmp/ and rename(2)d into
// cells/, so concurrent publishers — worker threads, several campaign
// processes on one root — can never tear a record; the last writer of
// one address wins with a bit-identical cell. Eviction is LRU by mtime
// under a byte budget; a hit refreshes its cell's mtime.
#pragma once

#include <atomic>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "exec/cli.hpp"
#include "exec/engine.hpp"

namespace hwst::exec {

class Campaign;

/// Cell record format revision (bumped with kJournalVersion
/// semantics: readers reject other versions as a miss).
inline constexpr int kCacheVersion = 1;

struct CacheOptions {
    std::string root;    ///< cache directory (created if missing)
    u64 max_bytes = 0;   ///< LRU eviction bound (0 = unbounded)
    std::string git_rev; ///< producer revision stamped into cells
};

/// Everything that addresses one cell. bench + grid_hash name the
/// campaign (the grid fingerprint already folds the config revision,
/// journal.hpp), key + seed name the cell inside it, git_rev pins the
/// producing binary — a rebuilt simulator can never serve stale cells.
struct CellKey {
    std::string bench;
    std::string grid_hash; ///< hash_hex(grid_fingerprint(...))
    std::string key;       ///< the job's journal key
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

    /// The published outcome for `key`, or nullopt. A hit refreshes the
    /// cell's mtime (LRU) and revalidates the stored key fields — an
    /// address collision or git_rev mismatch reads as a miss.
    std::optional<JobOutcome> load(const CellKey& key);

    /// Publish one finished Ok outcome (write-temp + rename). Failures
    /// degrade to a warning on stderr — the campaign keeps running.
    void store(const CellKey& key, const JobOutcome& outcome);

    /// Evict least-recently-used cells until the store fits max_bytes.
    /// Called by store(); exposed for tests.
    void evict_over_budget();

    u64 hits() const { return hits_.load(std::memory_order_relaxed); }
    u64 misses() const { return misses_.load(std::memory_order_relaxed); }
    u64 stores() const { return stores_.load(std::memory_order_relaxed); }
    u64 evictions() const
    {
        return evictions_.load(std::memory_order_relaxed);
    }

    /// {"root","hits","misses","stores","evictions"} — the host-side
    /// payload behind every envelope's stripped "cache" field.
    json::Value stats_json() const;

private:
    std::string cell_path(u64 address) const;

    CacheOptions opts_;
    std::mutex mutex_; ///< serializes store+evict bookkeeping
    u64 approx_bytes_ = 0;
    unsigned temp_counter_ = 0;
    std::atomic<u64> hits_{0};
    std::atomic<u64> misses_{0};
    std::atomic<u64> stores_{0};
    std::atomic<u64> evictions_{0};
};

/// One campaign's binding onto a shared ResultCache: fixes the
/// (bench, grid_hash, git_rev) half of every CellKey so the engine —
/// which knows only Jobs — can hit the store. The engine treats it like
/// a cross-campaign journal (EngineOptions::cache). Thread-safe: workers
/// call load/store concurrently.
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
    /// Hit/miss/eviction counters for the envelope's host-side `cache`
    /// payload (stripped by json_check --equiv).
    json::Value stats_json() const;

private:
    CellKey key_for(const Job& job) const;

    std::shared_ptr<ResultCache> cache_;
    std::string bench_;
    std::string grid_hash_;
};

/// The one-liner harnesses use: build the campaign's cache binding from
/// --cache/--cache-mb (or the HWST_CACHE / HWST_CACHE_MB environment,
/// so presets can opt whole runs in), or nullptr when no cache was
/// requested. An HWST_CACHE_MB that parse_cache_mb rejects is ignored
/// with a one-time warning. The binding stamps build_git_rev() into
/// every cell.
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
