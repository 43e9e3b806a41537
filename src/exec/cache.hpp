// Content-addressed result cache (docs/cache.md): finished cells from
// any harness, keyed by a digest of what the cell simulates and stored
// as one JSON file each. A sim cell's digest covers the finalized
// Program and every simulated MachineConfig field (cell_digest), so two
// harnesses that run the same program under the same config share one
// cell; Engine::map chunks supply their own digest (MapCodec::key).
//
// On-disk layout under the cache root:
//   cells/<16-hex-address>.json   published cells
//   tmp/<address>.<pid>.<n>       in-flight writes (publish = rename)
//
// A cell's address folds its digest with the producing git_rev and
// kCacheVersion. Publishing is atomic: a cell is written to tmp/ and
// rename(2)d into cells/, so concurrent publishers — worker threads,
// several harness processes on one root — can never tear one; the last
// writer of an address wins with a bit-identical cell. Nothing is ever
// evicted: a cache directory is deleted by hand.
#pragma once

#include <atomic>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "exec/json.hpp"
#include "riscv/program.hpp"
#include "sim/machine.hpp"

namespace hwst::exec {

using common::u64;

/// Cell format revision: readers treat other versions as a miss. v3
/// keys cells by content digest and stores a bare payload.
inline constexpr int kCacheVersion = 3;

/// FNV-1a over a byte string, for folding names into a digest.
u64 fnv1a(std::string_view s);

/// Canonical "0x%016x" rendering of a digest or address.
std::string hash_hex(u64 h);

/// The digest of one simulation: the Program's code, data, entry point
/// and MemoryLayout, and every MachineConfig field except the host-only
/// `tier` (both tiers produce bit-identical results).
u64 cell_digest(const riscv::Program& program, const sim::MachineConfig& cfg);

/// Serialize a RunResult with every counter the harnesses fold into
/// their tables, so a served cell is indistinguishable from a run one.
json::Value result_to_json(const sim::RunResult& r);
/// Throws json::JsonError on a malformed or incomplete payload.
sim::RunResult result_from_json(const json::Value& v);

struct CacheOptions {
    std::string root;    ///< cache directory (created if missing)
    std::string git_rev; ///< producer revision folded into every address
};

/// The shared on-disk store. Thread-safe: worker threads look cells up
/// and publish them concurrently.
class ResultCache {
public:
    /// Creates root/cells and root/tmp; throws common::ToolchainError
    /// when the root cannot be created.
    explicit ResultCache(CacheOptions opts);

    const CacheOptions& options() const { return opts_; }

    /// The payload published under `digest`, or nullopt. A hit
    /// revalidates the stored version, git_rev and digest, so an
    /// address collision or a torn file reads as a miss.
    std::optional<json::Value> load(u64 digest);

    /// Publish a finished cell's payload (write-temp + rename). Callers
    /// publish only completed runs: a timeout or error never reaches
    /// here. Failures degrade to a warning on stderr.
    void store(u64 digest, const json::Value& payload);

    u64 hits() const { return hits_.load(std::memory_order_relaxed); }
    u64 misses() const { return misses_.load(std::memory_order_relaxed); }
    u64 stores() const { return stores_.load(std::memory_order_relaxed); }

    /// {"root","hits","misses","stores"} — the host-side payload behind
    /// every envelope's stripped "cache" field.
    json::Value stats_json() const;

private:
    u64 address(u64 digest) const;
    std::string cell_path(u64 address) const;

    CacheOptions opts_;
    std::atomic<unsigned> temp_counter_{0};
    std::atomic<u64> hits_{0};
    std::atomic<u64> misses_{0};
    std::atomic<u64> stores_{0};
};

/// `decode` of the cell published under `digest`, else `compute()`,
/// published through `encode`. A payload that fails to decode is
/// recomputed and overwritten. Exceptions from `compute` (JobTimeout
/// included) propagate and publish nothing.
template <typename Compute, typename Decode, typename Encode>
auto cached(ResultCache& cache, u64 digest, Compute&& compute,
            Decode&& decode, Encode&& encode)
{
    if (auto hit = cache.load(digest)) {
        try {
            return decode(*hit);
        } catch (const json::JsonError&) {
        }
    }
    auto r = compute();
    cache.store(digest, encode(r));
    return r;
}

// ---- auditing (json_check --cache) -----------------------------------

struct CacheAudit {
    u64 cells = 0;
    u64 bytes = 0;
    u64 dangling_tmp = 0; ///< leftover tmp/ files (crashed publishers)
    u64 invalid = 0;      ///< cells that fail to parse or address
    u64 stale = 0;        ///< cells whose git_rev != the expected one
    std::vector<std::string> problems; ///< one line per invalid/stale cell

    bool ok() const { return invalid == 0 && stale == 0; }
};

/// Walk a cache root validating every published cell: JSON parses,
/// cache_version matches, (digest, git_rev) re-hash to the file name
/// and a payload is present. A non-empty `expect_rev` additionally
/// flags cells from other builds.
CacheAudit audit_cache(const std::string& root,
                       const std::string& expect_rev = {});

} // namespace hwst::exec
