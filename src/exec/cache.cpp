#include "exec/cache.hpp"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>

#include "common/env.hpp"
#include "common/error.hpp"
#include "exec/envelope.hpp"
#include "exec/journal.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <unistd.h>
#define HWST_CACHE_POSIX 1
#endif

namespace hwst::exec {

namespace fs = std::filesystem;

u64 CellKey::address() const
{
    return derive_seed(fnv1a(bench), fnv1a(grid_hash), fnv1a(key), seed,
                       fnv1a(git_rev));
}

namespace {

/// The cell document published for one outcome.
json::Value cell_to_json(const CellKey& key, const JobOutcome& outcome)
{
    json::Value v = json::Value::object();
    v["cache_version"] = kCacheVersion;
    v["bench"] = key.bench;
    v["grid_hash"] = key.grid_hash;
    v["key"] = key.key;
    v["seed"] = key.seed;
    v["git_rev"] = key.git_rev;
    v["record"] = outcome_to_record(key.key, outcome);
    return v;
}

/// Validate a parsed cell against the key that addressed it and decode
/// the record. Returns nullopt (a miss) on any mismatch — an address
/// collision, another build's cell, a future format.
std::optional<JobOutcome> cell_from_json(const json::Value& v,
                                         const CellKey& key)
{
    if (v.at("cache_version").as_int() != kCacheVersion)
        return std::nullopt;
    if (v.at("bench").as_string() != key.bench ||
        v.at("grid_hash").as_string() != key.grid_hash ||
        v.at("key").as_string() != key.key ||
        static_cast<u64>(v.at("seed").as_int()) != key.seed ||
        v.at("git_rev").as_string() != key.git_rev)
        return std::nullopt;
    auto [rec_key, outcome] = outcome_from_record(v.at("record"));
    if (rec_key != key.key || outcome.status != JobStatus::Ok)
        return std::nullopt;
    return outcome;
}

u64 file_size_or_zero(const fs::path& p)
{
    std::error_code ec;
    const auto n = fs::file_size(p, ec);
    return ec ? 0 : static_cast<u64>(n);
}

// Write `text` to `path` and flush it to disk before returning, so the
// rename that follows publishes a complete file even across a crash.
bool write_file_synced(const std::string& path, const std::string& text)
{
#ifdef HWST_CACHE_POSIX
    const int fd = ::open(path.c_str(), O_CREAT | O_WRONLY | O_TRUNC, 0644);
    if (fd < 0) return false;
    std::size_t off = 0;
    while (off < text.size()) {
        const ::ssize_t n = ::write(fd, text.data() + off, text.size() - off);
        if (n < 0 && errno == EINTR) continue;
        if (n <= 0) {
            ::close(fd);
            return false;
        }
        off += static_cast<std::size_t>(n);
    }
    const bool synced = ::fsync(fd) == 0;
    ::close(fd);
    return synced;
#else
    std::ofstream out{path, std::ios::binary | std::ios::trunc};
    out << text;
    return static_cast<bool>(out);
#endif
}

} // namespace

ResultCache::ResultCache(CacheOptions opts) : opts_{std::move(opts)}
{
    std::error_code ec;
    fs::create_directories(fs::path{opts_.root} / "cells", ec);
    fs::create_directories(fs::path{opts_.root} / "tmp", ec);
    if (ec)
        throw common::ToolchainError{"cannot create cache root " +
                                     opts_.root + ": " + ec.message()};
    for (const auto& e : fs::directory_iterator{
             fs::path{opts_.root} / "cells", ec})
        approx_bytes_ += file_size_or_zero(e.path());
}

std::string ResultCache::cell_path(u64 address) const
{
    // hash_hex gives "0x%016x"; the file name drops the prefix.
    return (fs::path{opts_.root} / "cells" /
            (hash_hex(address).substr(2) + ".json"))
        .string();
}

std::optional<JobOutcome> ResultCache::load(const CellKey& key)
{
    const fs::path path = cell_path(key.address());
    std::ifstream in{path, std::ios::binary};
    if (!in) {
        misses_.fetch_add(1, std::memory_order_relaxed);
        return std::nullopt;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    std::optional<JobOutcome> outcome;
    try {
        outcome = cell_from_json(json::Value::parse(buf.str()), key);
    } catch (const std::exception&) {
        outcome = std::nullopt; // torn or foreign cell: a miss
    }
    if (!outcome) {
        misses_.fetch_add(1, std::memory_order_relaxed);
        return std::nullopt;
    }
    // LRU refresh: a served cell is the last to go under pressure.
    std::error_code ec;
    fs::last_write_time(path, fs::file_time_type::clock::now(), ec);
    hits_.fetch_add(1, std::memory_order_relaxed);
    return outcome;
}

void ResultCache::store(const CellKey& key, const JobOutcome& outcome)
{
    if (outcome.status != JobStatus::Ok) return;
    const std::string text = cell_to_json(key, outcome).dump(2) + "\n";
    const u64 address = key.address();
    fs::path temp;
    {
        const std::lock_guard lock{mutex_};
        temp = fs::path{opts_.root} / "tmp" /
               (hash_hex(address).substr(2) + "." +
                std::to_string(
#ifdef HWST_CACHE_POSIX
                    static_cast<long>(::getpid())
#else
                    0L
#endif
                        ) +
                "." + std::to_string(temp_counter_++));
    }
    if (!write_file_synced(temp.string(), text)) {
        std::cerr << "[cache] cannot write " << temp.string()
                  << "; cell not published\n";
        std::error_code ec;
        fs::remove(temp, ec);
        return;
    }
    std::error_code ec;
    fs::rename(temp, cell_path(address), ec);
    if (ec) {
        std::cerr << "[cache] cannot publish " << cell_path(address) << ": "
                  << ec.message() << '\n';
        fs::remove(temp, ec);
        return;
    }
    stores_.fetch_add(1, std::memory_order_relaxed);
    {
        const std::lock_guard lock{mutex_};
        approx_bytes_ += text.size();
    }
    if (opts_.max_bytes != 0) evict_over_budget();
}

void ResultCache::evict_over_budget()
{
    if (opts_.max_bytes == 0) return;
    const std::lock_guard lock{mutex_};
    if (approx_bytes_ <= opts_.max_bytes) return;

    struct Entry {
        fs::path path;
        fs::file_time_type mtime;
        u64 bytes = 0;
    };
    std::vector<Entry> entries;
    u64 total = 0;
    std::error_code ec;
    for (const auto& e : fs::directory_iterator{
             fs::path{opts_.root} / "cells", ec}) {
        Entry entry{e.path(), fs::file_time_type::min(),
                    file_size_or_zero(e.path())};
        std::error_code mec;
        entry.mtime = fs::last_write_time(e.path(), mec);
        total += entry.bytes;
        entries.push_back(std::move(entry));
    }
    std::sort(entries.begin(), entries.end(),
              [](const Entry& a, const Entry& b) {
                  return a.mtime < b.mtime;
              });
    for (const Entry& e : entries) {
        if (total <= opts_.max_bytes) break;
        std::error_code rec;
        if (fs::remove(e.path, rec)) {
            total -= std::min(total, e.bytes);
            evictions_.fetch_add(1, std::memory_order_relaxed);
        }
    }
    approx_bytes_ = total;
}

json::Value ResultCache::stats_json() const
{
    json::Value v = json::Value::object();
    v["root"] = opts_.root;
    v["hits"] = hits();
    v["misses"] = misses();
    v["stores"] = stores();
    v["evictions"] = evictions();
    return v;
}

CampaignCache::CampaignCache(std::shared_ptr<ResultCache> cache,
                             std::string bench, u64 fingerprint)
    : cache_{std::move(cache)},
      bench_{std::move(bench)},
      grid_hash_{hash_hex(fingerprint)}
{
}

CellKey CampaignCache::key_for(const Job& job) const
{
    return CellKey{
        .bench = bench_,
        .grid_hash = grid_hash_,
        .key = job.key,
        .seed = job.seed,
        .git_rev = cache_->options().git_rev,
    };
}

std::optional<JobOutcome> CampaignCache::load(const Job& job)
{
    return cache_->load(key_for(job));
}

void CampaignCache::store(const Job& job, const JobOutcome& outcome)
{
    cache_->store(key_for(job), outcome);
}

json::Value CampaignCache::stats_json() const
{
    return cache_->stats_json();
}

std::unique_ptr<CampaignCache> open_cache(const GridOptions& grid,
                                          const std::string& bench,
                                          u64 fingerprint)
{
    std::string root = grid.cache_dir;
    if (root.empty()) {
        if (const char* env = std::getenv("HWST_CACHE")) root = env;
    }
    if (root.empty()) return nullptr;
    u64 max_bytes = grid.cache_mb << 20;
    if (max_bytes == 0) {
        if (const char* env = std::getenv("HWST_CACHE_MB")) {
            if (const auto mb = parse_cache_mb(env))
                max_bytes = *mb << 20;
            else
                common::warn_once(
                    "HWST_CACHE_MB",
                    std::string{"[env] HWST_CACHE_MB='"} + env +
                        "' is not a whole number of MiB below 2^44; "
                        "ignoring\n");
        }
    }
    auto cache = std::make_shared<ResultCache>(CacheOptions{
        .root = std::move(root),
        .max_bytes = max_bytes,
        .git_rev = build_git_rev(),
    });
    return std::make_unique<CampaignCache>(std::move(cache), bench,
                                           fingerprint);
}

void attach_cache(Campaign& campaign, const GridOptions& grid)
{
    campaign.attach_cache(
        open_cache(grid, campaign.bench(), campaign.fingerprint()));
}

CacheAudit audit_cache(const std::string& root,
                       const std::string& expect_rev)
{
    CacheAudit audit;
    std::error_code ec;
    for (const auto& e :
         fs::directory_iterator{fs::path{root} / "tmp", ec}) {
        ++audit.dangling_tmp;
        audit.problems.push_back("dangling temp: " + e.path().string());
    }
    for (const auto& e :
         fs::directory_iterator{fs::path{root} / "cells", ec}) {
        ++audit.cells;
        audit.bytes += file_size_or_zero(e.path());
        const std::string name = e.path().filename().string();
        try {
            std::ifstream in{e.path(), std::ios::binary};
            std::ostringstream buf;
            buf << in.rdbuf();
            const auto v = json::Value::parse(buf.str());
            if (v.at("cache_version").as_int() != kCacheVersion)
                throw common::ToolchainError{
                    "cache_version " +
                    std::to_string(v.at("cache_version").as_int())};
            const CellKey key{
                .bench = v.at("bench").as_string(),
                .grid_hash = v.at("grid_hash").as_string(),
                .key = v.at("key").as_string(),
                .seed = static_cast<u64>(v.at("seed").as_int()),
                .git_rev = v.at("git_rev").as_string(),
            };
            // The address fields must re-hash to the file's own name:
            // a renamed or hand-edited cell is invalid, not just stale.
            if (hash_hex(key.address()).substr(2) + ".json" != name)
                throw common::ToolchainError{"address mismatch"};
            auto [rec_key, outcome] = outcome_from_record(v.at("record"));
            if (rec_key != key.key)
                throw common::ToolchainError{"record key mismatch"};
            if (outcome.status != JobStatus::Ok)
                throw common::ToolchainError{"non-ok cached outcome"};
            if (!expect_rev.empty() && key.git_rev != expect_rev) {
                ++audit.stale;
                audit.problems.push_back("stale cell " + name +
                                         ": git_rev " + key.git_rev +
                                         " != " + expect_rev);
            }
        } catch (const std::exception& ex) {
            ++audit.invalid;
            audit.problems.push_back("invalid cell " + name + ": " +
                                     ex.what());
        }
    }
    return audit;
}

} // namespace hwst::exec
