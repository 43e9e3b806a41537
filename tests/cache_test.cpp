// Result-cache tests (docs/cache.md): the content-addressed cache's
// hit/miss/bit-equality contract (cold vs warm vs --jobs 1), git_rev
// pinning, LRU eviction under a byte budget (racing concurrent
// publishers too), the json_check audit, the --cache-mb parser, and
// the grid-fingerprint config folding that keys it all.
#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "compiler/driver.hpp"
#include "exec/cache.hpp"
#include "exec/cli.hpp"
#include "exec/engine.hpp"
#include "exec/journal.hpp"
#include "exec/simrun.hpp"
#include "workloads/workload.hpp"

using namespace hwst;
using common::u64;
using exec::Engine;
using exec::EngineOptions;
using exec::Job;
using exec::JobOutcome;
using exec::JobStatus;

namespace fs = std::filesystem;

namespace {

/// A fresh, empty directory under the system temp root.
std::string fresh_dir(const std::string& name)
{
    const fs::path p = fs::temp_directory_path() / name;
    fs::remove_all(p);
    return p.string();
}

/// The small real-simulation grid the cache tests run.
std::vector<Job> small_grid()
{
    std::vector<Job> jobs;
    for (const char* name : {"crc32", "treeadd"}) {
        const auto& w = workloads::workload(name);
        for (const auto scheme :
             {compiler::Scheme::None, compiler::Scheme::Hwst128Tchk}) {
            jobs.push_back(exec::make_sim_job(
                std::string{name} + "/" +
                    std::string{compiler::scheme_name(scheme)},
                name, scheme, w.build));
        }
    }
    return jobs;
}

/// The grid-ordered record array both sides of every bit-equality claim
/// reduce to.
exec::json::Value records_json(const std::vector<Job>& jobs,
                               const std::vector<JobOutcome>& outcomes)
{
    exec::json::Value records = exec::json::Value::array();
    for (std::size_t i = 0; i < jobs.size(); ++i)
        records.push_back(
            exec::outcome_to_record(jobs[i].key, outcomes[i]));
    return records;
}

/// Total bytes published under a cache root.
u64 cells_bytes(const std::string& root)
{
    u64 total = 0;
    for (const auto& e :
         fs::directory_iterator{fs::path{root} / "cells"})
        total += static_cast<u64>(fs::file_size(e.path()));
    return total;
}

exec::CacheOptions cache_opts(const std::string& root,
                               const char* rev = "rev1", u64 max = 0)
{
    return exec::CacheOptions{
        .root = root, .max_bytes = max, .git_rev = rev};
}

} // namespace

// ---- ResultCache -----------------------------------------------------

TEST(Cache, ColdRunPublishesWarmRunServesBitIdentical)
{
    const std::string root = fresh_dir("cache_test_roundtrip");
    const std::vector<Job> jobs = small_grid();

    auto cache = std::make_shared<exec::ResultCache>(cache_opts(root));
    exec::CampaignCache cold_binding{cache, "cache_test", 42};
    EngineOptions cold_opts;
    cold_opts.jobs = 4;
    cold_opts.cache = &cold_binding;
    const auto cold = Engine{cold_opts}.run(jobs);
    for (const auto& o : cold) {
        ASSERT_EQ(o.status, JobStatus::Ok);
        EXPECT_FALSE(o.from_cache);
    }
    EXPECT_EQ(cache->stores(), jobs.size());

    // A second campaign over the same grid — serial this time, through
    // a fresh binding — must resolve every cell from the store and
    // reproduce the records bit-identically, host timing included: a
    // served cell round-trips the cold run's record verbatim.
    exec::CampaignCache warm_binding{cache, "cache_test", 42};
    EngineOptions warm_opts;
    warm_opts.jobs = 1;
    warm_opts.cache = &warm_binding;
    const auto warm = Engine{warm_opts}.run(jobs);
    for (const auto& o : warm) {
        ASSERT_EQ(o.status, JobStatus::Ok);
        EXPECT_TRUE(o.from_cache);
    }
    EXPECT_EQ(cache->hits(), jobs.size());
    EXPECT_EQ(records_json(jobs, cold).dump(),
              records_json(jobs, warm).dump());
}

TEST(Cache, DifferentGridHashOrRevisionMisses)
{
    const std::string root = fresh_dir("cache_test_keys");
    const std::vector<Job> jobs = small_grid();

    auto cache = std::make_shared<exec::ResultCache>(cache_opts(root));
    exec::CampaignCache binding{cache, "cache_test", 42};
    EngineOptions opts;
    opts.jobs = 2;
    opts.cache = &binding;
    (void)Engine{opts}.run(jobs);
    ASSERT_EQ(cache->stores(), jobs.size());

    // Another fingerprint addresses different cells entirely.
    exec::CampaignCache other_grid{cache, "cache_test", 43};
    EXPECT_FALSE(other_grid.load(jobs[0]).has_value());

    // Same address fields, rebuilt binary: the stored git_rev no longer
    // matches, so the cell reads as a miss (never a stale serve).
    auto rebuilt = std::make_shared<exec::ResultCache>(
        cache_opts(root, "rev2"));
    exec::CampaignCache stale{rebuilt, "cache_test", 42};
    EXPECT_FALSE(stale.load(jobs[0]).has_value());

    // The original binding still hits.
    EXPECT_TRUE(binding.load(jobs[0]).has_value());
}

TEST(Cache, NonOkOutcomesAreNeverPublished)
{
    const std::string root = fresh_dir("cache_test_nonok");
    auto cache = std::make_shared<exec::ResultCache>(cache_opts(root));
    const exec::CellKey key{"b", "0x1", "k", 7, "rev1"};
    JobOutcome failed;
    failed.status = JobStatus::Error;
    failed.error = "boom";
    cache->store(key, failed);
    EXPECT_EQ(cache->stores(), 0u);
    EXPECT_FALSE(cache->load(key).has_value());
}

TEST(Cache, EvictionUnderPressureKeepsTheBudget)
{
    const std::vector<Job> jobs = small_grid();

    // Probe pass: measure what the whole grid occupies unbounded.
    const std::string probe_root = fresh_dir("cache_test_evict_probe");
    auto probe =
        std::make_shared<exec::ResultCache>(cache_opts(probe_root));
    exec::CampaignCache probe_binding{probe, "cache_test", 42};
    EngineOptions probe_opts;
    probe_opts.jobs = 1;
    probe_opts.cache = &probe_binding;
    (void)Engine{probe_opts}.run(jobs);
    const u64 total = cells_bytes(probe_root);
    ASSERT_GT(total, 0u);

    // Budgeted pass: half the footprint forces LRU eviction, and the
    // store must land under the budget when the campaign ends.
    const u64 budget = total / 2;
    const std::string root = fresh_dir("cache_test_evict");
    auto cache = std::make_shared<exec::ResultCache>(
        cache_opts(root, "rev1", budget));
    exec::CampaignCache binding{cache, "cache_test", 42};
    EngineOptions opts;
    opts.jobs = 1;
    opts.cache = &binding;
    (void)Engine{opts}.run(jobs);
    EXPECT_GT(cache->evictions(), 0u);
    EXPECT_LE(cells_bytes(root), budget);
    // What survived still audits clean.
    EXPECT_TRUE(exec::audit_cache(root, "rev1").ok());
}

TEST(Cache, AuditFlagsCorruptionDanglingTempsAndStaleCells)
{
    const std::string root = fresh_dir("cache_test_audit");
    const std::vector<Job> jobs = small_grid();
    auto cache = std::make_shared<exec::ResultCache>(cache_opts(root));
    exec::CampaignCache binding{cache, "cache_test", 42};
    EngineOptions opts;
    opts.jobs = 1;
    opts.cache = &binding;
    (void)Engine{opts}.run(jobs);

    exec::CacheAudit audit = exec::audit_cache(root, "rev1");
    EXPECT_EQ(audit.cells, jobs.size());
    EXPECT_TRUE(audit.ok());
    EXPECT_EQ(audit.dangling_tmp, 0u);

    // Another build's expectation flags every cell stale.
    audit = exec::audit_cache(root, "rev2");
    EXPECT_EQ(audit.stale, jobs.size());
    EXPECT_FALSE(audit.ok());

    // A crashed publisher's leftover temp is counted, not fatal.
    std::ofstream{fs::path{root} / "tmp" / "deadbeef.1.0"} << "partial";
    // A truncated cell is invalid.
    const auto first =
        fs::directory_iterator{fs::path{root} / "cells"}->path();
    std::ofstream{first, std::ios::trunc} << "{\"torn\":";
    audit = exec::audit_cache(root);
    EXPECT_EQ(audit.dangling_tmp, 1u);
    EXPECT_EQ(audit.invalid, 1u);
    EXPECT_FALSE(audit.ok());

    // And the torn cell reads as a miss, never a parse error: of the
    // four published cells, exactly one is gone.
    EXPECT_EQ(cache->hits(), 0u);
    for (const auto& j : jobs) (void)binding.load(j);
    EXPECT_EQ(cache->hits(), jobs.size() - 1);
}

// ---- --cache-mb / HWST_CACHE_MB --------------------------------------

TEST(Cache, ParseCacheMbAcceptsOnlyDigitsThatFit)
{
    EXPECT_EQ(exec::parse_cache_mb("64"), 64u);
    EXPECT_EQ(exec::parse_cache_mb("0"), 0u);
    // The largest budget whose MiB -> byte shift still fits in 64 bits.
    EXPECT_EQ(exec::parse_cache_mb("17592186044415"),
              (~u64{0}) >> 20);
    EXPECT_FALSE(exec::parse_cache_mb(""));
    EXPECT_FALSE(exec::parse_cache_mb("abc"));
    EXPECT_FALSE(exec::parse_cache_mb("12abc"));
    EXPECT_FALSE(exec::parse_cache_mb("-1"));
    // 2^44 MiB shifts << 20 to 0, which would read as "unbounded".
    EXPECT_FALSE(exec::parse_cache_mb("17592186044416"));
}

// ---- grid fingerprint config folding ---------------------------------

TEST(GridFingerprint, ConfigTweaksChangeTheGridHash)
{
    exec::GridSpec plain;
    plain.workloads = {"crc32"};
    plain.schemes = {compiler::Scheme::Hwst128Tchk};
    exec::GridSpec tweaked = plain;
    tweaked.keybuffer = 16;
    exec::GridSpec shrunk = plain;
    shrunk.dcache_kib = 16;

    const u64 a = plain.fingerprint();
    const u64 b = tweaked.fingerprint();
    const u64 c = shrunk.fingerprint();
    EXPECT_NE(a, b);
    EXPECT_NE(a, c);
    EXPECT_NE(b, c);

    // An untweaked spec folds no config_desc, so it matches the plain
    // grid_fingerprint(jobs) the local harnesses compute.
    EXPECT_EQ(plain.config_desc(), "");
    EXPECT_EQ(a, exec::grid_fingerprint(plain.jobs()));
    EXPECT_EQ(b, exec::grid_fingerprint(tweaked.jobs(), 0,
                                        tweaked.config_desc()));
}

// ---- cache eviction racing a concurrent publish ----------------------

TEST(Cache, EvictionRacingConcurrentPublishStaysAuditClean)
{
    const std::string root = fresh_dir("cache_test_race");
    // One real Ok outcome to publish under many synthetic keys.
    EngineOptions one;
    one.jobs = 1;
    const std::vector<Job> seed_jobs{small_grid()[0]};
    const auto outcome = Engine{one}.run(seed_jobs)[0];
    ASSERT_EQ(outcome.status, JobStatus::Ok);

    // A budget small enough that eviction fires constantly while four
    // publishers hammer write-temp+rename — the mtime-LRU sweep must
    // never observe (or leave behind) a torn cell.
    auto cache = std::make_shared<exec::ResultCache>(
        cache_opts(root, "rev1", 8 * 1024));
    std::atomic<bool> done{false};
    std::thread evictor{[&] {
        while (!done.load()) {
            cache->evict_over_budget();
            std::this_thread::sleep_for(std::chrono::milliseconds{1});
        }
    }};
    constexpr int kThreads = 4;
    constexpr int kPerThread = 32;
    std::vector<std::thread> publishers;
    publishers.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        publishers.emplace_back([&, t] {
            for (int i = 0; i < kPerThread; ++i) {
                const exec::CellKey key{
                    "race", "0xabc",
                    "k" + std::to_string(t) + "_" + std::to_string(i),
                    7, "rev1"};
                cache->store(key, outcome);
                (void)cache->load(key); // mtime refresh races too
            }
        });
    }
    for (auto& th : publishers) th.join();
    done.store(true);
    evictor.join();

    EXPECT_EQ(cache->stores(),
              static_cast<u64>(kThreads) * kPerThread);
    EXPECT_GT(cache->evictions(), 0u);
    // The audit contract: whatever survived the race parses, addresses
    // and round-trips — no invalid, no stale (dangling temps are legal).
    const auto audit = exec::audit_cache(root, "rev1");
    EXPECT_EQ(audit.invalid, 0u);
    EXPECT_EQ(audit.stale, 0u);
    EXPECT_TRUE(audit.ok());
}
