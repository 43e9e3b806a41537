// Result-cache tests (docs/cache.md): the outcome record's full-fidelity
// round trip, the content-addressed cache's hit/miss/bit-equality
// contract (cold vs warm vs --jobs 1, Engine::map chunks too), git_rev
// pinning, concurrent publishers, the json_check audit, and the
// grid-fingerprint config folding that keys it all.
#include <atomic>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "compiler/driver.hpp"
#include "exec/cache.hpp"
#include "exec/cli.hpp"
#include "exec/engine.hpp"
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

exec::CacheOptions cache_opts(const std::string& root,
                               const char* rev = "rev1")
{
    return exec::CacheOptions{.root = root, .git_rev = rev};
}

sim::RunResult synthetic_result()
{
    sim::RunResult r;
    r.trap.kind = ::hwst::hwst::TrapKind::SpatialViolation;
    r.trap.addr = 0xDEAD;
    r.trap.pc = 0xBEEF;
    r.exit_code = 7;
    r.cycles = 123456;
    r.instret = 654321;
    r.output = {1, -2, 3};
    r.dcache = {1000, 42};
    r.icache = {2000, 17};
    r.keybuffer = {300, 250, 4};
    r.scu_checks = 11;
    r.tcu_checks = 22;
    r.scu_saturated = 1;
    r.tcu_saturated = 2;
    r.smac_translations = 33;
    r.mix = {10, 9, 8, 7, 6, 5, 4, 3, 2, 1, 12, 13};
    return r;
}

} // namespace

// ---- outcome records -------------------------------------------------

TEST(Cache, OutcomeRecordRoundTripsFullFidelity)
{
    JobOutcome out;
    out.status = JobStatus::Ok;
    out.result = synthetic_result();
    out.wall_ms = 1.5;
    out.aux = exec::json::Value::object();
    out.aux["extra"] = 99;

    // Through the serialized form, exactly as a cache hit sees it.
    const exec::json::Value rec =
        exec::json::Value::parse(exec::outcome_to_record("k", out).dump(0));
    const auto [key, back] = exec::outcome_from_record(rec);
    EXPECT_EQ(key, "k");
    EXPECT_EQ(back.status, JobStatus::Ok);
    EXPECT_EQ(back.wall_ms, 1.5);
    const sim::RunResult& a = out.result;
    const sim::RunResult& b = back.result;
    EXPECT_EQ(b.trap.kind, a.trap.kind);
    EXPECT_EQ(b.trap.addr, a.trap.addr);
    EXPECT_EQ(b.trap.pc, a.trap.pc);
    EXPECT_EQ(b.exit_code, a.exit_code);
    EXPECT_EQ(b.cycles, a.cycles);
    EXPECT_EQ(b.instret, a.instret);
    EXPECT_EQ(b.output, a.output);
    EXPECT_EQ(b.dcache.accesses, a.dcache.accesses);
    EXPECT_EQ(b.dcache.misses, a.dcache.misses);
    EXPECT_EQ(b.icache.accesses, a.icache.accesses);
    EXPECT_EQ(b.icache.misses, a.icache.misses);
    EXPECT_EQ(b.keybuffer.lookups, a.keybuffer.lookups);
    EXPECT_EQ(b.keybuffer.hits, a.keybuffer.hits);
    EXPECT_EQ(b.keybuffer.flushes, a.keybuffer.flushes);
    EXPECT_EQ(b.scu_checks, a.scu_checks);
    EXPECT_EQ(b.tcu_checks, a.tcu_checks);
    EXPECT_EQ(b.scu_saturated, a.scu_saturated);
    EXPECT_EQ(b.tcu_saturated, a.tcu_saturated);
    EXPECT_EQ(b.smac_translations, a.smac_translations);
    EXPECT_EQ(b.mix.alu, a.mix.alu);
    EXPECT_EQ(b.mix.tchk, a.mix.tchk);
    EXPECT_EQ(b.mix.other, a.mix.other);
    EXPECT_EQ(back.aux.at("extra").as_int(), 99);

    // Failed outcomes carry the message instead of a result.
    JobOutcome bad;
    bad.status = JobStatus::Timeout;
    bad.error = "cancelled after 4096 instructions";
    const auto [k2, back2] = exec::outcome_from_record(
        exec::outcome_to_record("k2", bad));
    EXPECT_EQ(back2.status, JobStatus::Timeout);
    EXPECT_EQ(back2.error, "cancelled after 4096 instructions");

    // A record naming a retired status is malformed, not a result.
    exec::json::Value crashed = exec::outcome_to_record("k3", bad);
    crashed["status"] = "crashed";
    EXPECT_THROW((void)exec::outcome_from_record(crashed),
                 exec::json::JsonError);
}

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

// ---- concurrent publishers ------------------------------------------

TEST(Cache, ConcurrentPublishStaysAuditClean)
{
    const std::string root = fresh_dir("cache_test_race");
    // One real Ok outcome to publish under many synthetic keys.
    EngineOptions one;
    one.jobs = 1;
    const std::vector<Job> seed_jobs{small_grid()[0]};
    const auto outcome = Engine{one}.run(seed_jobs)[0];
    ASSERT_EQ(outcome.status, JobStatus::Ok);

    // Four publishers hammer write-temp+rename while each reads its
    // cells straight back: no load may observe (or leave behind) a
    // torn cell.
    auto cache = std::make_shared<exec::ResultCache>(cache_opts(root));
    std::atomic<u64> served{0};
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
                if (cache->load(key)) served.fetch_add(1);
            }
        });
    }
    for (auto& th : publishers) th.join();

    constexpr u64 kCells = static_cast<u64>(kThreads) * kPerThread;
    EXPECT_EQ(cache->stores(), kCells);
    EXPECT_EQ(served.load(), kCells);
    // The audit contract: every published cell parses, addresses and
    // round-trips — no invalid, no stale (dangling temps are legal).
    const auto audit = exec::audit_cache(root, "rev1");
    EXPECT_EQ(audit.cells, kCells);
    EXPECT_EQ(audit.invalid, 0u);
    EXPECT_EQ(audit.stale, 0u);
    EXPECT_TRUE(audit.ok());
}

// ---- Engine::map chunks ----------------------------------------------

TEST(Cache, MapChunksAreServedFromTheCache)
{
    // fig6 and fault_campaign cache their typed chunks through a
    // MapCodec: a cold map publishes each chunk's payload, and a warm
    // map in a fresh Engine decodes every out[i] from the cache without
    // calling fn.
    const std::string root = fresh_dir("cache_test_map");
    auto cache = std::make_shared<exec::ResultCache>(cache_opts(root));
    const exec::MapCodec<u64> codec{
        .label = "chunk",
        .encode = [](const u64& v) { return exec::json::Value{v}; },
        .decode =
            [](const exec::json::Value& v) {
                return static_cast<u64>(v.as_int());
            },
    };
    constexpr std::size_t kChunks = 8;
    std::atomic<unsigned> calls{0};
    const std::function<u64(std::size_t, const exec::JobContext&)> fn =
        [&calls](std::size_t i, const exec::JobContext&) {
            calls.fetch_add(1);
            return u64{1000} + i * i;
        };

    exec::CampaignCache cold_binding{cache, "cache_test_map", 7};
    std::vector<u64> cold;
    const auto cold_out =
        Engine{EngineOptions{.jobs = 2, .cache = &cold_binding}}.map<u64>(
            kChunks, fn, cold, codec);
    EXPECT_EQ(calls.load(), kChunks);
    EXPECT_EQ(cache->stores(), kChunks);
    for (std::size_t i = 0; i < kChunks; ++i) {
        ASSERT_EQ(cold_out[i].status, JobStatus::Ok);
        EXPECT_FALSE(cold_out[i].from_cache);
        EXPECT_EQ(cold[i], 1000 + i * i);
    }

    exec::CampaignCache warm_binding{cache, "cache_test_map", 7};
    std::vector<u64> warm;
    const auto warm_out =
        Engine{EngineOptions{.jobs = 1, .cache = &warm_binding}}.map<u64>(
            kChunks, fn, warm, codec);
    EXPECT_EQ(calls.load(), kChunks); // fn never ran again
    for (std::size_t i = 0; i < kChunks; ++i) {
        ASSERT_EQ(warm_out[i].status, JobStatus::Ok);
        EXPECT_TRUE(warm_out[i].from_cache);
        EXPECT_EQ(warm[i], cold[i]);
    }
}
