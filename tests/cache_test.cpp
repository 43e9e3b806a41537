// Result-cache tests (docs/cache.md): the RunResult payload's
// full-fidelity round trip, the content-addressed cache's
// hit/miss/bit-equality contract (cold vs warm vs --jobs 1, Engine::map
// chunks too), what the cell digest covers, cross-grid sharing, git_rev
// pinning, never publishing a timeout, concurrent publishers and the
// json_check audit.
#include <atomic>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "compiler/driver.hpp"
#include "exec/cache.hpp"
#include "exec/engine.hpp"
#include "exec/simrun.hpp"
#include "fault/campaign.hpp"
#include "mir/builder.hpp"
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

/// A small real-simulation grid, its job names prefixed by `grid`.
std::vector<Job> small_grid(const std::string& grid = "cache_test")
{
    std::vector<Job> jobs;
    for (const char* name : {"crc32", "treeadd"}) {
        const auto& w = workloads::workload(name);
        for (const auto scheme :
             {compiler::Scheme::None, compiler::Scheme::Hwst128Tchk}) {
            jobs.push_back(exec::make_sim_job(
                grid + ":" + name + "/" +
                    std::string{compiler::scheme_name(scheme)},
                name, scheme, w.build));
        }
    }
    return jobs;
}

/// The grid-ordered result array both sides of every bit-equality
/// claim reduce to.
std::string results_json(const std::vector<JobOutcome>& outcomes)
{
    exec::json::Value results = exec::json::Value::array();
    for (const JobOutcome& o : outcomes)
        results.push_back(exec::result_to_json(o.result));
    return results.dump();
}

std::unique_ptr<exec::ResultCache> make_cache(const std::string& root,
                                              const char* rev = "rev1")
{
    return std::make_unique<exec::ResultCache>(
        exec::CacheOptions{.root = root, .git_rev = rev});
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

/// main() { i = 0; loop: i = i + 1; goto loop; } — runs until fuel or
/// cancellation, and never repeats a state the fast-forward could skip.
mir::Module infinite_module()
{
    mir::Module m;
    auto& fn = m.add_function("main", {}, mir::Ty::I64);
    mir::FunctionBuilder b{m, fn};
    b.set_insert(b.block("entry"));
    const auto i = b.local("i");
    b.store_local(i, b.const_i64(0));
    const auto loop = b.block("loop");
    b.jmp(loop);
    b.set_insert(loop);
    b.store_local(i, b.add(b.load_local(i), b.const_i64(1)));
    b.jmp(loop);
    return m;
}

/// A two-instruction Program with one data byte; `main_at` picks the
/// instruction the entry label binds to, so only the entry differs.
riscv::Program tiny_program(common::i64 imm, common::u8 byte,
                            std::size_t main_at)
{
    riscv::Program p;
    for (std::size_t k = 0; k < 2; ++k) {
        if (k == main_at) p.label("main");
        p.emit(riscv::itype(riscv::Opcode::ADDI, riscv::Reg::a0,
                            riscv::Reg::zero,
                            imm + static_cast<common::i64>(k)));
    }
    const common::u8 data[] = {byte, 2, 3};
    p.add_data(data);
    p.finalize();
    return p;
}

} // namespace

// ---- RunResult payloads ----------------------------------------------

TEST(Cache, ResultRoundTripsFullFidelity)
{
    const sim::RunResult a = synthetic_result();
    // Through the serialized form, exactly as a cache hit sees it.
    const sim::RunResult b = exec::result_from_json(
        exec::json::Value::parse(exec::result_to_json(a).dump(0)));
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
    EXPECT_EQ(b.mix, a.mix);

    // An incomplete payload is malformed, not a result.
    exec::json::Value torn = exec::result_to_json(a);
    torn["mix"] = exec::json::Value::array();
    EXPECT_THROW((void)exec::result_from_json(torn), exec::json::JsonError);
}

// ---- ResultCache -----------------------------------------------------

TEST(Cache, ColdRunPublishesWarmRunServesBitIdentical)
{
    const auto cache = make_cache(fresh_dir("cache_test_roundtrip"));
    const std::vector<Job> jobs = small_grid();

    const auto cold =
        Engine{EngineOptions{.jobs = 4, .cache = cache.get()}}.run(jobs);
    for (const auto& o : cold) ASSERT_EQ(o.status, JobStatus::Ok);
    EXPECT_EQ(cache->stores(), jobs.size());
    EXPECT_EQ(cache->hits(), 0u);

    // A second run over the same grid — serial this time — resolves
    // every cell from the store and reproduces every result.
    const auto warm =
        Engine{EngineOptions{.jobs = 1, .cache = cache.get()}}.run(jobs);
    for (const auto& o : warm) ASSERT_EQ(o.status, JobStatus::Ok);
    EXPECT_EQ(cache->hits(), jobs.size());
    EXPECT_EQ(cache->stores(), jobs.size());
    const auto local = Engine{EngineOptions{.jobs = 1}}.run(jobs);
    EXPECT_EQ(results_json(cold), results_json(warm));
    EXPECT_EQ(results_json(local), results_json(warm));
}

TEST(Cache, DigestCoversEverythingSimulated)
{
    const std::string root = fresh_dir("cache_test_digest");
    const auto cache = make_cache(root);
    const riscv::Program base = tiny_program(7, 1, 0);
    const sim::MachineConfig cfg{};
    const u64 digest = exec::cell_digest(base, cfg);
    cache->store(digest, exec::result_to_json(synthetic_result()));
    ASSERT_TRUE(cache->load(digest).has_value());

    // Every simulated MachineConfig field.
    using Tweak = std::pair<const char*, void (*)(sim::MachineConfig&)>;
    const Tweak tweaks[] = {
        {"dcache.line_bytes", [](auto& c) { c.dcache.line_bytes = 32; }},
        {"dcache.ways", [](auto& c) { c.dcache.ways = 2; }},
        {"dcache.sets", [](auto& c) { c.dcache.sets = 16; }},
        {"dcache.hit_cycles", [](auto& c) { c.dcache.hit_cycles = 2; }},
        {"dcache.miss_penalty", [](auto& c) { c.dcache.miss_penalty = 9; }},
        {"icache.line_bytes", [](auto& c) { c.icache.line_bytes = 32; }},
        {"icache.ways", [](auto& c) { c.icache.ways = 2; }},
        {"icache.sets", [](auto& c) { c.icache.sets = 16; }},
        {"icache.hit_cycles", [](auto& c) { c.icache.hit_cycles = 2; }},
        {"icache.miss_penalty", [](auto& c) { c.icache.miss_penalty = 9; }},
        {"icache_enabled", [](auto& c) { c.icache_enabled = false; }},
        {"keybuffer_entries", [](auto& c) { c.keybuffer_entries = 16; }},
        {"keybuffer_enabled", [](auto& c) { c.keybuffer_enabled = false; }},
        {"fuel", [](auto& c) { c.fuel = 1000; }},
        {"timing.branch_taken_penalty",
         [](auto& c) { c.timing.branch_taken_penalty = 2; }},
        {"timing.load_use_stall", [](auto& c) { c.timing.load_use_stall = 2; }},
        {"timing.mul_extra", [](auto& c) { c.timing.mul_extra = 4; }},
        {"timing.div_extra", [](auto& c) { c.timing.div_extra = 25; }},
        {"timing.csr_extra", [](auto& c) { c.timing.csr_extra = 2; }},
        {"timing.ecall_cost", [](auto& c) { c.timing.ecall_cost = 141; }},
        {"runtime.asan_redzone", [](auto& c) { c.runtime.asan_redzone = 16; }},
        {"runtime.quarantine", [](auto& c) { c.runtime.quarantine = true; }},
        {"runtime.quarantine_bytes",
         [](auto& c) { c.runtime.quarantine_bytes = 4096; }},
        {"runtime.libc_free_aborts",
         [](auto& c) { c.runtime.libc_free_aborts = false; }},
        {"runtime.init_sw_trie", [](auto& c) { c.runtime.init_sw_trie = true; }},
    };
    for (const auto& [name, tweak] : tweaks) {
        sim::MachineConfig changed = cfg;
        tweak(changed);
        EXPECT_FALSE(cache->load(exec::cell_digest(base, changed)))
            << name;
    }

    // One code word, one data byte, the entry, one layout field.
    EXPECT_FALSE(cache->load(exec::cell_digest(tiny_program(8, 1, 0), cfg)))
        << "code";
    EXPECT_FALSE(cache->load(exec::cell_digest(tiny_program(7, 9, 0), cfg)))
        << "data";
    EXPECT_FALSE(cache->load(exec::cell_digest(tiny_program(7, 1, 1), cfg)))
        << "entry";
    riscv::Program moved = base;
    moved.layout().heap_size += 4096;
    EXPECT_FALSE(cache->load(exec::cell_digest(moved, cfg))) << "layout";

    // Another build's cells never serve.
    EXPECT_FALSE(make_cache(root, "rev2")->load(digest)) << "git_rev";

    // The tier is host-only: both tiers produce bit-identical results.
    for (const sim::ExecTier tier :
         {sim::ExecTier::Interp, sim::ExecTier::Dbt}) {
        sim::MachineConfig pinned = cfg;
        pinned.tier = tier;
        EXPECT_TRUE(cache->load(exec::cell_digest(base, pinned)))
            << sim::tier_name(tier);
    }
}

TEST(Cache, DifferentlyNamedGridsShareCells)
{
    // The key is what a cell simulates, not which harness or job asks:
    // a second grid with other job names — hwst_run's GridSpec, its
    // keybuffer tweak set to the default — is served in full by the
    // first grid's cells.
    const auto cache = make_cache(fresh_dir("cache_test_shared"));
    const auto first = Engine{EngineOptions{.jobs = 2, .cache = cache.get()}}
                           .run(small_grid("fig4"));
    const exec::GridSpec spec{
        .workloads = {"crc32", "treeadd"},
        .schemes = {compiler::Scheme::None, compiler::Scheme::Hwst128Tchk},
        .keybuffer = sim::MachineConfig{}.keybuffer_entries,
    };
    const auto second =
        Engine{EngineOptions{.jobs = 2, .cache = cache.get()}}.run(
            spec.jobs());
    EXPECT_EQ(cache->stores(), 4u);
    EXPECT_EQ(cache->hits(), 4u);
    EXPECT_EQ(results_json(first), results_json(second));
}

TEST(Cache, TimedOutRunsAreNeverPublished)
{
    const auto cache = make_cache(fresh_dir("cache_test_timeout"));
    const std::vector<Job> jobs{exec::make_sim_job(
        "hang/none", "hang", compiler::Scheme::None, infinite_module,
        [](sim::MachineConfig& cfg) { cfg.fuel = 4'000'000'000ULL; })};
    const auto outcomes =
        Engine{EngineOptions{.jobs = 1,
                             .timeout = std::chrono::milliseconds{50},
                             .cache = cache.get()}}
            .run(jobs);
    EXPECT_EQ(outcomes[0].status, JobStatus::Timeout);
    EXPECT_EQ(cache->misses(), 1u);
    EXPECT_EQ(cache->stores(), 0u);
}

TEST(Cache, FaultCampaignNeverServesATimedOutRun)
{
    // A timeout is a fact about one host run, not about the cell: a
    // 1 ms budget times faulted runs out, and a rerun on the same cache
    // without a budget must classify every one of them.
    const auto cache = make_cache(fresh_dir("cache_test_fault_timeout"));
    fault::CampaignConfig cfg;
    cfg.workloads = {"bitcounts"}; // ~10 M instructions a run
    cfg.points = {sim::Probe::SrfSpatialWrite};
    cfg.seeds_per_point = 2;
    cfg.jobs = 1;
    cfg.timeout_ms = 1;
    cfg.cache = cache.get();
    const fault::CampaignReport hurried = fault::run_campaign(cfg);
    EXPECT_GT(hurried.total_timeouts(), 0u);

    cfg.timeout_ms = 0;
    const fault::CampaignReport full = fault::run_campaign(cfg);
    EXPECT_EQ(full.total_timeouts(), 0u);
    for (const fault::PointStats& p : full.points)
        EXPECT_EQ(p.detected + p.masked + p.silent, p.runs)
            << sim::probe_name(p.point);
    EXPECT_EQ(full.total_runs(), 2u);
}

TEST(Cache, AuditFlagsCorruptionDanglingTempsAndStaleCells)
{
    const std::string root = fresh_dir("cache_test_audit");
    const auto cache = make_cache(root);
    const std::vector<Job> jobs = small_grid();
    (void)Engine{EngineOptions{.jobs = 1, .cache = cache.get()}}.run(jobs);

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
    // four published cells, exactly one is recomputed.
    const auto warm =
        Engine{EngineOptions{.jobs = 1, .cache = cache.get()}}.run(jobs);
    for (const auto& o : warm) EXPECT_EQ(o.status, JobStatus::Ok);
    EXPECT_EQ(cache->hits(), jobs.size() - 1);
}

// ---- concurrent publishers ------------------------------------------

TEST(Cache, ConcurrentPublishStaysAuditClean)
{
    const std::string root = fresh_dir("cache_test_race");
    const auto cache = make_cache(root);
    const exec::json::Value payload =
        exec::result_to_json(synthetic_result());

    // Four publishers hammer write-temp+rename while each reads its
    // cells straight back: no load may observe (or leave behind) a
    // torn cell.
    std::atomic<u64> served{0};
    constexpr int kThreads = 4;
    constexpr int kPerThread = 32;
    std::vector<std::thread> publishers;
    publishers.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        publishers.emplace_back([&, t] {
            for (int i = 0; i < kPerThread; ++i) {
                const u64 digest = exec::derive_seed(0xABC, t, i);
                cache->store(digest, payload);
                if (cache->load(digest)) served.fetch_add(1);
            }
        });
    }
    for (auto& th : publishers) th.join();

    constexpr u64 kCells = static_cast<u64>(kThreads) * kPerThread;
    EXPECT_EQ(cache->stores(), kCells);
    EXPECT_EQ(served.load(), kCells);
    // The audit contract: every published cell parses and addresses —
    // no invalid, no stale (dangling temps are legal).
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
    // MapCodec: a cold map publishes each chunk's payload under key(i),
    // and a warm map in a fresh Engine decodes every out[i] from the
    // cache without calling fn.
    const auto cache = make_cache(fresh_dir("cache_test_map"));
    const exec::MapCodec<u64> codec{
        .key = [](std::size_t i) { return exec::derive_seed(0x7, i); },
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

    std::vector<u64> cold;
    const auto cold_out =
        Engine{EngineOptions{.jobs = 2, .cache = cache.get()}}.map<u64>(
            kChunks, fn, cold, codec);
    EXPECT_EQ(calls.load(), kChunks);
    EXPECT_EQ(cache->stores(), kChunks);
    for (std::size_t i = 0; i < kChunks; ++i) {
        ASSERT_EQ(cold_out[i].status, JobStatus::Ok);
        EXPECT_EQ(cold[i], 1000 + i * i);
    }

    std::vector<u64> warm;
    const auto warm_out =
        Engine{EngineOptions{.jobs = 1, .cache = cache.get()}}.map<u64>(
            kChunks, fn, warm, codec);
    EXPECT_EQ(calls.load(), kChunks); // fn never ran again
    EXPECT_EQ(cache->hits(), kChunks);
    for (std::size_t i = 0; i < kChunks; ++i) {
        ASSERT_EQ(warm_out[i].status, JobStatus::Ok);
        EXPECT_EQ(warm[i], cold[i]);
    }
}
