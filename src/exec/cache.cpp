#include "exec/cache.hpp"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>

#include "common/error.hpp"
#include "compiler/scheme.hpp"
#include "exec/envelope.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <unistd.h>
#define HWST_CACHE_POSIX 1
#endif

namespace hwst::exec {

namespace fs = std::filesystem;

u64 fnv1a(std::string_view s)
{
    u64 h = 0xCBF29CE484222325ULL;
    for (const unsigned char c : s) {
        h ^= c;
        h *= 0x100000001B3ULL;
    }
    return h;
}

std::string hash_hex(u64 h)
{
    char buf[19];
    std::snprintf(buf, sizeof buf, "0x%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

u64 config_revision_hash()
{
    u64 h = derive_seed(static_cast<u64>(kConfigRevision),
                        static_cast<u64>(kCacheVersion));
    for (const compiler::Scheme s : compiler::kAllSchemes)
        h = derive_seed(h, fnv1a(compiler::scheme_name(s)));
    // Defaults a grid's coordinates never name but its simulated
    // numbers depend on: a change here must invalidate stale cache
    // cells even when the grid shape is unchanged.
    const sim::MachineConfig def{};
    h = derive_seed(h, def.dcache.sets, def.dcache.ways,
                    def.dcache.line_bytes, def.icache.sets,
                    def.icache.ways, def.icache.line_bytes,
                    static_cast<u64>(def.icache_enabled),
                    def.keybuffer_entries,
                    static_cast<u64>(def.keybuffer_enabled), def.fuel);
    return h;
}

u64 grid_fingerprint(std::span<const Job> jobs, u64 root_seed,
                     std::string_view config_desc)
{
    u64 h = derive_seed(root_seed, jobs.size(), config_revision_hash(),
                        fnv1a(config_desc));
    for (const Job& j : jobs) {
        h = derive_seed(h, fnv1a(j.key.empty() ? j.name : j.key),
                        fnv1a(j.workload), fnv1a(j.scheme), j.seed);
    }
    return h;
}

u64 grid_fingerprint(std::string_view grid_desc, u64 root_seed)
{
    return derive_seed(root_seed, fnv1a(grid_desc),
                       config_revision_hash());
}

// ---- serialization -----------------------------------------------------

json::Value result_to_json(const sim::RunResult& r)
{
    json::Value v = json::Value::object();
    json::Value trap = json::Value::object();
    trap["kind"] = static_cast<int>(r.trap.kind);
    trap["addr"] = r.trap.addr;
    trap["pc"] = r.trap.pc;
    v["trap"] = trap;
    v["exit_code"] = r.exit_code;
    v["cycles"] = r.cycles;
    v["instret"] = r.instret;
    json::Value out = json::Value::array();
    for (const auto x : r.output) out.push_back(x);
    v["output"] = out;
    json::Value dc = json::Value::array();
    dc.push_back(r.dcache.accesses);
    dc.push_back(r.dcache.misses);
    v["dcache"] = dc;
    json::Value ic = json::Value::array();
    ic.push_back(r.icache.accesses);
    ic.push_back(r.icache.misses);
    v["icache"] = ic;
    json::Value kb = json::Value::array();
    kb.push_back(r.keybuffer.lookups);
    kb.push_back(r.keybuffer.hits);
    kb.push_back(r.keybuffer.flushes);
    v["keybuffer"] = kb;
    v["scu_checks"] = r.scu_checks;
    v["tcu_checks"] = r.tcu_checks;
    v["scu_saturated"] = r.scu_saturated;
    v["tcu_saturated"] = r.tcu_saturated;
    v["smac_translations"] = r.smac_translations;
    json::Value mix = json::Value::array();
    for (const u64 x :
         {r.mix.alu, r.mix.loads, r.mix.stores, r.mix.checked_loads,
          r.mix.checked_stores, r.mix.meta_moves, r.mix.binds, r.mix.tchk,
          r.mix.branches, r.mix.jumps, r.mix.ecalls, r.mix.other})
        mix.push_back(x);
    v["mix"] = mix;
    return v;
}

namespace {

u64 get_u64(const json::Value& v, std::string_view key)
{
    return static_cast<u64>(v.at(key).as_int());
}

void expect_items(const json::Value& v, std::string_view what,
                  std::size_t n)
{
    if (!v.is_array() || v.size() != n)
        throw json::JsonError{std::string{what} + ": expected " +
                              std::to_string(n) + "-element array"};
}

} // namespace

sim::RunResult result_from_json(const json::Value& v)
{
    sim::RunResult r;
    const json::Value& trap = v.at("trap");
    const auto kind = trap.at("kind").as_int();
    if (kind < 0 ||
        kind > static_cast<json::i64>(hwst::TrapKind::FuelExhausted))
        throw json::JsonError{"trap.kind out of range: " +
                              std::to_string(kind)};
    r.trap.kind = static_cast<hwst::TrapKind>(kind);
    r.trap.addr = get_u64(trap, "addr");
    r.trap.pc = get_u64(trap, "pc");
    r.exit_code = v.at("exit_code").as_int();
    r.cycles = get_u64(v, "cycles");
    r.instret = get_u64(v, "instret");
    for (const json::Value& x : v.at("output").items())
        r.output.push_back(x.as_int());
    const json::Value& dc = v.at("dcache");
    expect_items(dc, "dcache", 2);
    r.dcache.accesses = static_cast<u64>(dc.items()[0].as_int());
    r.dcache.misses = static_cast<u64>(dc.items()[1].as_int());
    const json::Value& ic = v.at("icache");
    expect_items(ic, "icache", 2);
    r.icache.accesses = static_cast<u64>(ic.items()[0].as_int());
    r.icache.misses = static_cast<u64>(ic.items()[1].as_int());
    const json::Value& kb = v.at("keybuffer");
    expect_items(kb, "keybuffer", 3);
    r.keybuffer.lookups = static_cast<u64>(kb.items()[0].as_int());
    r.keybuffer.hits = static_cast<u64>(kb.items()[1].as_int());
    r.keybuffer.flushes = static_cast<u64>(kb.items()[2].as_int());
    r.scu_checks = get_u64(v, "scu_checks");
    r.tcu_checks = get_u64(v, "tcu_checks");
    r.scu_saturated = get_u64(v, "scu_saturated");
    r.tcu_saturated = get_u64(v, "tcu_saturated");
    r.smac_translations = get_u64(v, "smac_translations");
    const json::Value& mix = v.at("mix");
    expect_items(mix, "mix", 12);
    u64* const fields[] = {
        &r.mix.alu,   &r.mix.loads,  &r.mix.stores, &r.mix.checked_loads,
        &r.mix.checked_stores, &r.mix.meta_moves, &r.mix.binds,
        &r.mix.tchk,  &r.mix.branches, &r.mix.jumps, &r.mix.ecalls,
        &r.mix.other};
    for (std::size_t i = 0; i < 12; ++i)
        *fields[i] = static_cast<u64>(mix.items()[i].as_int());
    return r;
}

json::Value outcome_to_record(const std::string& key,
                              const JobOutcome& outcome)
{
    json::Value v = json::Value::object();
    v["key"] = key;
    v["status"] = job_status_name(outcome.status);
    v["wall_ms"] = outcome.wall_ms;
    if (outcome.status == JobStatus::Ok)
        v["result"] = result_to_json(outcome.result);
    else
        v["error"] = outcome.error;
    if (!outcome.aux.is_null()) v["aux"] = outcome.aux;
    return v;
}

std::pair<std::string, JobOutcome> outcome_from_record(const json::Value& v)
{
    const std::string& key = v.at("key").as_string();
    if (key.empty()) throw json::JsonError{"record with empty key"};
    JobOutcome out;
    const auto status = job_status_from_name(v.at("status").as_string());
    if (!status)
        throw json::JsonError{"unknown status: " +
                              v.at("status").as_string()};
    out.status = *status;
    out.wall_ms = v.at("wall_ms").as_double();
    if (out.status == JobStatus::Ok)
        out.result = result_from_json(v.at("result"));
    else
        out.error = v.at("error").as_string();
    if (const json::Value* aux = v.find("aux")) out.aux = *aux;
    return {key, std::move(out)};
}

// ---- the store ---------------------------------------------------------

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
    hits_.fetch_add(1, std::memory_order_relaxed);
    return outcome;
}

void ResultCache::store(const CellKey& key, const JobOutcome& outcome)
{
    if (outcome.status != JobStatus::Ok) return;
    const std::string text = cell_to_json(key, outcome).dump(2) + "\n";
    const u64 address = key.address();
    const fs::path temp =
        fs::path{opts_.root} / "tmp" /
        (hash_hex(address).substr(2) + "." +
         std::to_string(
#ifdef HWST_CACHE_POSIX
             static_cast<long>(::getpid())
#else
             0L
#endif
                 ) +
         "." + std::to_string(temp_counter_.fetch_add(1)));
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
}

json::Value ResultCache::stats_json() const
{
    json::Value v = json::Value::object();
    v["root"] = opts_.root;
    v["hits"] = hits();
    v["misses"] = misses();
    v["stores"] = stores();
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
    auto cache = std::make_shared<ResultCache>(CacheOptions{
        .root = std::move(root),
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
