#include "exec/cache.hpp"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>

#include "common/error.hpp"
#include "exec/job.hpp"

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

// ---- cell digest -------------------------------------------------------

// A field added to any of these structs changes its size and stops the
// build here: fold the new field into cell_digest (or, if it is
// host-only like `tier`, say so below) and update the size.
static_assert(sizeof(riscv::Instruction) == 24);
static_assert(sizeof(riscv::MemoryLayout) == 14 * sizeof(u64));
static_assert(sizeof(mem::CacheConfig) == 5 * sizeof(unsigned));
static_assert(sizeof(sim::TimingConfig) == 6 * sizeof(unsigned));
static_assert(sizeof(sim::RuntimeConfig) == 32);
static_assert(sizeof(sim::MachineConfig) == 128);

namespace {

/// SplitMix-style running digest (derive_seed), one u64 at a time.
struct Digest {
    u64 h = 0;

    void add(u64 v) { h = derive_seed(h, v); }

    void add(std::span<const common::u8> bytes)
    {
        add(bytes.size());
        std::size_t i = 0;
        for (; i + 8 <= bytes.size(); i += 8) {
            u64 w;
            std::memcpy(&w, bytes.data() + i, 8);
            add(w);
        }
        u64 tail = 0;
        if (i < bytes.size())
            std::memcpy(&tail, bytes.data() + i, bytes.size() - i);
        add(tail);
    }

    void add(const mem::CacheConfig& c)
    {
        for (const u64 v :
             {c.line_bytes, c.ways, c.sets, c.hit_cycles, c.miss_penalty})
            add(v);
    }
};

} // namespace

u64 cell_digest(const riscv::Program& program, const sim::MachineConfig& cfg)
{
    Digest d;
    const auto code = program.code();
    d.add(code.size());
    for (const riscv::Instruction& in : code) {
        d.add(static_cast<u64>(in.op) | static_cast<u64>(in.rd) << 8 |
              static_cast<u64>(in.rs1) << 16 |
              static_cast<u64>(in.rs2) << 24 |
              static_cast<u64>(in.csr) << 32);
        d.add(static_cast<u64>(in.imm));
    }
    d.add(program.data());
    d.add(program.entry_addr());
    const riscv::MemoryLayout& l = program.layout();
    for (const u64 v :
         {l.text_base, l.data_base, l.heap_base, l.heap_size, l.stack_top,
          l.stack_size, l.shadow_offset, l.lock_base, l.lock_entries,
          l.sw_arg_base, l.sw_arg_size, l.sw_meta_offset, l.sw_l2_offset,
          l.asan_shadow_offset})
        d.add(v);

    // Every simulated MachineConfig field; `tier` is host-only.
    d.add(cfg.dcache);
    d.add(cfg.icache);
    d.add(cfg.icache_enabled);
    d.add(cfg.keybuffer_entries);
    d.add(cfg.keybuffer_enabled);
    d.add(cfg.fuel);
    const sim::TimingConfig& t = cfg.timing;
    for (const u64 v : {t.branch_taken_penalty, t.load_use_stall,
                        t.mul_extra, t.div_extra, t.csr_extra, t.ecall_cost})
        d.add(v);
    const sim::RuntimeConfig& r = cfg.runtime;
    for (const u64 v :
         {r.asan_redzone, static_cast<u64>(r.quarantine),
          r.quarantine_bytes, static_cast<u64>(r.libc_free_aborts),
          static_cast<u64>(r.init_sw_trie)})
        d.add(v);
    return d.h;
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

// ---- the store ---------------------------------------------------------

namespace {

std::string read_file(const fs::path& path)
{
    std::ifstream in{path, std::ios::binary};
    if (!in) return {};
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
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

u64 cell_address(u64 digest, const std::string& git_rev)
{
    return derive_seed(digest, fnv1a(git_rev),
                       static_cast<u64>(kCacheVersion));
}

/// "<16 hex digits>.json": hash_hex without its "0x".
std::string cell_name(u64 address)
{
    return hash_hex(address).substr(2) + ".json";
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

u64 ResultCache::address(u64 digest) const
{
    return cell_address(digest, opts_.git_rev);
}

std::string ResultCache::cell_path(u64 address) const
{
    return (fs::path{opts_.root} / "cells" / cell_name(address)).string();
}

std::optional<json::Value> ResultCache::load(u64 digest)
{
    std::optional<json::Value> payload;
    try {
        const std::string text = read_file(cell_path(address(digest)));
        if (!text.empty()) {
            json::Value v = json::Value::parse(text);
            if (v.at("cache_version").as_int() == kCacheVersion &&
                v.at("git_rev").as_string() == opts_.git_rev &&
                v.at("digest").as_string() == hash_hex(digest))
                payload = v.at("payload");
        }
    } catch (const std::exception&) {
        payload.reset(); // torn or foreign cell: a miss
    }
    (payload ? hits_ : misses_).fetch_add(1, std::memory_order_relaxed);
    return payload;
}

void ResultCache::store(u64 digest, const json::Value& payload)
{
    json::Value cell = json::Value::object();
    cell["cache_version"] = kCacheVersion;
    cell["git_rev"] = opts_.git_rev;
    cell["digest"] = hash_hex(digest);
    cell["payload"] = payload;
    const std::string text = cell.dump(2) + "\n";
    const u64 addr = address(digest);
    const fs::path temp =
        fs::path{opts_.root} / "tmp" /
        (hash_hex(addr).substr(2) + "." +
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
    fs::rename(temp, cell_path(addr), ec);
    if (ec) {
        std::cerr << "[cache] cannot publish " << cell_path(addr) << ": "
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
            const auto v = json::Value::parse(read_file(e.path()));
            if (v.at("cache_version").as_int() != kCacheVersion)
                throw common::ToolchainError{
                    "cache_version " +
                    std::to_string(v.at("cache_version").as_int())};
            const std::string& git_rev = v.at("git_rev").as_string();
            const u64 digest = static_cast<u64>(
                std::stoull(v.at("digest").as_string(), nullptr, 16));
            // The digest and git_rev must re-hash to the file's own
            // name: a renamed or hand-edited cell is invalid, not stale.
            if (cell_name(cell_address(digest, git_rev)) != name)
                throw common::ToolchainError{"address mismatch"};
            if (v.at("payload").is_null())
                throw common::ToolchainError{"empty payload"};
            if (!expect_rev.empty() && git_rev != expect_rev) {
                ++audit.stale;
                audit.problems.push_back("stale cell " + name +
                                         ": git_rev " + git_rev + " != " +
                                         expect_rev);
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
