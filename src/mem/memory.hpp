// Sparse 64-bit byte-addressable memory with region mapping.
//
// Regions model the process address-space map (text/data/heap/stack,
// shadow memory, lock_locations). An access outside every mapped region
// — or to the guard page at address 0 — raises a MemFault, which the
// Machine converts into an architectural AccessFault trap. This is what
// lets the uninstrumented "GCC" baseline of Fig. 6 detect null derefs
// while missing in-bounds-of-some-region corruption, exactly like a
// processor with an MMU.
//
// Hot path (docs/performance.md): a small 2-way set-associative
// translation cache short-circuits both the region scan and the
// page-table hash for accesses that stay on recently touched pages. An
// entry asserts that its whole page lies inside one mapped region, so
// any access contained in the page needs no further validity check;
// `host` is the page's backing store (null until the page materialises
// — loads of untouched pages observe zero). Two ways with a per-set
// round-robin victim bit fix the pathological aliasing a direct-mapped
// cache has when text and shadow pages collide on the same index (the
// shadow of a page is 4 pages away linearly, but distinct *spaces* sit
// 2^38 apart and landed on identical slots). The cache is a pure
// accelerator: it is invalidated on map_region and on page creation,
// and every miss falls back to the original region-scan + hash path,
// so behaviour is bit-identical with the cache disabled.
#pragma once

#include <array>
#include <cstring>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/bitops.hpp"

namespace hwst::mem {

using common::u16;
using common::u32;
using common::u64;
using common::u8;

/// Access kind, reported in faults and used by the cache model.
enum class Access : u8 { Read, Write, Fetch };

/// Simulated memory fault. Thrown by Memory and caught by the Machine,
/// which converts it to a Trap value (never escapes the simulator API).
struct MemFault {
    u64 addr;
    Access kind;
};

class Memory {
public:
    static constexpr u64 kPageSize = 4096;

    /// Map [base, base+size) as accessible. Overlaps are allowed (the
    /// region list is a pure validity check, not an ownership model).
    /// Invalidates the translation cache.
    void map_region(std::string name, u64 base, u64 size);

    /// True if [addr, addr+width) lies inside some mapped region and
    /// does not touch the null guard page.
    bool is_mapped(u64 addr, unsigned width) const;

    // ---- typed access (little-endian). Throws MemFault when unmapped.
    u64 load(u64 addr, unsigned width, bool sign_extend) const
    {
        const u64 off = addr & (kPageSize - 1);
        if (off + width <= kPageSize) {
            const u64 page_base = addr & ~(kPageSize - 1);
            const TlbSet& s = tlb_[tlb_slot(addr)];
            const TlbEntry* e = s.way[0].page_base == page_base
                                    ? &s.way[0]
                                    : s.way[1].page_base == page_base
                                          ? &s.way[1]
                                          : nullptr;
            if (e) {
                ++tlb_stats_.hits;
                u64 value = 0;
                if (e->host) std::memcpy(&value, e->host + off, width);
                return sign_extend
                           ? static_cast<u64>(
                                 common::sign_extend(value, 8 * width))
                           : value;
            }
        }
        return load_slow(addr, width, sign_extend);
    }

    void store(u64 addr, unsigned width, u64 value)
    {
        const u64 off = addr & (kPageSize - 1);
        if (off + width <= kPageSize) {
            const u64 page_base = addr & ~(kPageSize - 1);
            const TlbSet& s = tlb_[tlb_slot(addr)];
            const TlbEntry* e = s.way[0].page_base == page_base
                                    ? &s.way[0]
                                    : s.way[1].page_base == page_base
                                          ? &s.way[1]
                                          : nullptr;
            if (e && e->host) {
                ++tlb_stats_.hits;
                std::memcpy(e->host + off, &value, width);
                return;
            }
        }
        store_slow(addr, width, value);
    }

    u8 load_u8(u64 addr) const { return static_cast<u8>(load(addr, 1, false)); }
    u64 load_u64(u64 addr) const { return load(addr, 8, false); }
    void store_u8(u64 addr, u8 v) { store(addr, 1, v); }
    void store_u64(u64 addr, u64 v) { store(addr, 8, v); }

    /// Bulk copy-in (used by the loader); maps nothing by itself.
    void write_bytes(u64 addr, std::span<const u8> bytes);

    /// Bulk copy-out for tests and the Juliet oracle.
    std::vector<u8> read_bytes(u64 addr, u64 len) const;

    /// Total bytes of backing store actually allocated (diagnostics).
    u64 resident_bytes() const { return pages_.size() * kPageSize; }

    /// Base addresses of materialised pages inside [base, base+size)
    /// (used by the BOGO bound-table scan model).
    std::vector<u64> resident_pages_in(u64 base, u64 size) const
    {
        std::vector<u64> out;
        for (const auto& [key, page] : pages_) {
            const u64 addr = key * kPageSize;
            if (addr >= base && addr < base + size) out.push_back(addr);
        }
        return out;
    }

    // ---- translation-cache introspection (tests, diagnostics) --------
    /// Sets in the translation cache (kTlbWays entries each).
    static constexpr unsigned kTlbEntries = 64;
    static constexpr unsigned kTlbWays = 2;

    /// Translation-cache hit for addr's page without touching state?
    bool tlb_holds(u64 addr) const
    {
        const u64 page_base = addr & ~(kPageSize - 1);
        const TlbSet& s = tlb_[tlb_slot(addr)];
        return s.way[0].page_base == page_base ||
               s.way[1].page_base == page_base;
    }
    /// Drop every translation-cache entry (misses refill on demand).
    /// Victim bits reset too: invalidation restarts the round-robin.
    void tlb_invalidate() const { tlb_.fill(TlbSet{}); }

    /// Fast-path hits vs. slow-path fills for single-page accesses
    /// (multi-page straddles always bypass the cache and count as
    /// neither). Host-side observability only — never fed back into
    /// simulated state.
    struct TlbStats {
        u64 hits = 0;
        u64 misses = 0;
    };
    const TlbStats& tlb_stats() const { return tlb_stats_; }

    /// Invoked after every map_region (the region set changed, so any
    /// derived structure — e.g. the Machine's superblock cache — must
    /// revalidate). The translation cache itself is already dropped
    /// before the hook runs.
    void set_invalidation_hook(std::function<void()> hook)
    {
        invalidation_hook_ = std::move(hook);
    }

private:
    struct Region {
        std::string name;
        u64 base;
        u64 size;
    };

    /// One translation-cache entry: `page_base` is the page's base
    /// address (~0 = empty — never a valid page base since it is not
    /// page-aligned) and `host` its backing store, null while the page
    /// is unmaterialised. A present entry guarantees the whole page lies
    /// inside one mapped region.
    struct TlbEntry {
        u64 page_base = ~u64{0};
        u8* host = nullptr;
    };

    /// One set: kTlbWays entries plus the round-robin victim bit
    /// (alternates on every fill that did not refresh an existing way).
    struct TlbSet {
        TlbEntry way[kTlbWays]{};
        u8 victim = 0;
    };

    static constexpr unsigned tlb_slot(u64 addr)
    {
        return static_cast<unsigned>((addr / kPageSize) %
                                     kTlbEntries);
    }

    u8* page_for(u64 addr, bool create) const;
    void check_mapped(u64 addr, unsigned width, Access kind) const;

    /// Whole page inside one mapped region (and not the null guard)?
    bool page_fully_mapped(u64 page_base) const;

    /// Install a translation-cache entry for addr's page if the page is
    /// fully mapped; called from the slow paths after they validated
    /// the access the old way.
    void tlb_fill(u64 addr) const;

    u64 load_slow(u64 addr, unsigned width, bool sign_extend) const;
    void store_slow(u64 addr, unsigned width, u64 value);

    // Sparse page store. mutable: loads of never-written pages observe
    // zero without materialising them.
    mutable std::unordered_map<u64, std::unique_ptr<u8[]>> pages_;
    std::vector<Region> regions_;
    mutable std::size_t last_region_ = 0;
    // mutable: loads warm the translation cache too.
    mutable std::array<TlbSet, kTlbEntries> tlb_{};
    mutable TlbStats tlb_stats_{};
    std::function<void()> invalidation_hook_;
};

} // namespace hwst::mem
