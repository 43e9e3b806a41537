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
// — loads of untouched pages observe zero). The set comes from a
// multiplicative hash of the page number, not its low bits: the
// layout's hottest pages (the stack top, its Eq. 1 shadow
// `(addr << 2) + offset` and the lock region's top) all have page
// numbers ending in six one bits, so `page mod sets` put them in one
// set, where they thrashed its two ways. Two ways with a per-set
// round-robin victim bit absorb the rest of the aliasing. The cache is
// a pure accelerator: it is invalidated on map_region and on page
// creation, and every miss falls back to the original region-scan +
// hash path, so behaviour is bit-identical with the cache disabled.
#pragma once

#include <array>
#include <cstring>
#include <initializer_list>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/bitops.hpp"
#include "common/shared.hpp"

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

    struct Region {
        std::string name;
        u64 base;
        u64 size;
        bool operator==(const Region&) const = default;
    };

    /// One page's contents as its nonzero 8-byte words (simulated pages
    /// are mostly zero: shadow slots, stack, tables).
    struct PageWords {
        std::array<u64, kPageSize / 8 / 64> mask{}; ///< bit w: word w != 0
        std::vector<u64> words; ///< the nonzero words, in address order
        bool operator==(const PageWords&) const = default;
    };

    /// Contents of every materialised page, ordered by page number.
    struct PageImage {
        std::vector<u64> keys;  ///< page numbers (addr / kPageSize)
        std::vector<u8> bytes;  ///< kPageSize bytes per key, same order
        bool operator==(const PageImage&) const = default;
    };

    /// The same as immutable values that snapshots can share
    /// (golden-prefix checkpoints).
    struct SharedPages {
        std::vector<u64> keys; ///< page numbers, ascending
        std::vector<common::Shared<PageWords>> pages; ///< same order
    };

    /// Map [base, base+size) as accessible. Overlaps are allowed (the
    /// region list is a pure validity check, not an ownership model).
    /// Invalidates the translation cache.
    void map_region(std::string name, u64 base, u64 size)
    {
        map_regions({Region{std::move(name), base, size}});
    }

    /// Map several regions at once: one translation-cache invalidation
    /// for the whole batch.
    void map_regions(std::initializer_list<Region> regions);

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
                const u64 value =
                    e->host ? read_host(e->host + off, width) : 0;
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
                write_host(e->host + off, width, value);
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

    /// The backing store of addr's page, materialised (zeroed) if it
    /// does not exist yet: the loader encodes text straight into it.
    /// Maps nothing by itself.
    u8* materialize_page(u64 addr) { return page_for(addr, true); }

    /// Bulk copy-out for tests and the Juliet oracle.
    std::vector<u8> read_bytes(u64 addr, u64 len) const;

    /// Total bytes of backing store actually allocated (diagnostics).
    u64 resident_bytes() const { return pages_.size() * kPageSize; }
    std::size_t resident_pages() const { return pages_.size(); }
    PageImage page_image() const;
    /// Every materialised page. A page equal to the one `share` holds
    /// for the same page number reuses that one.
    SharedPages shared_pages(const SharedPages* share) const;
    const std::vector<Region>& regions() const { return regions_; }

    /// True if the region map and the materialised pages are exactly
    /// `regions` and `pages` (checkpoint comparison), compared in place.
    bool holds(const std::vector<Region>& regions,
               const SharedPages& pages) const;

    /// Replace the region map and every page with the given ones
    /// (checkpoint restore). Drops the translation cache.
    void restore(const std::vector<Region>& regions,
                 const SharedPages& pages);

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
    static constexpr unsigned kTlbSetBits = 6;
    static constexpr unsigned kTlbEntries = 1u << kTlbSetBits;
    static constexpr unsigned kTlbWays = 2;

    /// The translation-cache set of addr's page: the top kTlbSetBits
    /// bits of the page number times 2^64 / phi (Fibonacci hashing).
    static constexpr unsigned tlb_slot(u64 addr)
    {
        return static_cast<unsigned>((addr / kPageSize) *
                                         0x9E37'79B9'7F4A'7C15ull >>
                                     (64 - kTlbSetBits));
    }

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

private:
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

    /// A little-endian access of `width` <= 8 bytes to host memory. The
    /// checked ops pass their width at run time, and GCC expands a
    /// memcpy of a run-time size into a `rep movsq` sequence for 8 bytes
    /// or more, which made every `csd` several times dearer than `csw`
    /// on the dispatcher. Width 8 therefore gets a constant-size move.
    static u64 read_host(const u8* src, unsigned width)
    {
        u64 v = 0;
        if (width == 8) std::memcpy(&v, src, 8);
        else std::memcpy(&v, src, width);
        return v;
    }
    static void write_host(u8* dst, unsigned width, u64 v)
    {
        if (width == 8) std::memcpy(dst, &v, 8);
        else std::memcpy(dst, &v, width);
    }

    u8* page_for(u64 addr, bool create) const;
    void check_mapped(u64 addr, unsigned width, Access kind) const;

    /// Whole page inside one mapped region (and not the null guard)?
    bool page_fully_mapped(u64 page_base) const;

    /// Install a translation-cache entry for addr's page, backed by
    /// `host` (the page's store, or null while unmaterialised), if the
    /// page is fully mapped; called from the slow paths after they
    /// validated the access the old way.
    void tlb_fill(u64 addr, u8* host) const;

    u64 load_slow(u64 addr, unsigned width, bool sign_extend) const;
    void store_slow(u64 addr, unsigned width, u64 value);

    // Sparse page store. mutable: loads of never-written pages observe
    // zero without materialising them.
    mutable std::unordered_map<u64, std::unique_ptr<u8[]>> pages_;
    std::vector<Region> regions_;
    mutable std::size_t last_region_ = 0;
    // mutable: loads warm the translation cache too.
    mutable std::array<TlbSet, kTlbEntries> tlb_{};
};

} // namespace hwst::mem
