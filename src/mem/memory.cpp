#include "mem/memory.hpp"

#include <algorithm>
#include <array>

#include "common/error.hpp"

namespace hwst::mem {

void Memory::map_regions(std::initializer_list<Region> regions)
{
    for (const Region& r : regions)
        if (r.size == 0) throw common::ConfigError{"map_region: empty region"};
    regions_.insert(regions_.end(), regions.begin(), regions.end());
    // The region set changed: cached full-page validity claims may be
    // stale relative to the new layout. Refill on demand.
    tlb_invalidate();
    if (invalidation_hook_) invalidation_hook_();
}

bool Memory::is_mapped(u64 addr, unsigned width) const
{
    if (addr < kPageSize) return false; // null guard page
    const u64 end = addr + width;
    if (end < addr) return false; // wrap
    // Hot path: most accesses hit the same region as the previous one.
    if (last_region_ < regions_.size()) {
        const Region& r = regions_[last_region_];
        if (addr >= r.base && end <= r.base + r.size) return true;
    }
    for (std::size_t i = 0; i < regions_.size(); ++i) {
        const Region& r = regions_[i];
        if (addr >= r.base && end <= r.base + r.size) {
            last_region_ = i;
            return true;
        }
    }
    return false;
}

void Memory::check_mapped(u64 addr, unsigned width, Access kind) const
{
    if (!is_mapped(addr, width)) throw MemFault{addr, kind};
}

bool Memory::page_fully_mapped(u64 page_base) const
{
    if (page_base < kPageSize) return false; // null guard page
    for (const Region& r : regions_) {
        if (page_base >= r.base &&
            page_base + kPageSize <= r.base + r.size)
            return true;
    }
    return false;
}

void Memory::tlb_fill(u64 addr, u8* host) const
{
    const u64 page_base = addr & ~(kPageSize - 1);
    if (!page_fully_mapped(page_base)) return;
    TlbSet& s = tlb_[tlb_slot(addr)];
    // Refresh an existing way in place (a straddling access may have
    // taken the slow path for a page that is already cached; minting a
    // duplicate entry would let the two copies disagree about `host`).
    for (TlbEntry& w : s.way) {
        if (w.page_base == page_base) {
            w.host = host;
            return;
        }
    }
    s.way[s.victim] = TlbEntry{page_base, host};
    s.victim ^= 1;
}

u8* Memory::page_for(u64 addr, bool create) const
{
    const u64 key = addr / kPageSize;
    const auto it = pages_.find(key);
    if (it != pages_.end()) return it->second.get();
    if (!create) return nullptr;
    auto page = std::make_unique<u8[]>(kPageSize);
    u8* raw = page.get();
    pages_.emplace(key, std::move(page));
    // First touch: a cached entry for this page (if any) still claims
    // host == null; drop it so the next access picks up the backing
    // store. Only the matching way — its set neighbour is a different
    // page and stays valid.
    const u64 page_base = addr & ~(kPageSize - 1);
    for (TlbEntry& w : tlb_[tlb_slot(addr)].way) {
        if (w.page_base == page_base) w = TlbEntry{};
    }
    return raw;
}

u64 Memory::load_slow(u64 addr, unsigned width, bool do_sign_extend) const
{
    check_mapped(addr, width, Access::Read);
    const u64 off = addr & (kPageSize - 1);
    u64 value = 0;
    if (off + width <= kPageSize) {
        // Translation-cache miss on a single-page access: one page
        // lookup serves both the copy and the refill.
        u8* page = page_for(addr, false);
        if (page) value = read_host(page + off, width);
        tlb_fill(addr, page);
    } else {
        // Page straddle: never cacheable, assembled byte by byte.
        for (unsigned i = 0; i < width; ++i) {
            const u64 a = addr + i;
            const u8* page = page_for(a, false);
            const u64 byte = page ? page[a % kPageSize] : 0;
            value |= byte << (8 * i);
        }
    }
    return do_sign_extend
               ? static_cast<u64>(common::sign_extend(value, 8 * width))
               : value;
}

void Memory::store_slow(u64 addr, unsigned width, u64 value)
{
    check_mapped(addr, width, Access::Write);
    const u64 off = addr & (kPageSize - 1);
    if (off + width <= kPageSize) {
        u8* page = page_for(addr, true);
        write_host(page + off, width, value);
        tlb_fill(addr, page);
        return;
    }
    for (unsigned i = 0; i < width; ++i) {
        const u64 a = addr + i;
        u8* page = page_for(a, true);
        page[a % kPageSize] = static_cast<u8>(value >> (8 * i));
    }
}

void Memory::write_bytes(u64 addr, std::span<const u8> bytes)
{
    // One page lookup per touched page, not per byte.
    std::size_t i = 0;
    while (i < bytes.size()) {
        const u64 a = addr + i;
        const u64 off = a & (kPageSize - 1);
        const u64 chunk =
            std::min<u64>(kPageSize - off, bytes.size() - i);
        u8* page = page_for(a, true);
        std::memcpy(page + off, bytes.data() + i, chunk);
        i += chunk;
    }
}

namespace {

constexpr unsigned kPageWordCount = Memory::kPageSize / 8;

Memory::PageWords encode_page(const u8* page)
{
    // One branch-free pass: every word goes to buf, and only a nonzero
    // one advances n.
    std::array<u64, kPageWordCount> buf;
    Memory::PageWords p;
    std::size_t n = 0;
    for (unsigned w = 0; w < kPageWordCount; ++w) {
        u64 v = 0;
        std::memcpy(&v, page + 8 * w, 8);
        buf[n] = v;
        const u64 nonzero = v != 0;
        p.mask[w / 64] |= nonzero << (w % 64);
        n += nonzero;
    }
    p.words.assign(buf.begin(), buf.begin() + static_cast<std::ptrdiff_t>(n));
    return p;
}

void decode_page(const Memory::PageWords& p, u8* page)
{
    std::memset(page, 0, Memory::kPageSize);
    std::size_t k = 0;
    for (unsigned w = 0; w < kPageWordCount; ++w) {
        if (p.mask[w / 64] >> (w % 64) & 1)
            std::memcpy(page + 8 * w, &p.words[k++], 8);
    }
}

} // namespace

Memory::PageImage Memory::page_image() const
{
    PageImage img;
    img.keys.reserve(pages_.size());
    for (const auto& kv : pages_) img.keys.push_back(kv.first);
    std::sort(img.keys.begin(), img.keys.end());
    img.bytes.resize(img.keys.size() * kPageSize);
    for (std::size_t i = 0; i < img.keys.size(); ++i) {
        std::memcpy(img.bytes.data() + i * kPageSize,
                    pages_.find(img.keys[i])->second.get(), kPageSize);
    }
    return img;
}

Memory::SharedPages Memory::shared_pages(const SharedPages* share) const
{
    SharedPages out;
    out.keys.reserve(pages_.size());
    for (const auto& kv : pages_) out.keys.push_back(kv.first);
    std::sort(out.keys.begin(), out.keys.end());
    out.pages.reserve(out.keys.size());
    std::size_t j = 0; // both key lists ascend
    for (const u64 key : out.keys) {
        PageWords page = encode_page(pages_.find(key)->second.get());
        if (share) {
            while (j < share->keys.size() && share->keys[j] < key) ++j;
            if (j < share->keys.size() && share->keys[j] == key &&
                *share->pages[j] == page) {
                out.pages.push_back(share->pages[j]);
                continue;
            }
        }
        out.pages.emplace_back(std::move(page));
    }
    return out;
}

void Memory::restore(const std::vector<Region>& regions,
                     const SharedPages& pages)
{
    regions_ = regions;
    last_region_ = 0;
    pages_.clear();
    for (std::size_t i = 0; i < pages.keys.size(); ++i) {
        auto page = std::make_unique<u8[]>(kPageSize);
        decode_page(*pages.pages[i], page.get());
        pages_.emplace(pages.keys[i], std::move(page));
    }
    tlb_invalidate();
}

std::vector<u8> Memory::read_bytes(u64 addr, u64 len) const
{
    std::vector<u8> out(len, 0);
    u64 i = 0;
    while (i < len) {
        const u64 a = addr + i;
        const u64 off = a & (kPageSize - 1);
        const u64 chunk = std::min<u64>(kPageSize - off, len - i);
        if (const u8* page = page_for(a, false))
            std::memcpy(out.data() + i, page + off, chunk);
        i += chunk;
    }
    return out;
}

} // namespace hwst::mem
