#include "mem/cache.hpp"

#include <algorithm>
#include <utility>

namespace hwst::mem {

Cache::Cache(const CacheConfig& cfg) : cfg_{cfg}
{
    if (!common::is_pow2(cfg_.line_bytes) || cfg_.line_bytes < 2 ||
        !common::is_pow2(cfg_.sets) || cfg_.ways == 0) {
        throw common::ConfigError{"Cache: line/sets must be powers of two "
                                  "(line >= 2 bytes), ways nonzero"};
    }
    line_shift_ = common::clog2(cfg_.line_bytes);
    set_mask_ = cfg_.sets - 1;
    const std::size_t n = static_cast<std::size_t>(cfg_.sets) * cfg_.ways;
    line_addrs_.assign(n, kInvalid);
    lru_.assign(n, 0);
}

unsigned Cache::miss(u64 line, std::size_t base)
{
    std::size_t victim = base;
    for (std::size_t i = base; i < base + cfg_.ways; ++i) {
        if (line_addrs_[i] == kInvalid) {
            victim = i; // prefer an invalid way
        } else if (line_addrs_[victim] != kInvalid && lru_[i] < lru_[victim]) {
            victim = i;
        }
    }
    ++stats_.misses;
    last_miss_ = true;
    line_addrs_[victim] = line;
    lru_[victim] = tick_;
    return cfg_.hit_cycles + cfg_.miss_penalty;
}

bool Cache::would_hit(u64 addr) const
{
    const u64 line = addr >> line_shift_;
    const std::size_t base = set_base(line);
    for (std::size_t i = base; i < base + cfg_.ways; ++i) {
        if (line_addrs_[i] == line) return true;
    }
    return false;
}

Cache::Snapshot Cache::snapshot() const
{
    Snapshot s{{}, mru_line_};
    s.lines.reserve(line_addrs_.size());
    std::vector<std::pair<u64, u64>> set; // (tick, line) of valid ways
    for (std::size_t base = 0; base < line_addrs_.size();
         base += cfg_.ways) {
        set.clear();
        for (std::size_t i = base; i < base + cfg_.ways; ++i) {
            if (line_addrs_[i] != kInvalid)
                set.emplace_back(lru_[i], line_addrs_[i]);
        }
        std::sort(set.begin(), set.end());
        for (const auto& [tick, line] : set) s.lines.push_back(line);
        s.lines.resize(base + cfg_.ways, kInvalid);
    }
    return s;
}

void Cache::restore(const Snapshot& s)
{
    // Valid lines lead each set, least recent first, so a line's tick is
    // its position in the set (plus one: a fresh tick must exceed all).
    line_addrs_ = s.lines;
    for (std::size_t i = 0; i < lru_.size(); ++i) lru_[i] = i % cfg_.ways + 1;
    tick_ = cfg_.ways;
    mru_line_ = s.mru_line;
    last_miss_ = false;
}

void Cache::flush()
{
    // Ticks of empty ways are never compared, so lru_ needs no reset.
    line_addrs_.assign(line_addrs_.size(), kInvalid);
    mru_line_ = kInvalid;
}

} // namespace hwst::mem
