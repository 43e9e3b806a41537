#include "mem/cache.hpp"

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
    lines_.assign(static_cast<std::size_t>(cfg_.sets) * cfg_.ways, kInvalid);
}

unsigned Cache::miss(u64 line, u64* set)
{
    // Empty ways trail the valid ones, so the last way is the victim
    // either way.
    promote(set, cfg_.ways - 1, line);
    ++stats_.misses;
    last_miss_ = true;
    return cfg_.hit_cycles + cfg_.miss_penalty;
}

bool Cache::would_hit(u64 addr) const
{
    const u64 line = addr >> line_shift_;
    const u64* set = &lines_[set_base(line)];
    for (unsigned w = 0; w < cfg_.ways; ++w) {
        if (set[w] == line) return true;
    }
    return false;
}

void Cache::flush() { lines_.assign(lines_.size(), kInvalid); }

} // namespace hwst::mem
