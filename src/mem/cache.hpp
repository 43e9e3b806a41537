// Set-associative D-cache *timing* model (data lives in Memory; the
// cache tracks tags only). Rocket's default L1D is 16 KiB, 4-way,
// 64-byte lines; those are the defaults here. The model feeds the
// 5-stage pipeline timing: hit = kHitCycles, miss adds a refill penalty.
#pragma once

#include <utility>
#include <vector>

#include "common/bitops.hpp"
#include "common/error.hpp"

namespace hwst::mem {

using common::u64;

struct CacheConfig {
    unsigned line_bytes = 64;
    unsigned ways = 4;
    unsigned sets = 64; // 16 KiB total with the defaults
    unsigned hit_cycles = 1;
    unsigned miss_penalty = 30; // refill from the simulated DRAM

    bool operator==(const CacheConfig&) const = default;
};

struct CacheStats {
    u64 accesses = 0;
    u64 misses = 0;
    double miss_rate() const
    {
        return accesses ? static_cast<double>(misses) /
                              static_cast<double>(accesses)
                        : 0.0;
    }
};

class Cache {
public:
    explicit Cache(const CacheConfig& cfg = {});

    /// Touch `addr`; returns the access latency in cycles and updates
    /// the set's recency order and the stats. Accesses never straddle
    /// lines in our ISA (max width 8, line 64, all accesses naturally
    /// aligned by codegen).
    ///
    /// Each set keeps its ways most recent first, and each way holds its
    /// full line address (`addr >> line_shift`), so a hit is one compare
    /// per way with no valid bit or tag split. Way 0 takes most hits
    /// (sequential fetch, a load then its store) and moves nothing; a hit
    /// at way k rotates ways 0..k by one. Only a miss goes out of line.
    unsigned access(u64 addr)
    {
        const u64 line = addr >> line_shift_;
        ++stats_.accesses;
        u64* set = &lines_[set_base(line)];
        last_miss_ = false;
        if (set[0] == line) return cfg_.hit_cycles;
        for (unsigned w = 1; w < cfg_.ways; ++w) {
            if (set[w] == line) {
                promote(set, w, line);
                return cfg_.hit_cycles;
            }
        }
        return miss(line, set);
    }

    /// `n` proven repeat hits on the line of the most recent access()
    /// (sequential fetches from one I$ line), counted without touching
    /// the set: that line is already way 0 of its set, so a hit would
    /// move nothing. Only valid when the caller has proved the accesses
    /// land on that same line. Deliberately leaves last_miss_ alone —
    /// the only consumer of last_access_missed() is the d-cache's
    /// DcacheFillData probe, and this entry point is used by the
    /// i-cache only.
    void count_repeat_hits(u64 n) { stats_.accesses += n; }

    /// Probe without updating state (diagnostics).
    bool would_hit(u64 addr) const;

    /// Whether the most recent access() missed (i.e. triggered a refill
    /// from the simulated DRAM). Lets the Machine tell fill data from
    /// hit data for the DcacheFillData fault-injection point.
    bool last_access_missed() const { return last_miss_; }

    void flush();

    const CacheConfig& config() const { return cfg_; }
    const CacheStats& stats() const { return stats_; }
    void set_stats(const CacheStats& s) { stats_ = s; }
    void reset_stats() { stats_ = {}; }

    /// The tag state every future access depends on: each set's lines
    /// most recent first, then one ~0 per empty way (empty ways always
    /// trail), so caches with equal snapshots behave alike from then on.
    /// last_access_missed() is not part of it: it is read only right
    /// after the access that set it, never across an instruction
    /// boundary, so it is not state.
    struct Snapshot {
        std::vector<u64> lines;
        bool operator==(const Snapshot&) const = default;
    };
    Snapshot snapshot() const { return Snapshot{lines_}; }
    /// Take the tag state of `s` (a snapshot of a cache with this
    /// config). Clears last_access_missed().
    void restore(const Snapshot& s)
    {
        lines_ = s.lines;
        last_miss_ = false;
    }

private:
    /// Line address of an empty way. Never a real line address:
    /// line_bytes >= 2 (enforced), so addr >> line_shift_ < 2^63.
    static constexpr u64 kInvalid = ~u64{0};

    /// Index of the first way of `line`'s set.
    std::size_t set_base(u64 line) const
    {
        return static_cast<std::size_t>(line & set_mask_) * cfg_.ways;
    }

    /// Move way `w` of `set` to the front: ways 0..w-1 shift down one
    /// and `line` becomes way 0. A carried value, not a block move: GCC
    /// turns a plain shift loop into a memmove call.
    static void promote(u64* set, unsigned w, u64 line)
    {
        u64 carry = line;
        for (unsigned k = 0; k <= w; ++k) std::swap(carry, set[k]);
    }

    /// Miss in `set`: `line` becomes way 0 and the last way drops out,
    /// an empty one if the set has any, else the least recent line.
    unsigned miss(u64 line, u64* set);

    CacheConfig cfg_;
    // line_bytes and sets are enforced powers of two, so the index
    // arithmetic is shifts and masks (these run on every access; a
    // 64-bit divide per lookup is measurable across a campaign).
    unsigned line_shift_ = 6; ///< log2(line_bytes), set in the ctor
    u64 set_mask_ = 63;       ///< sets - 1
    /// sets * ways line addresses, each set most recent first;
    /// kInvalid = empty way.
    std::vector<u64> lines_;
    CacheStats stats_;
    bool last_miss_ = false;
};

} // namespace hwst::mem
