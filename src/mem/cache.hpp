// Set-associative D-cache *timing* model (data lives in Memory; the
// cache tracks tags only). Rocket's default L1D is 16 KiB, 4-way,
// 64-byte lines; those are the defaults here. The model feeds the
// 5-stage pipeline timing: hit = kHitCycles, miss adds a refill penalty.
#pragma once

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
    /// LRU/stats. Accesses never straddle lines in our ISA (max width 8,
    /// line 64, all accesses naturally aligned by codegen).
    ///
    /// Each way holds its full line address (`addr >> line_shift`), so
    /// a hit is one compare per way with no valid bit or tag split, and
    /// the scan is inline; only a miss goes out of line. In front of the
    /// scan, a repeat of the most recent access's line (sequential fetch,
    /// a load then its store) counts a hit without touching the set: that
    /// line is already the most recent in its set, so skipping its LRU
    /// bump keeps the set's recency order, and with it every eviction.
    unsigned access(u64 addr)
    {
        const u64 line = addr >> line_shift_;
        ++stats_.accesses;
        if (line == mru_line_) {
            last_miss_ = false;
            return cfg_.hit_cycles;
        }
        mru_line_ = line;
        ++tick_;
        const std::size_t base = set_base(line);
        const u64* ways = &line_addrs_[base];
        for (unsigned w = 0; w < cfg_.ways; ++w) {
            if (ways[w] == line) {
                lru_[base + w] = tick_;
                last_miss_ = false;
                return cfg_.hit_cycles;
            }
        }
        return miss(line, base);
    }

    /// `n` proven repeat hits on the line of the most recent access()
    /// (one superblock's worth of sequential fetches), counted without
    /// re-touching the line. Only valid when the caller has proved the
    /// accesses land on that same line: the line is present and already
    /// the most recent in its set, so skipping the LRU bump preserves
    /// the set's recency *order* and therefore every future eviction.
    /// Deliberately leaves last_miss_ alone — the only consumer of
    /// last_access_missed() is the d-cache's DcacheFillData probe, and
    /// this entry point is used by the i-cache only.
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
    /// in LRU rank order, least recent first, then one ~0 per empty way.
    /// Raw ticks only grow, and way positions are never observable (a
    /// hit matches by address; a miss fills an empty way or the least
    /// recent one), so caches with equal snapshots behave alike from
    /// then on.
    /// last_access_missed() is not part of it: it is read only right
    /// after the access that set it, never across an instruction
    /// boundary, so it is not state.
    struct Snapshot {
        std::vector<u64> lines;
        u64 mru_line = 0;
        bool operator==(const Snapshot&) const = default;
    };
    Snapshot snapshot() const;
    /// Take the tag state of `s` (a snapshot of a cache with this
    /// config): each set's lines get ticks in their rank order, so the
    /// cache behaves from here on exactly like the one snapshotted.
    /// Clears last_access_missed().
    void restore(const Snapshot& s);

private:
    /// Line address of an empty way. Never a real line address:
    /// line_bytes >= 2 (enforced), so addr >> line_shift_ < 2^63.
    static constexpr u64 kInvalid = ~u64{0};

    /// Index of the first way of `line`'s set.
    std::size_t set_base(u64 line) const
    {
        return static_cast<std::size_t>(line & set_mask_) * cfg_.ways;
    }

    /// Miss in the set starting at `base`: fill the victim way (the last
    /// invalid way, else the strictly least recent) with `line`.
    unsigned miss(u64 line, std::size_t base);

    CacheConfig cfg_;
    // line_bytes and sets are enforced powers of two, so the index
    // arithmetic is shifts and masks (these run on every access; a
    // 64-bit divide per lookup is measurable across a campaign).
    unsigned line_shift_ = 6; ///< log2(line_bytes), set in the ctor
    u64 set_mask_ = 63;       ///< sets - 1
    std::vector<u64> line_addrs_; ///< sets * ways; kInvalid = empty way
    std::vector<u64> lru_;        ///< parallel ticks; larger = more recent
    CacheStats stats_;
    u64 tick_ = 0;
    bool last_miss_ = false;
    /// Line of the most recent access() (kInvalid after flush): always
    /// present, since nothing has been filled since it was touched.
    u64 mru_line_ = kInvalid;
};

} // namespace hwst::mem
