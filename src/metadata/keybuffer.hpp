// Keybuffer (paper §3.5): a small TLB-like, fully-associative cache of
// the most recently loaded lock_location -> key pairs. When tchk
// executes and the pointer's lock hits the keybuffer, the buffered key
// is compared instead of loading the lock_location from the D-cache —
// removing the extra memory access that makes temporal checks expensive.
//
// Coherence: "the keybuffer will be cleared whenever a pointer has been
// freed" — the free wrapper's store of key 0 to the lock_location (or
// the explicit kbflush instruction) clears the whole buffer, so the
// buffer always holds live temporal metadata.
#pragma once

#include <optional>
#include <vector>

#include "common/bitops.hpp"
#include "common/error.hpp"

namespace hwst::metadata {

using common::u64;

struct KeybufferStats {
    u64 lookups = 0;
    u64 hits = 0;
    u64 flushes = 0;

    double hit_rate() const
    {
        return lookups ? static_cast<double>(hits) /
                             static_cast<double>(lookups)
                       : 0.0;
    }
};

class Keybuffer {
public:
    explicit Keybuffer(unsigned entries = 8) : capacity_{entries}
    {
        if (entries == 0)
            throw common::ConfigError{"Keybuffer: need at least one entry"};
        slots_.reserve(entries);
    }

    /// Look up the key cached for `lock`. Hit refreshes LRU order.
    std::optional<u64> lookup(u64 lock)
    {
        ++stats_.lookups;
        for (Slot& s : slots_) {
            if (s.lock == lock) {
                ++stats_.hits;
                s.lru = ++tick_;
                return s.key;
            }
        }
        return std::nullopt;
    }

    /// Record a key just loaded from its lock_location (fills on miss).
    void insert(u64 lock, u64 key)
    {
        for (Slot& s : slots_) {
            if (s.lock == lock) {
                s.key = key;
                s.lru = ++tick_;
                return;
            }
        }
        if (slots_.size() < capacity_) {
            slots_.push_back(Slot{lock, key, ++tick_});
            return;
        }
        Slot* victim = &slots_.front();
        for (Slot& s : slots_) {
            if (s.lru < victim->lru) victim = &s;
        }
        *victim = Slot{lock, key, ++tick_};
    }

    /// Clear everything (free wrapper / kbflush instruction / snooped
    /// store into the lock region).
    void flush()
    {
        slots_.clear();
        ++stats_.flushes;
    }

    /// Flip bits of the key cached in occupied slot `i` (SEU injection —
    /// fault tooling). Returns false if the slot is empty.
    bool corrupt_slot(std::size_t i, u64 key_flip)
    {
        if (i >= slots_.size()) return false;
        slots_[i].key ^= key_flip;
        return true;
    }

    unsigned capacity() const { return capacity_; }
    std::size_t size() const { return slots_.size(); }
    const KeybufferStats& stats() const { return stats_; }
    void set_stats(const KeybufferStats& s) { stats_ = s; }
    void reset_stats() { stats_ = {}; }

    /// One occupied slot with its LRU tick replaced by its rank among
    /// the occupied slots (0 = least recent): ticks only grow, while
    /// the victim choice depends only on their order.
    struct RankedSlot {
        u64 lock;
        u64 key;
        unsigned rank;
        bool operator==(const RankedSlot&) const = default;
    };
    /// The occupied slots in slot order: all state a later lookup,
    /// insert or flush depends on.
    std::vector<RankedSlot> ranked_slots() const
    {
        std::vector<RankedSlot> out;
        out.reserve(slots_.size());
        for (const Slot& s : slots_) {
            unsigned rank = 0;
            for (const Slot& o : slots_) rank += o.lru < s.lru;
            out.push_back(RankedSlot{s.lock, s.key, rank});
        }
        return out;
    }
    /// Take the occupied slots of `slots` (ranked_slots() of a buffer
    /// with this capacity), ticks replaced by ranks.
    void restore(const std::vector<RankedSlot>& slots)
    {
        slots_.clear();
        for (const RankedSlot& s : slots)
            slots_.push_back(Slot{s.lock, s.key, u64{s.rank} + 1});
        tick_ = slots_.size();
    }

private:
    struct Slot {
        u64 lock;
        u64 key;
        u64 lru;
    };

    unsigned capacity_;
    std::vector<Slot> slots_;
    KeybufferStats stats_;
    u64 tick_ = 0;
};

} // namespace hwst::metadata
