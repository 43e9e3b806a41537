// Heap and lock_location allocators backing the simulated runtime.
//
// HeapAllocator is a first-fit free-list allocator over the simulated
// heap region (the libc malloc the paper's wrappers intercept).
// Bookkeeping lives host-side; the simulated program only sees
// addresses, so allocator state is immune to simulated corruption —
// matching the paper's threat model ("the adversary cannot corrupt the
// metadata").
//
// LockAllocator implements §3.4: every allocation gets a fresh
// lock_location (an 8-byte slot in the lock region) holding a unique,
// never-reused key. Freeing recycles the slot but never the key, so a
// stale pointer's key can never match a later allocation's key.
#pragma once

#include <map>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/bitops.hpp"

namespace hwst::mem {

using common::u64;

class HeapAllocator {
public:
    HeapAllocator(u64 base, u64 size, u64 align = 16);

    /// Allocate `size` bytes (>=1); returns 0 on exhaustion.
    u64 malloc(u64 size);

    /// Free a block previously returned by malloc. Returns its size, or
    /// std::nullopt if `addr` is not a live allocation (double free /
    /// free of a non-start address — the CWE415/CWE761 signals).
    std::optional<u64> free(u64 addr);

    /// Size of the live block starting at `addr`, if any.
    std::optional<u64> block_size(u64 addr) const;

    /// The live block *containing* `addr`, if any (ASAN-model probing).
    std::optional<std::pair<u64, u64>> containing_block(u64 addr) const;

    u64 live_bytes() const { return live_bytes_; }
    u64 live_blocks() const { return live_.size(); }
    u64 base() const { return base_; }
    u64 size() const { return size_; }

    /// Same free list and live blocks: every later call behaves alike.
    bool operator==(const HeapAllocator&) const = default;

private:
    struct FreeBlock {
        u64 size;
    };

    u64 base_;
    u64 size_;
    u64 align_;
    u64 live_bytes_ = 0;
    std::map<u64, u64> free_;            // addr -> size, address-ordered
    std::unordered_map<u64, u64> live_;  // addr -> size
    std::map<u64, u64> live_ordered_;    // addr -> size (containing_block)
};

/// Result of a lock allocation: where the key lives and the key value.
struct LockGrant {
    u64 lock_addr;
    u64 key;
};

class LockAllocator {
public:
    /// `base`: first lock_location address; `entries`: capacity
    /// (paper: 2^20 entries, so locks fit the 20-bit compressed field).
    LockAllocator(u64 base, u64 entries);

    /// Grab a lock_location and mint a fresh key (keys start at 2;
    /// key 0 = erased, key 1 = the "global" key for objects that are
    /// never deallocated, per CETS; stack keys live in a disjoint
    /// space with bit 43 set).
    LockGrant allocate();

    /// Recycle a lock_location. The caller (free wrapper) is
    /// responsible for erasing the key in simulated memory. Returns
    /// false (and changes nothing) if `lock_addr` is not a live grant —
    /// a double release or a corrupted address from the simulated
    /// program; the Machine turns that into a trap, never a host crash.
    [[nodiscard]] bool release(u64 lock_addr);

    u64 base() const { return base_; }
    u64 entries() const { return entries_; }
    u64 live() const { return live_; }

    /// The CETS global lock_location, holding kGlobalKey. Index 1:
    /// index 0 is reserved because a compressed temporal half of zero
    /// means "no metadata" (see metadata/compress.hpp).
    u64 global_lock_addr() const { return base_ + 8; }
    static constexpr u64 kGlobalKey = 1;

    /// Same slots, recycle order and next key: every later call behaves
    /// alike. Allocation mints a new key each time, so two states an
    /// allocation apart never compare equal.
    bool operator==(const LockAllocator&) const = default;

private:
    u64 base_;
    u64 entries_;
    // 0 = "no metadata", 1 = global lock, 2 = stack-lock cursor,
    // 3 = stack-key counter (see sim::Machine and the CETS stack-lock
    // protocol in compiler/emitters.cpp).
    u64 next_index_ = 4;
    u64 next_key_ = 2;
    u64 live_ = 0;
    std::vector<u64> recycled_;
    std::unordered_set<u64> live_indices_;
};

} // namespace hwst::mem
