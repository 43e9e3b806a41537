#include <gtest/gtest.h>

#include "mem/allocator.hpp"
#include "mem/cache.hpp"
#include "mem/memory.hpp"

namespace {

using namespace hwst;
using namespace hwst::mem;
using common::u64;

TEST(Memory, LittleEndianRoundTrip)
{
    Memory m;
    m.map_region("r", 0x1000, 0x1000);
    m.store(0x1000, 8, 0x1122334455667788ull);
    EXPECT_EQ(m.load(0x1000, 8, false), 0x1122334455667788ull);
    EXPECT_EQ(m.load(0x1000, 1, false), 0x88u);
    EXPECT_EQ(m.load(0x1001, 1, false), 0x77u);
    EXPECT_EQ(m.load(0x1000, 4, false), 0x55667788u);
    EXPECT_EQ(m.load(0x1004, 4, false), 0x11223344u);
}

TEST(Memory, SignExtension)
{
    Memory m;
    m.map_region("r", 0x1000, 0x1000);
    m.store(0x1000, 1, 0x80);
    EXPECT_EQ(static_cast<common::i64>(m.load(0x1000, 1, true)), -128);
    EXPECT_EQ(m.load(0x1000, 1, false), 0x80u);
    m.store(0x1010, 2, 0x8000);
    EXPECT_EQ(static_cast<common::i64>(m.load(0x1010, 2, true)), -32768);
}

TEST(Memory, UnwrittenReadsZero)
{
    Memory m;
    m.map_region("r", 0x1000, 0x1000);
    EXPECT_EQ(m.load(0x1ab0, 8, false), 0u);
    EXPECT_EQ(m.resident_bytes(), 0u); // loads do not materialise pages
}

TEST(Memory, UnmappedAccessFaults)
{
    Memory m;
    m.map_region("r", 0x1000, 0x1000);
    EXPECT_THROW(m.load(0x3000, 8, false), MemFault);
    EXPECT_THROW(m.store(0x0, 1, 1), MemFault); // null guard page
    EXPECT_THROW(m.load(0x1FFD, 8, false), MemFault); // straddles the end
    EXPECT_NO_THROW(m.load(0x1FF8, 8, false));
}

TEST(Memory, CrossPageAccess)
{
    Memory m;
    m.map_region("r", 0x1000, 0x3000);
    m.store(0x1FFC, 8, 0xAABBCCDD11223344ull);
    EXPECT_EQ(m.load(0x1FFC, 8, false), 0xAABBCCDD11223344ull);
}

TEST(Memory, BulkReadWrite)
{
    Memory m;
    m.map_region("r", 0x1000, 0x1000);
    const std::vector<common::u8> data{1, 2, 3, 4, 5};
    m.write_bytes(0x1100, data);
    EXPECT_EQ(m.read_bytes(0x1100, 5), data);
}

TEST(Cache, HitAfterMiss)
{
    Cache c;
    const unsigned miss = c.access(0x1000);
    const unsigned hit = c.access(0x1000);
    EXPECT_GT(miss, hit);
    EXPECT_EQ(hit, c.config().hit_cycles);
    EXPECT_EQ(c.stats().accesses, 2u);
    EXPECT_EQ(c.stats().misses, 1u);
}

TEST(Cache, SameLineHits)
{
    Cache c;
    c.access(0x1000);
    EXPECT_EQ(c.access(0x1038), c.config().hit_cycles); // same 64B line
    EXPECT_NE(c.access(0x1040), c.config().hit_cycles); // next line
}

TEST(Cache, LruEviction)
{
    CacheConfig cfg;
    cfg.ways = 2;
    cfg.sets = 4;
    Cache c{cfg};
    const u64 set_stride = 64 * 4; // same set
    c.access(0);                  // A
    c.access(set_stride);         // B
    c.access(0);                  // refresh A
    c.access(2 * set_stride);     // C evicts B (LRU)
    EXPECT_TRUE(c.would_hit(0));
    EXPECT_FALSE(c.would_hit(set_stride));
    EXPECT_TRUE(c.would_hit(2 * set_stride));
}

TEST(Cache, FlushDropsEverything)
{
    Cache c;
    c.access(0x1000);
    ASSERT_TRUE(c.would_hit(0x1000));
    c.flush();
    EXPECT_FALSE(c.would_hit(0x1000));
}

TEST(Cache, ConfigValidation)
{
    CacheConfig bad;
    bad.sets = 3;
    EXPECT_THROW(Cache{bad}, common::ConfigError);
    bad = CacheConfig{};
    bad.ways = 0;
    EXPECT_THROW(Cache{bad}, common::ConfigError);
    bad = CacheConfig{};
    bad.line_bytes = 1; // a line address must never equal the empty-way mark
    EXPECT_THROW(Cache{bad}, common::ConfigError);
}

TEST(HeapAllocator, AllocFreeReuse)
{
    HeapAllocator h{0x10000, 0x10000};
    const u64 a = h.malloc(100);
    ASSERT_NE(a, 0u);
    EXPECT_EQ(a % 16, 0u);
    EXPECT_EQ(h.block_size(a), 100u);
    EXPECT_EQ(h.free(a), 100u);
    const u64 b = h.malloc(100);
    EXPECT_EQ(b, a); // first fit reuses the freed block
}

TEST(HeapAllocator, DoubleFreeDetected)
{
    HeapAllocator h{0x10000, 0x10000};
    const u64 a = h.malloc(64);
    EXPECT_TRUE(h.free(a).has_value());
    EXPECT_FALSE(h.free(a).has_value());
    EXPECT_FALSE(h.free(a + 8).has_value()); // not-at-start
}

TEST(HeapAllocator, ExhaustionReturnsNull)
{
    HeapAllocator h{0x10000, 256};
    EXPECT_NE(h.malloc(200), 0u);
    EXPECT_EQ(h.malloc(200), 0u);
}

TEST(HeapAllocator, CoalescingAllowsBigRealloc)
{
    HeapAllocator h{0x10000, 0x1000};
    const u64 a = h.malloc(0x400);
    const u64 b = h.malloc(0x400);
    const u64 c = h.malloc(0x400);
    ASSERT_NE(c, 0u);
    h.free(a);
    h.free(b);
    h.free(c);
    EXPECT_NE(h.malloc(0xC00), 0u); // only possible after coalescing
}

TEST(HeapAllocator, ContainingBlock)
{
    HeapAllocator h{0x10000, 0x10000};
    const u64 a = h.malloc(100);
    const auto hit = h.containing_block(a + 50);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(hit->first, a);
    EXPECT_EQ(hit->second, 100u);
    EXPECT_FALSE(h.containing_block(a + 200).has_value());
}

TEST(HeapAllocator, LiveAccounting)
{
    HeapAllocator h{0x10000, 0x10000};
    const u64 a = h.malloc(100);
    h.malloc(50);
    EXPECT_EQ(h.live_blocks(), 2u);
    EXPECT_EQ(h.live_bytes(), 150u);
    h.free(a);
    EXPECT_EQ(h.live_blocks(), 1u);
    EXPECT_EQ(h.live_bytes(), 50u);
}

TEST(LockAllocator, KeysAreUniqueForever)
{
    LockAllocator la{0x40000000, 1024};
    const auto g1 = la.allocate();
    EXPECT_TRUE(la.release(g1.lock_addr));
    const auto g2 = la.allocate();
    // The lock_location is recycled but the key never is (CETS).
    EXPECT_EQ(g2.lock_addr, g1.lock_addr);
    EXPECT_NE(g2.key, g1.key);
}

TEST(LockAllocator, ReleaseRejectsBadAndDoubleAddresses)
{
    LockAllocator la{0x40000000, 1024};
    const auto g = la.allocate();
    EXPECT_FALSE(la.release(0));                     // below the region
    EXPECT_FALSE(la.release(g.lock_addr + 4));       // misaligned
    EXPECT_FALSE(la.release(0x40000000 + 8 * 2048)); // past the region
    EXPECT_FALSE(la.release(la.global_lock_addr())); // never granted
    EXPECT_TRUE(la.release(g.lock_addr));
    EXPECT_FALSE(la.release(g.lock_addr)); // double release
    EXPECT_EQ(la.live(), 0u);
}

TEST(LockAllocator, GlobalLockIsIndexOne)
{
    LockAllocator la{0x40000000, 1024};
    EXPECT_EQ(la.global_lock_addr(), 0x40000000u + 8);
    // Fresh allocations skip the reserved slots (0 = no-metadata,
    // 1 = global, 2-3 = stack-lock allocator state).
    const auto g = la.allocate();
    EXPECT_GE(g.lock_addr, 0x40000000u + 32);
    EXPECT_GT(g.key, LockAllocator::kGlobalKey);
}

TEST(LockAllocator, Exhaustion)
{
    LockAllocator la{0x40000000, 8}; // indices 4..7 usable
    for (int i = 0; i < 4; ++i) la.allocate();
    EXPECT_THROW(la.allocate(), common::SimError);
}

} // namespace
