// Hot-path acceleration structures (docs/performance.md) must be pure
// accelerators: the Memory translation cache and its miss path, the
// Cache hit path and the Machine's predecoded uop table may change host
// speed but never a simulated observable. These tests pit each fast
// path against an independent reference model.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/prng.hpp"
#include "compiler/driver.hpp"
#include "mem/cache.hpp"
#include "mem/memory.hpp"
#include "sim/machine.hpp"
#include "workloads/workload.hpp"

namespace {

using namespace hwst::riscv;
namespace sim = hwst::sim;
namespace mem = hwst::mem;
using hwst::common::i64;
using hwst::common::u64;
using hwst::common::u8;
using hwst::common::Xoshiro256;

// ---- Memory translation cache ----------------------------------------

/// Byte-granular reference model: a flat map, zero by default — the
/// semantics Memory had before the translation cache existed.
class RefMem {
public:
    void store(u64 addr, unsigned width, u64 value)
    {
        for (unsigned i = 0; i < width; ++i)
            bytes_[addr + i] = static_cast<u8>(value >> (8 * i));
    }
    u64 load(u64 addr, unsigned width) const
    {
        u64 v = 0;
        for (unsigned i = 0; i < width; ++i) v |= u64{byte(addr + i)} << (8 * i);
        return v;
    }
    u8 byte(u64 addr) const
    {
        const auto it = bytes_.find(addr);
        return it == bytes_.end() ? 0 : it->second;
    }

private:
    std::unordered_map<u64, u8> bytes_;
};

constexpr u64 kPage = mem::Memory::kPageSize;

/// `n` page bases from `from` up whose translation-cache set is `slot`,
/// each at least two pages past the one before.
std::vector<u64> pages_in_slot(u64 from, unsigned slot, unsigned n)
{
    std::vector<u64> out;
    for (u64 page = from; out.size() < n; page += kPage) {
        if (mem::Memory::tlb_slot(page) == slot &&
            (out.empty() || page > out.back() + kPage))
            out.push_back(page);
    }
    return out;
}

TEST(MemoryTlb, RandomizedAliasingAgainstReferenceModel)
{
    mem::Memory m;
    RefMem ref;
    Xoshiro256 rng{0x7e5fc0de};

    // Three groups of 16 two-page regions. Region j of every group
    // starts on a page in translation-cache set j, so the groups alias
    // set by set: two pages per set for a and b, then three (one more
    // than the ways) once c is mapped. The second page of each region
    // lets accesses straddle.
    constexpr unsigned kRegions = 16;
    constexpr u64 kRegionSize = 2 * kPage;
    std::vector<u64> groups[3];
    for (unsigned j = 0; j < kRegions; ++j) {
        const std::vector<u64> bases = pages_in_slot(0x10000, j, 3);
        for (unsigned g = 0; g < 3; ++g) groups[g].push_back(bases[g]);
    }
    for (unsigned g = 0; g < 2; ++g) {
        for (const u64 base : groups[g])
            m.map_region("g" + std::to_string(g), base, kRegionSize);
    }

    const unsigned widths[] = {1, 2, 4, 8};
    bool grew = false;

    for (int i = 0; i < 40000; ++i) {
        // Mid-stream growth: a new region must invalidate every cached
        // translation (its pages alias existing sets).
        if (i == 20000) {
            for (const u64 base : groups[2])
                m.map_region("g2", base, kRegionSize);
            grew = true;
        }
        const std::vector<u64>& group = groups[rng.below(grew ? 3 : 2)];
        const u64 base = group[rng.below(kRegions)];
        const unsigned width = widths[rng.below(4)];
        // Unconstrained offset: accesses may straddle page boundaries,
        // which must bypass the single-page fast path.
        const u64 addr = base + rng.below(kRegionSize - width);

        if (rng.chance(1, 2)) {
            const u64 value = rng.next();
            m.store(addr, width, value);
            ref.store(addr, width, value);
        } else {
            EXPECT_EQ(m.load(addr, width, false), ref.load(addr, width))
                << "addr=" << addr << " width=" << width;
        }
        if (rng.chance(1, 512)) m.tlb_invalidate();
    }

    // Bulk paths chunk per page; verify against the same byte model.
    std::vector<u8> blob(3 * kPage + 17);
    for (auto& b : blob) b = static_cast<u8>(rng.next());
    // From one region into unmapped space is fine: the bulk paths map
    // nothing and check nothing.
    const u64 blob_at = groups[0][0] + kPage - 9; // straddles pages
    m.write_bytes(blob_at, blob);
    for (u64 i = 0; i < blob.size(); ++i) ref.store(blob_at + i, 1, blob[i]);
    const std::vector<u8> got = m.read_bytes(blob_at - 5, blob.size() + 10);
    for (u64 i = 0; i < got.size(); ++i)
        ASSERT_EQ(got[i], ref.byte(blob_at - 5 + i)) << "offset " << i;
}

TEST(MemoryTlb, LayoutHotPagesStayResident)
{
    // The default layout's three hottest pages: the stack top, its Eq. 1
    // shadow `(addr << 2) + offset` and the CETS lock cursor's page at
    // the top of the lock region. Their page numbers all end in six one
    // bits, so an index of `page mod sets` put them in one set and they
    // evicted each other.
    const MemoryLayout lay;
    const u64 stack = lay.stack_top - 8;
    const u64 shadow = lay.shadow_offset + (stack << 2);
    const u64 lock = lay.lock_base + lay.lock_entries * 8 - 8;
    mem::Memory m;
    m.map_regions({
        {"stack", lay.stack_top - lay.stack_size, lay.stack_size},
        {"lock", lay.lock_base, lay.lock_entries * 8},
        {"lmsm", lay.shadow_offset, lay.stack_top << 2},
    });
    for (u64 round = 0; round < 4; ++round) {
        m.store(stack, 8, round);
        m.store(shadow, 8, round << 4);
        EXPECT_EQ(m.load(lock, 8, false), 0u);
        EXPECT_TRUE(m.tlb_holds(stack)) << "round " << round;
        EXPECT_TRUE(m.tlb_holds(shadow)) << "round " << round;
        EXPECT_TRUE(m.tlb_holds(lock)) << "round " << round;
    }
    EXPECT_EQ(m.load(stack, 8, false), 3u);
    EXPECT_EQ(m.load(shadow, 8, false), 0x30u);
}

TEST(MemoryTlb, FirstTouchPageCreationStaysVisible)
{
    mem::Memory m;
    m.map_region("r", 0x40000, 4 * kPage);
    const u64 addr = 0x40000 + 123;

    // A load of a never-written page observes zero and warms the
    // translation cache with a null backing pointer.
    EXPECT_EQ(m.load(addr, 8, false), 0u);
    EXPECT_TRUE(m.tlb_holds(addr));

    // The store materialises the page; the stale null-host entry must
    // not swallow it, and the value must be visible to the next load.
    m.store(addr, 8, 0xdeadbeefcafef00dULL);
    EXPECT_EQ(m.load(addr, 8, false), 0xdeadbeefcafef00dULL);
    EXPECT_EQ(m.load(addr + 4, 4, false), 0xdeadbeefULL);
}

TEST(MemoryTlb, MapRegionInvalidatesAndRefills)
{
    mem::Memory m;
    m.map_region("r", 0x40000, 4 * kPage);
    const u64 addr = 0x40000 + 8;
    m.store(addr, 8, 42);
    EXPECT_TRUE(m.tlb_holds(addr));

    m.map_region("late", 0x900000, kPage);
    EXPECT_FALSE(m.tlb_holds(addr)) << "map_region must drop every entry";

    EXPECT_EQ(m.load(addr, 8, false), 42u); // refill through the slow path
    EXPECT_TRUE(m.tlb_holds(addr));
}

TEST(MemoryTlb, PartiallyMappedPageNeverCached)
{
    mem::Memory m;
    // Region covers half a page: the fast path would skip the bounds
    // check, so such pages must never enter the translation cache.
    const u64 page = 0x50000;
    m.map_region("half", page, kPage / 2);
    EXPECT_EQ(m.load(page, 8, false), 0u);
    EXPECT_FALSE(m.tlb_holds(page));
    EXPECT_THROW(m.load(page + kPage / 2, 8, false), mem::MemFault);
}

TEST(MemoryTlb, SignExtensionOnFastPath)
{
    mem::Memory m;
    m.map_region("r", 0x40000, kPage);
    m.store(0x40000, 4, 0xffff8000u);
    m.load(0x40000, 4, false); // warm the entry
    ASSERT_TRUE(m.tlb_holds(0x40000));
    EXPECT_EQ(m.load(0x40000, 4, true),
              static_cast<u64>(static_cast<i64>(-0x8000)));
    m.store(0x40002, 1, 0x80);
    EXPECT_EQ(m.load(0x40002, 1, true), ~u64{0x7f});
}

// ---- Memory translation-cache miss path ------------------------------
//
// A single-page access that misses the translation cache takes one page
// lookup and one copy; only a page straddle assembles byte by byte. Each
// case forces the miss path (tlb_holds is false right before the access)
// and checks against the byte-granular reference model.

constexpr u64 kSlowBase = 0x40000;

/// Store `value` at `addr` through the miss path, mirror it into `ref`.
void slow_store(mem::Memory& m, RefMem& ref, u64 addr, unsigned width,
                u64 value)
{
    m.tlb_invalidate();
    ASSERT_FALSE(m.tlb_holds(addr));
    m.store(addr, width, value);
    ref.store(addr, width, value);
}

/// Load through the miss path and compare with `ref` (zero-extended).
void expect_slow_load(const mem::Memory& m, const RefMem& ref, u64 addr,
                      unsigned width)
{
    m.tlb_invalidate();
    ASSERT_FALSE(m.tlb_holds(addr));
    EXPECT_EQ(m.load(addr, width, false), ref.load(addr, width))
        << "addr=" << addr << " width=" << width;
}

TEST(MemorySlowPath, RightAfterMapRegionInvalidation)
{
    mem::Memory m;
    RefMem ref;
    m.map_region("r", kSlowBase, 4 * kPage);
    Xoshiro256 rng{0x51a9};
    for (int i = 0; i < 64; ++i) {
        const unsigned width = 1u << rng.below(4);
        const u64 addr = kSlowBase + rng.below(4 * kPage / width) * width;
        const u64 value = rng.next();
        m.store(addr, width, value); // warms the entry
        ref.store(addr, width, value);
        ASSERT_TRUE(m.tlb_holds(addr));
        // A later region (one page each, far away) drops every entry.
        m.map_region("late", 0x10000000 + u64(i) * 2 * kPage, kPage);
        ASSERT_FALSE(m.tlb_holds(addr));
        EXPECT_EQ(m.load(addr, width, false), ref.load(addr, width));
        EXPECT_TRUE(m.tlb_holds(addr)) << "miss path must refill";
        // A store right after invalidation takes the miss path too.
        m.map_region("later", 0x20000000 + u64(i) * 2 * kPage, kPage);
        const u64 again = rng.next();
        m.store(addr, width, again);
        ref.store(addr, width, again);
        EXPECT_EQ(m.load(addr, width, false), ref.load(addr, width));
    }
}

TEST(MemorySlowPath, UnmaterialisedPagesReadZero)
{
    mem::Memory m;
    m.map_region("r", kSlowBase, 4 * kPage);
    for (const unsigned width : {1u, 2u, 4u, 8u}) {
        for (const u64 off : {u64{0}, u64{8}, kPage / 2, kPage - width}) {
            const u64 addr = kSlowBase + kPage + off;
            m.tlb_invalidate();
            EXPECT_EQ(m.load(addr, width, false), 0u);
            EXPECT_EQ(m.load(addr, width, true), 0u);
        }
    }
    EXPECT_EQ(m.resident_bytes(), 0u) << "loads must not materialise pages";
    EXPECT_TRUE(m.tlb_holds(kSlowBase + kPage)) << "null-host entry cached";
}

TEST(MemorySlowPath, SignExtensionAtEveryNarrowWidth)
{
    mem::Memory m;
    RefMem ref;
    m.map_region("r", kSlowBase, kPage);
    for (const unsigned width : {1u, 2u, 4u}) {
        const unsigned bits = 8 * width;
        const u64 addr = kSlowBase + 64 * width;
        for (const u64 value : {u64{1} << (bits - 1), (u64{1} << bits) - 1,
                                (u64{1} << (bits - 1)) - 1, u64{0x5a}}) {
            slow_store(m, ref, addr, width, value);
            m.tlb_invalidate();
            const bool neg = (value >> (bits - 1)) & 1;
            const u64 expect = neg ? value | (~u64{0} << bits) : value;
            EXPECT_EQ(m.load(addr, width, true), expect)
                << "width=" << width << " value=" << value;
            expect_slow_load(m, ref, addr, width);
        }
    }
}

TEST(MemorySlowPath, StoreIntoNullHostEntryMaterialisesPage)
{
    for (const unsigned width : {1u, 2u, 4u, 8u}) {
        for (const u64 off : {u64{0}, u64{13} & ~u64(width - 1),
                              kPage - width}) {
            mem::Memory m;
            RefMem ref;
            m.map_region("r", kSlowBase, 2 * kPage);
            const u64 addr = kSlowBase + off;
            // Warm the entry with host == nullptr (page not materialised).
            EXPECT_EQ(m.load(kSlowBase, 8, false), 0u);
            ASSERT_TRUE(m.tlb_holds(addr));
            ASSERT_EQ(m.resident_bytes(), 0u);
            const u64 value = 0x8877665544332211ULL;
            m.store(addr, width, value); // entry hit, null host: miss path
            ref.store(addr, width, value);
            EXPECT_EQ(m.resident_bytes(), kPage);
            EXPECT_TRUE(m.tlb_holds(addr));
            for (u64 a = kSlowBase; a < kSlowBase + kPage; a += 8)
                ASSERT_EQ(m.load(a, 8, false), ref.load(a, 8))
                    << "width=" << width << " off=" << off << " a=" << a;
            // The neighbour page is still unmaterialised and reads zero.
            EXPECT_EQ(m.load(kSlowBase + kPage, 8, false), 0u);
        }
    }
}

TEST(MemorySlowPath, PageStraddlesAtEveryTailOffset)
{
    // Straddles from page 1 into page 2, with page 2 unmaterialised or
    // already backed before the first access.
    for (const bool next_resident : {false, true}) {
        mem::Memory m;
        RefMem ref;
        m.map_region("r", kSlowBase, 3 * kPage);
        if (next_resident)
            slow_store(m, ref, kSlowBase + 2 * kPage + 8, 8,
                       0x0102030405060708ULL);
        Xoshiro256 rng{0x5742 + u64{next_resident}};
        for (const unsigned width : {1u, 2u, 4u, 8u}) {
            for (u64 off = kPage - 7; off < kPage; ++off) {
                const u64 addr = kSlowBase + kPage + off;
                expect_slow_load(m, ref, addr, width);
                const u64 value = rng.next();
                m.store(addr, width, value); // fast or slow: both valid
                ref.store(addr, width, value);
                expect_slow_load(m, ref, addr, width);
                // Neighbouring bytes on both pages still match the model.
                expect_slow_load(m, ref, addr - 8, 8);
                expect_slow_load(m, ref, kSlowBase + 2 * kPage, 8);
                m.tlb_invalidate();
                EXPECT_EQ(m.load(addr, width, true),
                          static_cast<u64>(hwst::common::sign_extend(
                              ref.load(addr, width), 8 * width)));
            }
        }
    }
}

// ---- Cache hit path ----------------------------------------------------

TEST(CacheFastPath, AgreesWithStatelessProbe)
{
    mem::Cache c{{.line_bytes = 64, .ways = 2, .sets = 4}};
    Xoshiro256 rng{0xcac4e};
    u64 expect_accesses = 0, expect_misses = 0;
    for (int i = 0; i < 20000; ++i) {
        // Small range, repeated lines: exercises the repeat-line hit, way
        // hits, conflict evictions and the interleavings between them.
        const u64 addr = rng.below(4 * 2 * 64 * 3);
        const bool hit = c.would_hit(addr); // stateless reference probe
        const unsigned latency = c.access(addr);
        ++expect_accesses;
        if (!hit) ++expect_misses;
        EXPECT_EQ(latency == c.config().hit_cycles, hit) << "addr " << addr;
        EXPECT_EQ(c.last_access_missed(), !hit);
        if (rng.chance(1, 4096)) {
            c.flush();
            expect_accesses = expect_misses = 0;
            c.reset_stats();
        }
    }
    EXPECT_EQ(c.stats().accesses, expect_accesses);
    EXPECT_EQ(c.stats().misses, expect_misses);
}

/// Independent true-LRU reference: per set, a recency list of resident
/// line addresses, most recent first. No ticks, no ways, no filter.
class RefLru {
public:
    explicit RefLru(const mem::CacheConfig& cfg)
        : cfg_{cfg}, sets_(cfg.sets)
    {
    }

    /// Latency of touching `addr`; moves its line to the front.
    unsigned access(u64 addr)
    {
        const u64 line = addr / cfg_.line_bytes;
        std::vector<u64>& set = sets_[line % cfg_.sets];
        ++accesses;
        const auto it = std::find(set.begin(), set.end(), line);
        last_missed = it == set.end();
        if (last_missed) {
            ++misses;
            if (set.size() == cfg_.ways) set.pop_back(); // least recent
        } else {
            set.erase(it);
        }
        set.insert(set.begin(), line);
        return cfg_.hit_cycles + (last_missed ? cfg_.miss_penalty : 0);
    }

    void flush()
    {
        for (auto& set : sets_) set.clear();
    }

    u64 accesses = 0;
    u64 misses = 0;
    bool last_missed = false;

private:
    mem::CacheConfig cfg_;
    std::vector<std::vector<u64>> sets_;
};

TEST(CacheFastPath, MatchesTrueLruReferenceModel)
{
    u64 seed = 0x1e5a;
    for (const unsigned ways : {1u, 2u, 4u, 8u}) {
        for (const unsigned sets : {1u, 4u, 64u}) {
            for (const unsigned line_bytes : {16u, 64u}) {
                const mem::CacheConfig cfg{.line_bytes = line_bytes,
                                           .ways = ways,
                                           .sets = sets,
                                           .hit_cycles = 1,
                                           .miss_penalty = 30};
                mem::Cache c{cfg};
                RefLru ref{cfg};
                Xoshiro256 rng{++seed};
                // Twice the capacity: hits, capacity and conflict misses
                // all stay common.
                const u64 span = 2ull * ways * sets * line_bytes;
                u64 addr = 0;
                for (int i = 0; i < 12000; ++i) {
                    switch (rng.below(8)) {
                    case 0: break;                          // same address
                    case 1: addr += rng.below(8); break;    // same/next line
                    case 2: addr += u64{sets} * line_bytes; break; // same set
                    default: addr = rng.below(span); break;
                    }
                    const unsigned want = ref.access(addr);
                    ASSERT_EQ(c.access(addr), want)
                        << "ways=" << ways << " sets=" << sets
                        << " line=" << line_bytes << " i=" << i;
                    ASSERT_EQ(c.last_access_missed(), ref.last_missed);
                    if (rng.chance(1, 16)) {
                        // Repeat hits on the line just touched, as the
                        // i-cache batches them.
                        const u64 n = rng.below(5);
                        c.count_repeat_hits(n);
                        ref.accesses += n;
                    }
                    if (rng.chance(1, 2000)) {
                        c.flush();
                        ref.flush();
                    }
                    if (rng.chance(1, 3000)) {
                        c.reset_stats();
                        ref.accesses = ref.misses = 0;
                    }
                }
                EXPECT_EQ(c.stats().accesses, ref.accesses);
                EXPECT_EQ(c.stats().misses, ref.misses);
            }
        }
    }
}

TEST(CacheFastPath, SnapshotRestoreMatchesReference)
{
    // A cache restored from a mid-stream snapshot (some sets still with
    // empty ways, others full) behaves like the one snapshotted and like
    // the reference, access by access.
    u64 seed = 0x5a95;
    for (const unsigned ways : {1u, 2u, 4u, 8u}) {
        for (const int at : {5, 3000}) {
            SCOPED_TRACE(testing::Message() << "ways=" << ways << " at=" << at);
            const mem::CacheConfig cfg{.line_bytes = 64,
                                       .ways = ways,
                                       .sets = 8,
                                       .hit_cycles = 1,
                                       .miss_penalty = 30};
            mem::Cache a{cfg};
            RefLru ref{cfg};
            Xoshiro256 rng{++seed};
            const u64 span = 2ull * ways * cfg.sets * cfg.line_bytes;
            for (int i = 0; i < at; ++i) {
                const u64 addr = rng.below(span);
                ASSERT_EQ(a.access(addr), ref.access(addr)) << "i=" << i;
            }
            mem::Cache b{cfg};
            b.restore(a.snapshot());
            b.set_stats(a.stats());
            ASSERT_TRUE(b.snapshot() == a.snapshot());
            EXPECT_FALSE(b.last_access_missed());
            for (int i = 0; i < 3000; ++i) {
                const u64 addr = rng.below(span);
                const unsigned want = ref.access(addr);
                ASSERT_EQ(a.access(addr), want) << "i=" << i;
                ASSERT_EQ(b.access(addr), want) << "i=" << i;
                ASSERT_EQ(a.last_access_missed(), ref.last_missed);
                ASSERT_EQ(b.last_access_missed(), ref.last_missed);
            }
            EXPECT_EQ(b.stats().accesses, ref.accesses);
            EXPECT_EQ(b.stats().misses, ref.misses);
            EXPECT_EQ(a.stats().accesses, ref.accesses);
            EXPECT_EQ(a.stats().misses, ref.misses);
            EXPECT_TRUE(b.snapshot() == a.snapshot());
        }
    }
}

// ---- Predecoded uop table --------------------------------------------

/// Reference operand-read predicates, re-derived from the ISA manual's
/// format definitions (independent of the ones predecode used).
bool ref_reads_rs1(Format f)
{
    return f != Format::U && f != Format::J && f != Format::CsrI &&
           f != Format::Sys;
}
bool ref_reads_rs2(Format f)
{
    return f == Format::R || f == Format::S || f == Format::B;
}

/// Reference mix classification: the pre-predecode per-step switch,
/// restated field-by-field. Returns a zeroed InstrMix with exactly the
/// expected counter at 1.
sim::InstrMix ref_classify(Opcode op)
{
    sim::InstrMix mix{};
    if (is_checked_mem(op)) {
        (is_load(op) ? mix.checked_loads : mix.checked_stores) = 1;
        return mix;
    }
    switch (op) {
    case Opcode::SBDL: case Opcode::SBDU: case Opcode::LBDLS:
    case Opcode::LBDUS: case Opcode::LBAS: case Opcode::LBND:
    case Opcode::LKEY: case Opcode::LLOC: mix.meta_moves = 1; return mix;
    case Opcode::BNDRS: case Opcode::BNDRT: mix.binds = 1; return mix;
    case Opcode::TCHK: mix.tchk = 1; return mix;
    case Opcode::JAL: case Opcode::JALR: mix.jumps = 1; return mix;
    case Opcode::ECALL: mix.ecalls = 1; return mix;
    case Opcode::KBFLUSH: case Opcode::SRFMV: case Opcode::SRFCLR:
    case Opcode::FENCE: case Opcode::EBREAK: mix.other = 1; return mix;
    default: break;
    }
    if (is_load(op)) mix.loads = 1;
    else if (is_store(op)) mix.stores = 1;
    else if (is_branch(op)) mix.branches = 1;
    else mix.alu = 1;
    return mix;
}

/// Reference functional-unit cycles: mul/div extras by mnemonic, the
/// always-paid taken penalty of jal/jalr.
unsigned ref_fu_cycles(Opcode op, const sim::TimingConfig& t)
{
    const std::string_view name = op_name(op);
    if (op == Opcode::JAL || op == Opcode::JALR) return t.branch_taken_penalty;
    if (name.starts_with("MUL")) return t.mul_extra;
    if (name.starts_with("DIV") || name.starts_with("REM")) return t.div_extra;
    return 0;
}

bool mix_equal(const sim::InstrMix& a, const sim::InstrMix& b)
{
    return a.alu == b.alu && a.loads == b.loads && a.stores == b.stores &&
           a.checked_loads == b.checked_loads &&
           a.checked_stores == b.checked_stores &&
           a.meta_moves == b.meta_moves && a.binds == b.binds &&
           a.tchk == b.tchk && a.branches == b.branches &&
           a.jumps == b.jumps && a.ecalls == b.ecalls && a.other == b.other;
}

TEST(Predecode, FactsMatchPerOpcodeRederivation)
{
    // One static instruction per opcode; none of them execute — the
    // table is built at construction, which is all this test needs.
    Program p;
    p.label("main");
    for (unsigned i = 0; i < kNumOpcodes; ++i)
        p.emit(Instruction{static_cast<Opcode>(i)});
    p.finalize();
    sim::Machine m{p};

    const auto uops = m.uops();
    ASSERT_EQ(uops.size(), kNumOpcodes);
    for (unsigned i = 0; i < kNumOpcodes; ++i) {
        const Opcode op = static_cast<Opcode>(i);
        const sim::Uop& uop = uops[i];
        EXPECT_EQ(uop.in.op, op);
        EXPECT_EQ(uop.fmt, op_format(op)) << op_name(op);
        EXPECT_EQ(uop.reads_rs1, ref_reads_rs1(op_format(op))) << op_name(op);
        EXPECT_EQ(uop.reads_rs2, ref_reads_rs2(op_format(op))) << op_name(op);
        EXPECT_EQ(uop.is_load, is_load(op)) << op_name(op);
        EXPECT_EQ(uop.fu_cycles, ref_fu_cycles(op, sim::TimingConfig{}))
            << op_name(op);
        // Identify the bucket member pointer by applying it.
        sim::InstrMix got{};
        ++(got.*uop.bucket);
        EXPECT_TRUE(mix_equal(got, ref_classify(op))) << op_name(op);
    }
}

// ---- whole-machine equivalence ---------------------------------------

void expect_same_result(const sim::RunResult& a, const sim::RunResult& b)
{
    EXPECT_EQ(a.trap.kind, b.trap.kind);
    EXPECT_EQ(a.exit_code, b.exit_code);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.instret, b.instret);
    EXPECT_EQ(a.output, b.output);
    EXPECT_EQ(a.dcache.accesses, b.dcache.accesses);
    EXPECT_EQ(a.dcache.misses, b.dcache.misses);
    EXPECT_EQ(a.icache.accesses, b.icache.accesses);
    EXPECT_EQ(a.icache.misses, b.icache.misses);
    EXPECT_EQ(a.scu_checks, b.scu_checks);
    EXPECT_EQ(a.tcu_checks, b.tcu_checks);
    EXPECT_TRUE(mix_equal(a.mix, b.mix));
}

TEST(Predecode, StepLoopMatchesRunOnRealWorkload)
{
    const auto& w = hwst::workloads::all_workloads().front();
    const auto cp = hwst::compiler::compile(
        w.build(), hwst::compiler::Scheme::Hwst128Tchk);

    sim::Machine via_run{cp.program, cp.machine_config};
    const sim::RunResult r = via_run.run();
    EXPECT_EQ(r.exit_code, w.expected);

    // Driving step() by hand must retire the same stream with the same
    // timing — run() adds no per-step semantics of its own.
    sim::Machine via_step{cp.program, cp.machine_config};
    while (via_step.running()) {
        const auto trap = via_step.step();
        EXPECT_EQ(trap.kind, hwst::hwst::TrapKind::None);
    }
    EXPECT_EQ(via_step.cycles(), r.cycles);
    EXPECT_EQ(via_step.instret(), r.instret);
    EXPECT_EQ(via_step.output(), r.output);
    EXPECT_EQ(via_step.dcache().stats().accesses, r.dcache.accesses);
    EXPECT_EQ(via_step.dcache().stats().misses, r.dcache.misses);
}

TEST(RunCancellable, UncancelledRunIsBitIdentical)
{
    const auto& w = hwst::workloads::all_workloads().front();
    const auto cp =
        hwst::compiler::compile(w.build(), hwst::compiler::Scheme::None);

    sim::Machine plain{cp.program, cp.machine_config};
    const sim::RunResult r = plain.run();

    // An awkward stride stresses the countdown reload logic.
    sim::Machine polled{cp.program, cp.machine_config};
    const auto maybe =
        polled.run_cancellable([] { return false; }, /*stride=*/37);
    ASSERT_TRUE(maybe.has_value());
    expect_same_result(*maybe, r);

    // stride 0 must behave as stride 1, not divide by zero or hang.
    sim::Machine stride0{cp.program, cp.machine_config};
    const auto maybe0 =
        stride0.run_cancellable([] { return false; }, /*stride=*/0);
    ASSERT_TRUE(maybe0.has_value());
    expect_same_result(*maybe0, r);
}

TEST(RunCancellable, CancellationStillFires)
{
    const auto& w = hwst::workloads::all_workloads().front();
    const auto cp =
        hwst::compiler::compile(w.build(), hwst::compiler::Scheme::None);
    sim::Machine m{cp.program, cp.machine_config};

    int polls = 0;
    const auto r = m.run_cancellable([&] { return ++polls >= 3; },
                                     /*stride=*/100);
    EXPECT_FALSE(r.has_value());
    EXPECT_EQ(polls, 3);
    EXPECT_TRUE(m.running()) << "cancelled machine stays inspectable";
    EXPECT_GT(m.instret(), 0u);
    // The superblock tier polls at block boundaries, so each of the 3
    // poll points can overshoot its stride by at most one block.
    EXPECT_LE(m.instret(), 300u + 3 * sim::kMaxSuperblockLen);
}

} // namespace
