/**
 * @file
 * Unit and property tests for the set-associative tag store: hits,
 * LRU eviction, dirty writebacks, invalidation, and a differential
 * test against per-line LRU clocks.
 */

#include <gtest/gtest.h>

#include <vector>

#include "mem/cache.hh"
#include "sim/rng.hh"

namespace
{

using namespace odbsim;
using namespace odbsim::mem;

CacheGeometry
tinyGeom()
{
    // 2 sets x 2 ways x 64 B lines.
    return CacheGeometry{256, 2, 64};
}

/** Line address in set @p set with tag index @p t (for a 2-set cache). */
Addr
addrFor(std::uint64_t set, std::uint64_t t, std::uint64_t sets = 2)
{
    return (t * sets + set) * 64;
}

TEST(CacheGeometry, DerivedQuantities)
{
    CacheGeometry g{1 * MiB, 8, 64};
    EXPECT_EQ(g.numLines(), 16384u);
    EXPECT_EQ(g.numSets(), 2048u);
}

TEST(SetAssocCache, ColdMissThenHit)
{
    SetAssocCache c("t", tinyGeom());
    EXPECT_FALSE(c.access(0x1000, false).hit);
    EXPECT_TRUE(c.access(0x1000, false).hit);
    EXPECT_TRUE(c.access(0x1020, false).hit); // Same line.
    EXPECT_EQ(c.accesses(), 3u);
    EXPECT_EQ(c.misses(), 1u);
}

TEST(SetAssocCache, LruEvictsLeastRecent)
{
    SetAssocCache c("t", tinyGeom());
    const Addr a = addrFor(0, 1), b = addrFor(0, 2), d = addrFor(0, 3);
    c.access(a, false);
    c.access(b, false);
    c.access(a, false); // a most recent; b is LRU.
    const auto res = c.access(d, false);
    EXPECT_FALSE(res.hit);
    EXPECT_TRUE(res.evicted);
    EXPECT_EQ(res.evictedLineAddr, b);
    EXPECT_TRUE(c.probe(a));
    EXPECT_FALSE(c.probe(b));
}

TEST(SetAssocCache, DirtyVictimReportsWriteback)
{
    SetAssocCache c("t", tinyGeom());
    c.access(addrFor(0, 1), true);
    c.access(addrFor(0, 2), false);
    const auto res = c.access(addrFor(0, 3), false); // Evicts dirty #1.
    EXPECT_TRUE(res.evictedDirty);
    EXPECT_EQ(res.evictedLineAddr, addrFor(0, 1));
    EXPECT_EQ(c.writebacks(), 1u);
}

TEST(SetAssocCache, WriteHitMarksDirty)
{
    SetAssocCache c("t", tinyGeom());
    c.access(0x40, false);
    EXPECT_FALSE(c.probeDirty(0x40));
    c.access(0x40, true);
    EXPECT_TRUE(c.probeDirty(0x40));
}

TEST(SetAssocCache, SetsAreIndependent)
{
    SetAssocCache c("t", tinyGeom());
    // Fill set 0 beyond capacity; set 1 lines must survive.
    c.access(addrFor(1, 1), false);
    for (std::uint64_t t = 1; t <= 3; ++t)
        c.access(addrFor(0, t), false);
    EXPECT_TRUE(c.probe(addrFor(1, 1)));
}

TEST(SetAssocCache, InvalidateRemovesLine)
{
    SetAssocCache c("t", tinyGeom());
    c.access(0x80, true);
    EXPECT_TRUE(c.invalidate(0x80)); // Returns dirty flag.
    EXPECT_FALSE(c.probe(0x80));
    EXPECT_FALSE(c.invalidate(0x80)); // Second invalidate: not present.
    EXPECT_FALSE(c.access(0x80, false).hit);
}

TEST(SetAssocCache, ResetStatsKeepsContents)
{
    SetAssocCache c("t", tinyGeom());
    c.access(0x100, false);
    c.resetStats();
    EXPECT_EQ(c.accesses(), 0u);
    EXPECT_EQ(c.misses(), 0u);
    EXPECT_TRUE(c.access(0x100, false).hit);
}

TEST(SetAssocCache, MissRatio)
{
    SetAssocCache c("t", tinyGeom());
    c.access(0x0, false);  // miss
    c.access(0x0, false);  // hit
    c.access(0x0, false);  // hit
    c.access(0x40, false); // miss
    EXPECT_DOUBLE_EQ(c.missRatio(), 0.5);
}

/**
 * Property tests across geometries: working sets within capacity never
 * miss after the first pass; streaming working sets twice the capacity
 * through an LRU cache always misses.
 */
class CacheGeometryProperty
    : public ::testing::TestWithParam<std::tuple<std::uint64_t,
                                                 std::uint32_t>>
{
  protected:
    CacheGeometry
    geom() const
    {
        const auto [size, assoc] = GetParam();
        return CacheGeometry{size, assoc, 64};
    }
};

TEST_P(CacheGeometryProperty, FittingWorkingSetHasNoCapacityMisses)
{
    SetAssocCache c("t", geom());
    const std::uint64_t lines = geom().numLines();
    for (int pass = 0; pass < 3; ++pass) {
        for (std::uint64_t i = 0; i < lines; ++i)
            c.access(i * 64, false);
    }
    // Sequential fill maps exactly one line per way slot: only the
    // first pass misses.
    EXPECT_EQ(c.misses(), lines);
    EXPECT_EQ(c.accesses(), 3 * lines);
}

TEST_P(CacheGeometryProperty, ThrashingWorkingSetAlwaysMisses)
{
    SetAssocCache c("t", geom());
    const std::uint64_t lines = geom().numLines() * 2;
    for (int pass = 0; pass < 3; ++pass) {
        for (std::uint64_t i = 0; i < lines; ++i)
            c.access(i * 64, false);
    }
    // Cyclic sequential access over 2x capacity defeats LRU entirely.
    EXPECT_EQ(c.misses(), c.accesses());
}

TEST_P(CacheGeometryProperty, ValidLinesNeverExceedCapacity)
{
    SetAssocCache c("t", geom());
    for (std::uint64_t i = 0; i < geom().numLines() * 4; ++i)
        c.access(i * 64 * 3, i % 2 == 0);
    EXPECT_LE(c.validLines(), geom().numLines());
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheGeometryProperty,
    ::testing::Values(std::make_tuple(4096u, 1u),
                      std::make_tuple(4096u, 4u),
                      std::make_tuple(65536u, 8u),
                      std::make_tuple(262144u, 8u),
                      std::make_tuple(1048576u, 16u)));

/**
 * The oracle: a tag store that stamps each line with a global access
 * clock and evicts "the last invalid way, else the minimum stamp".
 * SetAssocCache's recency list must pick the same victims.
 */
struct ClockLru
{
    struct Line
    {
        Addr tag = 0;
        std::uint64_t lastUse = 0;
        bool valid = false;
        bool dirty = false;
    };

    explicit ClockLru(const CacheGeometry &g)
        : g(g), sets(g.numSets()), lines(sets * g.assoc)
    {}

    Addr tagOf(Addr a) const { return a / g.lineBytes / sets; }
    Line *
    set(Addr a)
    {
        return &lines[a / g.lineBytes % sets * g.assoc];
    }

    Line *
    find(Addr a)
    {
        for (Line *l = set(a); l != set(a) + g.assoc; ++l) {
            if (l->valid && l->tag == tagOf(a))
                return l;
        }
        return nullptr;
    }

    CacheAccessResult
    access(Addr a, bool is_write)
    {
        ++accesses;
        ++clock;
        if (Line *l = find(a)) {
            l->lastUse = clock;
            l->dirty |= is_write;
            return CacheAccessResult{true, false, false, 0};
        }
        ++misses;
        Line *victim = set(a);
        for (Line *l = set(a); l != set(a) + g.assoc; ++l) {
            if (!l->valid)
                victim = l;
            else if (victim->valid && l->lastUse < victim->lastUse)
                victim = l;
        }
        CacheAccessResult res;
        if (victim->valid) {
            res.evicted = true;
            res.evictedDirty = victim->dirty;
            res.evictedLineAddr =
                (victim->tag * sets + a / g.lineBytes % sets) * g.lineBytes;
            writebacks += victim->dirty;
        } else {
            ++validLines;
        }
        *victim = Line{tagOf(a), clock, true, is_write};
        return res;
    }

    bool
    invalidate(Addr a)
    {
        Line *l = find(a);
        if (!l)
            return false;
        l->valid = false;
        --validLines;
        return l->dirty;
    }

    CacheGeometry g;
    std::uint64_t sets;
    std::vector<Line> lines;
    std::uint64_t clock = 0;
    std::uint64_t validLines = 0, accesses = 0, misses = 0, writebacks = 0;
};

/** Ways per set; each case runs footprints of 0.5x, 1x and 4x capacity. */
class RecencyListMatchesClockLru : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(RecencyListMatchesClockLru, SameResultsOnSeededStreams)
{
    const std::uint32_t ways = GetParam();
    const CacheGeometry g{16ull * ways * 64, ways, 64};
    for (const double footprint : {0.5, 1.0, 4.0}) {
        SCOPED_TRACE(footprint);
        SetAssocCache cache("t", g);
        ClockLru oracle(g);
        Rng rng(ways * 1000 + static_cast<unsigned>(footprint * 10));
        // Lines scattered over 2^24 line slots (so sets fill unevenly)
        // at high addresses (the tag and victim-address paths).
        std::vector<Addr> pool(static_cast<std::size_t>(
            footprint * static_cast<double>(g.numLines())));
        for (auto &a : pool)
            a = 0x7f12'0000'0000ull + rng.below(1u << 24) * g.lineBytes;
        for (int op = 0; op < 200'000; ++op) {
            const Addr addr = pool[rng.below(pool.size())] + rng.below(64);
            const double pick = rng.uniform();
            if (pick < 0.45) {
                const bool write = rng.chance(0.3);
                const CacheAccessResult got = cache.access(addr, write);
                const CacheAccessResult want = oracle.access(addr, write);
                ASSERT_EQ(got.hit, want.hit) << "op " << op;
                ASSERT_EQ(got.evicted, want.evicted) << "op " << op;
                ASSERT_EQ(got.evictedDirty, want.evictedDirty) << "op " << op;
                ASSERT_EQ(got.evictedLineAddr, want.evictedLineAddr)
                    << "op " << op;
            } else if (pick < 0.6) {
                ASSERT_EQ(cache.invalidate(addr), oracle.invalidate(addr))
                    << "op " << op;
            } else if (pick < 0.8) {
                ASSERT_EQ(cache.probe(addr), oracle.find(addr) != nullptr)
                    << "op " << op;
            } else {
                const ClockLru::Line *line = oracle.find(addr);
                ASSERT_EQ(cache.probeDirty(addr), line && line->dirty)
                    << "op " << op;
            }
        }
        EXPECT_EQ(cache.validLines(), oracle.validLines);
        EXPECT_EQ(cache.accesses(), oracle.accesses);
        EXPECT_EQ(cache.misses(), oracle.misses);
        EXPECT_EQ(cache.writebacks(), oracle.writebacks);
        if (footprint > 1.0) {
            EXPECT_GT(cache.writebacks(), 0u);
        }
    }
}

// 3, 5, 9 and 13 ways leave padding ways in the set's stride of 8 or
// 16 tags.
INSTANTIATE_TEST_SUITE_P(Ways, RecencyListMatchesClockLru,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 8u, 9u, 12u,
                                           13u, 16u));

TEST(SetAssocCacheDeathTest, RejectsMoreWaysThanTheRecencyListHolds)
{
    const std::uint32_t ways = SetAssocCache::maxAssoc + 1;
    EXPECT_DEATH(SetAssocCache("wide-l3", CacheGeometry{2ull * ways * 64,
                                                          ways, 64}),
                 "wide-l3 has 17 ways; a tag store holds at most 16");
}

} // namespace
