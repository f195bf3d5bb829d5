/**
 * @file
 * Frame layout and LRU order of Database::instantWarm. The warm fill
 * keeps each block's first (hottest) occurrence in
 * Schema::enumerateWarm's stream, places the blocks as a coldest-first
 * prefill would so the hottest block ends at MRU, and marks a
 * deterministic share of them dirty. Every frame's block, dirty bit
 * and index entry, and the LRU order, are checked against a reference
 * built from the public Schema and BufferCache::prefill calls, on a
 * database smaller than the cache (the stream runs dry) and on one
 * whose frame budget binds.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <unordered_set>
#include <vector>

#include "../support/mini_odb.hh"
#include "db/buffer_cache.hh"
#include "db/database.hh"
#include "db/schema.hh"

namespace
{

using namespace odbsim;

/**
 * The reference warm-up: dedupe the warm stream with a node set that
 * keeps first occurrences, then prefill coldest-first with the
 * engine's dirty rule. @return the number of distinct candidates.
 */
std::uint64_t
referenceWarm(const db::Schema &schema, double dirty_fraction,
              db::BufferCache &cache)
{
    const std::uint64_t budget = cache.numFrames();
    std::vector<db::BlockId> hot;
    std::unordered_set<db::BlockId> seen;
    schema.enumerateWarm([&](std::span<const db::BlockId> chunk) {
        for (const db::BlockId b : chunk) {
            if (seen.insert(b).second)
                hot.push_back(b);
            if (hot.size() == budget)
                return false;
        }
        return true;
    });
    for (auto it = hot.rbegin(); it != hot.rend(); ++it) {
        const bool dirty =
            db::Schema::mix(*it, 0xd1d1, 0) % 1000 <
            static_cast<std::uint64_t>(dirty_fraction * 1000.0);
        cache.prefill(*it, dirty);
    }
    return hot.size();
}

db::DatabaseConfig
sized(unsigned warehouses)
{
    db::DatabaseConfig cfg;
    cfg.schema.warehouses = warehouses;
    return cfg;
}

/** A default-sized W-warehouse database after instantWarm(), and the
 *  reference warm-up of a cache of the same size. */
struct Warmed
{
    explicit Warmed(unsigned warehouses)
        : sys(test::miniSystemConfig(1)), database(sys, sized(warehouses)),
          ref(database.bufferCache().numFrames())
    {
        database.instantWarm();
        candidates = referenceWarm(database.schema(),
                                   database.config().warmDirtyFraction,
                                   ref);
    }

    os::System sys;
    db::Database database;
    db::BufferCache ref;
    std::uint64_t candidates = 0;
};

/** Every frame's block and dirty bit, and every resident block's
 *  index entry, match the reference. */
void
expectReferenceLayout(const Warmed &w)
{
    const db::BufferCache &got = w.database.bufferCache();
    EXPECT_EQ(got.residentBlocks(), w.ref.residentBlocks());
    std::uint64_t mismatches = 0;
    std::uint64_t dirty = 0;
    for (std::uint64_t f = 0; f < got.numFrames(); ++f) {
        const db::BlockId b = got.blockAt(f);
        const bool indexed = b == db::invalidBlock ||
                             (got.peek(b).hit && got.peek(b).frame == f);
        if (b != w.ref.blockAt(f) || got.isDirty(f) != w.ref.isDirty(f) ||
            !indexed) {
            if (mismatches++ == 0)
                ADD_FAILURE() << "first mismatch at frame " << f
                              << ": block " << b << " vs "
                              << w.ref.blockAt(f) << ", dirty "
                              << got.isDirty(f) << " vs "
                              << w.ref.isDirty(f) << ", indexed "
                              << indexed;
        }
        dirty += got.isDirty(f) ? 1 : 0;
    }
    EXPECT_EQ(mismatches, 0u);
    EXPECT_GT(dirty, 0u);
}

/**
 * Allocating numFrames() blocks that neither cache holds first uses up
 * the free frames and then evicts every warmed block in LRU order, so
 * equal victim sequences prove equal LRU lists (and equal free-frame
 * cursors).
 */
void
expectReferenceLruOrder(Warmed &w)
{
    db::BufferCache &got = w.database.bufferCache();
    const db::BlockId fresh = std::uint64_t{1} << 62; // Past any schema.
    std::uint64_t evictions = 0;
    for (std::uint64_t i = 0; i < got.numFrames(); ++i) {
        const db::BufferVictim a = got.allocate(fresh + i);
        const db::BufferVictim b = w.ref.allocate(fresh + i);
        got.fillComplete(a.frame);
        w.ref.fillComplete(b.frame);
        ASSERT_EQ(a.frame, b.frame) << "allocation " << i;
        ASSERT_EQ(a.hadBlock, b.hadBlock) << "allocation " << i;
        ASSERT_EQ(a.evictedBlock, b.evictedBlock) << "allocation " << i;
        ASSERT_EQ(a.wasDirty, b.wasDirty) << "allocation " << i;
        evictions += a.hadBlock ? 1 : 0;
    }
    EXPECT_EQ(evictions, w.candidates);
}

TEST(InstantWarm, CachedDatabaseFrameLayoutMatchesReference)
{
    // W=10 holds fewer distinct warm blocks than the cache has frames:
    // the stream runs dry before the budget does.
    const Warmed w(10);
    expectReferenceLayout(w);
    EXPECT_LT(w.candidates, w.ref.numFrames());
}

TEST(InstantWarm, BudgetBoundFrameLayoutMatchesReference)
{
    // W=4096 offers far more warm blocks than frames: the budget stops
    // the stream, so the hottest-first order decides what fits.
    const Warmed w(4096);
    expectReferenceLayout(w);
    EXPECT_EQ(w.candidates, w.ref.numFrames());
}

TEST(InstantWarm, CachedDatabaseLruOrderMatchesReference)
{
    Warmed w(10);
    expectReferenceLruOrder(w);
}

TEST(InstantWarm, BudgetBoundLruOrderMatchesReference)
{
    Warmed w(4096);
    expectReferenceLruOrder(w);
}

TEST(InstantWarmDeathTest, NonEmptyCacheStops)
{
    os::System sys(test::miniSystemConfig(1));
    db::Database database(sys, sized(1));
    database.bufferCache().prefill(7);
    EXPECT_DEATH(database.instantWarm(),
                 "a warm fill needs an empty buffer cache, but 1 blocks "
                 "are resident");
}

} // namespace
