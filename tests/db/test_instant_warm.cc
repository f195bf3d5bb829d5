/**
 * @file
 * Frame layout of Database::instantWarm. The prefill keeps each
 * block's first (hottest) occurrence in Schema::enumerateWarm's
 * stream, fills the cache coldest-first so the hottest block ends at
 * MRU, and marks a deterministic share of the blocks dirty. Every
 * frame's block and dirty bit is checked against a reference built
 * from the public Schema and BufferCache calls, on a database smaller
 * than the cache and on one whose prefill budget binds, each with one
 * and four shards.
 */

#include <gtest/gtest.h>

#include <cstdint>
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
    const std::uint64_t budget =
        cache.numFrames() - cache.residentBlocks();
    std::vector<db::BlockId> hot;
    std::unordered_set<db::BlockId> seen;
    schema.enumerateWarm([&](db::BlockId b) {
        if (seen.insert(b).second)
            hot.push_back(b);
        return hot.size() < budget;
    });
    for (auto it = hot.rbegin(); it != hot.rend(); ++it) {
        const bool dirty =
            db::Schema::mix(*it, 0xd1d1, 0) % 1000 <
            static_cast<std::uint64_t>(dirty_fraction * 1000.0);
        cache.prefill(*it, dirty);
    }
    return hot.size();
}

/** Distinct warm candidates the reference collected, and frames. */
struct WarmShape
{
    std::uint64_t candidates = 0;
    std::uint64_t frames = 0;
};

/**
 * Warm a default-sized W-warehouse database on @p shards shards and
 * compare it frame by frame with the reference.
 */
WarmShape
expectReferenceLayout(unsigned warehouses, unsigned shards)
{
    os::System sys(test::miniSystemConfig(1));
    db::DatabaseConfig cfg;
    cfg.schema.warehouses = warehouses;
    cfg.shards = shards;
    db::Database database(sys, cfg);
    database.instantWarm();
    const db::BufferCache &got = database.bufferCache();

    db::BufferCache ref(got.numFrames(), shards);
    const std::uint64_t candidates =
        referenceWarm(database.schema(), cfg.warmDirtyFraction, ref);

    EXPECT_EQ(got.residentBlocks(), ref.residentBlocks());
    std::uint64_t mismatches = 0;
    std::uint64_t dirty = 0;
    for (std::uint64_t f = 0; f < got.numFrames(); ++f) {
        if (got.blockAt(f) != ref.blockAt(f) ||
            got.isDirty(f) != ref.isDirty(f)) {
            if (mismatches++ == 0)
                ADD_FAILURE() << "first mismatch at frame " << f
                              << ": block " << got.blockAt(f) << " vs "
                              << ref.blockAt(f) << ", dirty "
                              << got.isDirty(f) << " vs "
                              << ref.isDirty(f);
        }
        dirty += got.isDirty(f) ? 1 : 0;
    }
    EXPECT_EQ(mismatches, 0u);
    EXPECT_GT(dirty, 0u);
    return WarmShape{candidates, got.numFrames()};
}

TEST(InstantWarm, CachedDatabaseFrameLayoutMatchesReference)
{
    // W=10 holds fewer distinct warm blocks than the cache has frames:
    // the stream runs dry before the budget does.
    for (const unsigned shards : {1u, 4u}) {
        SCOPED_TRACE(shards);
        const WarmShape s = expectReferenceLayout(10, shards);
        EXPECT_LT(s.candidates, s.frames);
    }
}

TEST(InstantWarm, BudgetBoundFrameLayoutMatchesReference)
{
    // W=4096 offers far more warm blocks than frames: the budget stops
    // the stream, so the hottest-first order decides what fits.
    for (const unsigned shards : {1u, 4u}) {
        SCOPED_TRACE(shards);
        const WarmShape s = expectReferenceLayout(4096, shards);
        EXPECT_EQ(s.candidates, s.frames);
    }
}

} // namespace
