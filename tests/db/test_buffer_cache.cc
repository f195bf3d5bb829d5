/**
 * @file
 * Tests for the buffer cache (SGA): lookup/allocate semantics, LRU
 * order, dirty tracking, I/O-pending protection, warm pre-fill.
 */

#include <gtest/gtest.h>

#include "db/buffer_cache.hh"

namespace
{

using namespace odbsim;
using namespace odbsim::db;

TEST(BufferCache, MissThenHit)
{
    BufferCache bc(16);
    EXPECT_FALSE(bc.lookup(5).hit);
    const BufferVictim v = bc.allocate(5);
    EXPECT_FALSE(v.hadBlock);
    bc.fillComplete(v.frame);
    const BufferLookup l = bc.lookup(5);
    EXPECT_TRUE(l.hit);
    EXPECT_EQ(l.frame, v.frame);
    EXPECT_EQ(bc.gets(), 2u);
    EXPECT_EQ(bc.misses(), 1u);
}

TEST(BufferCache, UsesFreeFramesBeforeEvicting)
{
    BufferCache bc(8);
    for (BlockId b = 0; b < 8; ++b) {
        const BufferVictim v = bc.allocate(b);
        EXPECT_FALSE(v.hadBlock);
        bc.fillComplete(v.frame);
    }
    EXPECT_EQ(bc.residentBlocks(), 8u);
    const BufferVictim v = bc.allocate(100);
    EXPECT_TRUE(v.hadBlock);
}

TEST(BufferCache, EvictsLruBlock)
{
    BufferCache bc(8);
    for (BlockId b = 0; b < 8; ++b)
        bc.fillComplete(bc.allocate(b).frame);
    // Touch everything except block 3.
    for (BlockId b = 0; b < 8; ++b) {
        if (b != 3)
            bc.lookup(b);
    }
    const BufferVictim v = bc.allocate(100);
    EXPECT_EQ(v.evictedBlock, 3u);
    EXPECT_FALSE(bc.lookup(3).hit);
}

TEST(BufferCache, DirtyEvictionReported)
{
    BufferCache bc(8);
    for (BlockId b = 0; b < 8; ++b) {
        const auto v = bc.allocate(b);
        bc.fillComplete(v.frame);
        if (b == 0)
            bc.markDirty(v.frame);
    }
    // Block 0 is LRU (untouched since fill order... touch others).
    for (BlockId b = 1; b < 8; ++b)
        bc.lookup(b);
    const BufferVictim v = bc.allocate(100);
    EXPECT_EQ(v.evictedBlock, 0u);
    EXPECT_TRUE(v.wasDirty);
    EXPECT_EQ(bc.dirtyEvictions(), 1u);
}

TEST(BufferCache, IoPendingFramesAreNotEvicted)
{
    BufferCache bc(8);
    const BufferVictim pending = bc.allocate(0); // Stays I/O pending.
    for (BlockId b = 1; b < 8; ++b)
        bc.fillComplete(bc.allocate(b).frame);
    // Evict repeatedly; the pending frame must never be the victim.
    for (BlockId b = 100; b < 106; ++b) {
        const BufferVictim v = bc.allocate(b);
        EXPECT_NE(v.frame, pending.frame);
        bc.fillComplete(v.frame);
    }
    EXPECT_TRUE(bc.lookup(0).hit);
}

TEST(BufferCache, MarkCleanByBlockId)
{
    BufferCache bc(8);
    const auto v = bc.allocate(7);
    bc.fillComplete(v.frame);
    bc.markDirty(v.frame);
    EXPECT_TRUE(bc.isDirty(v.frame));
    bc.markClean(7);
    EXPECT_FALSE(bc.isDirty(v.frame));
    bc.markClean(999); // Unknown block: no-op.
}

TEST(BufferCache, PeekDoesNotPromoteOrCount)
{
    BufferCache bc(8);
    bc.fillComplete(bc.allocate(1).frame);
    const std::uint64_t gets = bc.gets();
    const BufferLookup l = bc.peek(1);
    EXPECT_TRUE(l.hit);
    EXPECT_EQ(bc.gets(), gets);
    EXPECT_FALSE(bc.peek(2).hit);
}

TEST(BufferCache, PrefillMakesResidentWithoutStats)
{
    BufferCache bc(8);
    bc.prefill(42);
    EXPECT_EQ(bc.gets(), 0u);
    EXPECT_EQ(bc.residentBlocks(), 1u);
    EXPECT_TRUE(bc.lookup(42).hit);
}

TEST(BufferCache, PrefillDirtyFlag)
{
    BufferCache bc(8);
    bc.prefill(42, true);
    const BufferLookup l = bc.peek(42);
    EXPECT_TRUE(bc.isDirty(l.frame));
}

TEST(BufferCache, PrefillStopsWhenFull)
{
    BufferCache bc(8);
    for (BlockId b = 0; b < 12; ++b)
        bc.prefill(b);
    EXPECT_EQ(bc.residentBlocks(), 8u);
    EXPECT_TRUE(bc.lookup(7).hit);
    EXPECT_FALSE(bc.lookup(8).hit);
}

TEST(BufferCache, PrefillDuplicateIsNoop)
{
    BufferCache bc(8);
    bc.prefill(1);
    bc.prefill(1);
    EXPECT_EQ(bc.residentBlocks(), 1u);
}

TEST(BufferCache, PrefillOrderSetsLru)
{
    BufferCache bc(8);
    for (BlockId b = 0; b < 8; ++b)
        bc.prefill(b); // 0 is coldest, 3 is MRU.
    const BufferVictim v = bc.allocate(100);
    EXPECT_EQ(v.evictedBlock, 0u);
}

TEST(BufferCache, HitRatio)
{
    BufferCache bc(8);
    bc.prefill(1);
    bc.lookup(1);
    bc.lookup(1);
    bc.lookup(2);
    EXPECT_NEAR(bc.hitRatio(), 2.0 / 3.0, 1e-12);
}

TEST(BufferCache, FrameAndMetaAddresses)
{
    BufferCache bc(16);
    EXPECT_EQ(bc.frameAddr(0), mem::addrmap::sgaFrameBase);
    EXPECT_EQ(bc.frameAddr(2), mem::addrmap::sgaFrameBase + 2 * 8192);
    // Meta addresses stay inside the metadata region.
    for (BlockId b = 0; b < 100; ++b) {
        const Addr m = bc.metaAddr(b);
        EXPECT_GE(m, mem::addrmap::sgaMetaBase);
        EXPECT_LT(m, mem::addrmap::sgaMetaBase + 16 * 64);
    }
}

TEST(BufferCache, ResetStats)
{
    BufferCache bc(8);
    bc.lookup(1);
    bc.resetStats();
    EXPECT_EQ(bc.gets(), 0u);
    EXPECT_EQ(bc.misses(), 0u);
}

TEST(BufferCache, MetaAddrMatchesHardwareDivide)
{
    // metaAddr's fastmod fold must be bit-identical to the `%` it
    // replaced, for every frame count a config can choose — including
    // the studied 2.8 GB configuration's 358,400 frames.
    for (const std::uint64_t frames :
         {8ull, 9ull, 100ull, 1000ull, 4096ull, 358'400ull}) {
        BufferCache bc(frames);
        for (BlockId b = 0; b < 2000; ++b) {
            const std::uint64_t bucket =
                (b * 0x9e3779b97f4a7c15ULL) % frames;
            EXPECT_EQ(bc.metaAddr(b),
                      mem::addrmap::frameMetaAddr(bucket))
                << "b=" << b << " frames=" << frames;
        }
    }
}

TEST(BufferCacheDeathTest, AllocateWithAllFramesIoPendingAsserts)
{
    // Claim every frame without completing any fill: the next
    // allocation has no evictable victim and must trip the assert
    // rather than hand out a frame with an in-flight DMA.
    BufferCache bc(8);
    for (BlockId b = 0; b < 8; ++b)
        bc.allocate(b);
    EXPECT_DEATH({ bc.allocate(100); }, "frames are I/O pending");
}

TEST(BufferCache, MarkCleanOnIoPendingFrame)
{
    // DBWR may finish writing back a block that is concurrently being
    // re-read; markClean must neither complete the fill nor make the
    // frame evictable.
    BufferCache bc(8);
    const BufferVictim pending = bc.allocate(0);
    bc.markClean(0);
    EXPECT_FALSE(bc.isDirty(pending.frame));
    for (BlockId b = 1; b < 8; ++b)
        bc.fillComplete(bc.allocate(b).frame);
    for (BlockId b = 100; b < 104; ++b) {
        const BufferVictim v = bc.allocate(b);
        EXPECT_NE(v.frame, pending.frame); // Still fill-protected.
        bc.fillComplete(v.frame);
    }
    bc.fillComplete(pending.frame);
    EXPECT_TRUE(bc.lookup(0).hit);
}

TEST(BufferCache, PrefillWhenFullLeavesResidentsIntact)
{
    BufferCache bc(8);
    for (BlockId b = 0; b < 8; ++b)
        bc.prefill(b, b == 2);
    bc.prefill(50); // Full: must be a no-op, not an eviction.
    EXPECT_EQ(bc.residentBlocks(), 8u);
    EXPECT_FALSE(bc.peek(50).hit);
    for (BlockId b = 0; b < 8; ++b)
        EXPECT_TRUE(bc.peek(b).hit) << b;
    EXPECT_TRUE(bc.isDirty(bc.peek(2).frame));
}

TEST(BufferCache, SteadyStateChurnNeverGrowsTheIndex)
{
    // The resident index is reserved to the frame count at
    // construction; any amount of miss/evict churn afterwards must
    // leave the growth counter flat.
    BufferCache bc(64);
    const std::uint64_t allocs = bc.mapAllocations();
    for (BlockId b = 0; b < 10'000; ++b) {
        if (!bc.lookup(b % 500).hit)
            bc.fillComplete(bc.allocate(b % 500).frame);
    }
    EXPECT_EQ(bc.mapAllocations(), allocs);
}

/** Property: hit ratio is monotone in cache size for an LRU-friendly
 *  cyclic-with-skew reference pattern. */
class BufferCacheSizeProperty
    : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(BufferCacheSizeProperty, LargerCachesHitMore)
{
    auto run = [](std::uint64_t frames) {
        BufferCache bc(frames);
        // Skewed stream: hot blocks 0-9 interleaved with a long scan.
        for (int pass = 0; pass < 3; ++pass) {
            for (BlockId b = 0; b < 200; ++b) {
                const BlockId blk = b % 3 == 0 ? b / 3 % 10 : 1000 + b;
                if (!bc.lookup(blk).hit)
                    bc.fillComplete(bc.allocate(blk).frame);
            }
        }
        return bc.hitRatio();
    };
    const std::uint64_t frames = GetParam();
    EXPECT_LE(run(frames), run(frames * 2) + 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Sizes, BufferCacheSizeProperty,
                         ::testing::Values(8u, 16u, 32u, 64u, 128u));

} // namespace
