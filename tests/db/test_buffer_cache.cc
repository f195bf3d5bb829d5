/**
 * @file
 * Tests for the buffer cache (SGA): lookup/allocate semantics, LRU
 * order, dirty tracking, I/O-pending protection, warm pre-fill, and a
 * seeded churn differential of the chained block index against a
 * reference built on std::unordered_map and std::list.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <list>
#include <span>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "db/buffer_cache.hh"
#include "sim/rng.hh"

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

TEST(BufferCache, FreshCacheFramesReadEmpty)
{
    // The constructor leaves frame headers unwritten until a block
    // takes them, yet every frame past the resident ones reads empty
    // and clean. 358,400 frames is the studied 2.8 GB cache.
    for (const std::uint64_t frames : {8ull, 13ull, 358'400ull}) {
        SCOPED_TRACE(::testing::Message() << frames << " frames");
        BufferCache bc(frames);
        for (std::uint64_t f = 0; f < frames; ++f) {
            ASSERT_EQ(bc.blockAt(f), invalidBlock) << "frame " << f;
            ASSERT_FALSE(bc.isDirty(f)) << "frame " << f;
        }
        bc.prefill(7, true);
        EXPECT_EQ(bc.blockAt(0), 7u);
        EXPECT_TRUE(bc.isDirty(0));
        for (std::uint64_t f = 1; f < frames; ++f) {
            ASSERT_EQ(bc.blockAt(f), invalidBlock) << "frame " << f;
            ASSERT_FALSE(bc.isDirty(f)) << "frame " << f;
        }
    }
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

TEST(BufferCacheDeathTest, FrameNumbersPastThirtyTwoBitsAssert)
{
    // Frame numbers, the LRU sentinel's included, must stay below the
    // empty-chain marker ~0u. The check runs before any allocation.
    EXPECT_DEATH({ BufferCache bc(0xffff'ffffull); },
                 "needs frame numbers past 32 bits");
}

/** One frame of the reference model. */
struct RefFrame
{
    BlockId block = invalidBlock;
    bool dirty = false;
    bool ioPending = false;
};

/**
 * The cache's contract rebuilt on standard containers: a
 * std::unordered_map block index, a std::list LRU (front = MRU), free
 * frames taken in order and victims taken from the LRU end, skipping
 * frames whose fill is in flight.
 */
class ReferenceCache
{
  public:
    explicit ReferenceCache(std::uint64_t frames)
        : frames_(frames), lruPos_(frames)
    {}

    std::uint64_t resident() const { return where_.size(); }
    const RefFrame &frame(std::uint64_t f) const { return frames_[f]; }

    BufferLookup
    peek(BlockId b) const
    {
        const auto it = where_.find(b);
        return it == where_.end() ? BufferLookup{false, 0}
                                  : BufferLookup{true, it->second};
    }

    BufferLookup
    lookup(BlockId b)
    {
        const BufferLookup l = peek(b);
        if (l.hit)
            lru_.splice(lru_.begin(), lru_, lruPos_[l.frame]);
        return l;
    }

    BufferVictim
    allocate(BlockId b)
    {
        BufferVictim out;
        std::uint64_t f;
        if (nextFree_ < frames_.size()) {
            f = nextFree_++;
        } else {
            const auto it =
                std::find_if(lru_.rbegin(), lru_.rend(),
                             [&](std::uint64_t g) {
                                 return !frames_[g].ioPending;
                             });
            f = *it;
            out.hadBlock = true;
            out.evictedBlock = frames_[f].block;
            out.wasDirty = frames_[f].dirty;
            where_.erase(frames_[f].block);
            lru_.erase(lruPos_[f]);
        }
        place(f, b, false, true);
        out.frame = f;
        return out;
    }

    void fillComplete(std::uint64_t f) { frames_[f].ioPending = false; }
    void markDirty(std::uint64_t f) { frames_[f].dirty = true; }

    void
    markClean(BlockId b)
    {
        const BufferLookup l = peek(b);
        if (l.hit)
            frames_[l.frame].dirty = false;
    }

    void
    prefill(BlockId b, bool dirty)
    {
        if (where_.count(b) != 0 || nextFree_ == frames_.size())
            return;
        place(nextFree_++, b, dirty, false);
    }

  private:
    void
    place(std::uint64_t f, BlockId b, bool dirty, bool io_pending)
    {
        frames_[f] = RefFrame{b, dirty, io_pending};
        where_.emplace(b, f);
        lru_.push_front(f);
        lruPos_[f] = lru_.begin();
    }

    std::vector<RefFrame> frames_;
    std::unordered_map<BlockId, std::uint64_t> where_;
    std::list<std::uint64_t> lru_;
    std::vector<std::list<std::uint64_t>::iterator> lruPos_;
    std::uint64_t nextFree_ = 0;
};

/**
 * The cache's index hashes a block b to the top bits of b * phi
 * (mod 2^64), phi = 0x9e3779b97f4a7c15. Block (j << 40) * phi^-1
 * multiplies back to j << 40, so runs of consecutive j share a bucket:
 * all of them below 2^18 at up to 64 frames, 32 at a time at 358,400
 * frames (2^19 buckets). Had the hash changed, the churn below would
 * still compare the same behaviour, on shorter chains.
 */
constexpr std::uint64_t phiInverse = 0xf1de83e19937733dULL;
static_assert(phiInverse * 0x9e3779b97f4a7c15ULL == 1);

/**
 * Drive @p steps seeded random operations through a BufferCache of
 * @p frames frames and the reference, comparing after every step.
 * The footprint is four times the frame count: half spread block ids,
 * half blocks that share buckets (above), so chains grow long and
 * victims fall at the head, middle and tail of a chain. Up to a
 * quarter of the frames at a time wait on a fill, which eviction must
 * skip.
 */
void
churnAgainstReference(std::uint64_t frames, std::uint64_t steps,
                      std::uint64_t seed)
{
    SCOPED_TRACE(::testing::Message() << frames << " frames");
    BufferCache bc(frames);
    ReferenceCache ref(frames);
    Rng rng(seed);
    std::vector<BlockId> footprint;
    for (std::uint64_t j = 0; j < 2 * frames; ++j) {
        footprint.push_back(rng.below(std::uint64_t{1} << 40));
        footprint.push_back((j << 40) * phiInverse);
    }
    std::deque<std::uint64_t> filling;

    const auto sameDirty = [&](std::uint64_t f, std::uint64_t step) {
        ASSERT_EQ(bc.isDirty(f), ref.frame(f).dirty) << "step " << step;
    };
    for (std::uint64_t step = 0; step < steps; ++step) {
        const BlockId b = footprint[rng.below(footprint.size())];
        const BufferLookup expect = ref.peek(b);
        switch (rng.below(8)) {
          case 0:
          case 1:
          case 2: {
            const BufferLookup got = bc.lookup(b);
            ref.lookup(b);
            ASSERT_EQ(got.hit, expect.hit) << "step " << step;
            ASSERT_EQ(got.frame, expect.frame) << "step " << step;
            if (got.hit)
                break;
            const BufferVictim v = bc.allocate(b);
            const BufferVictim w = ref.allocate(b);
            ASSERT_EQ(v.frame, w.frame) << "step " << step;
            ASSERT_EQ(v.hadBlock, w.hadBlock) << "step " << step;
            ASSERT_EQ(v.evictedBlock, w.evictedBlock) << "step " << step;
            ASSERT_EQ(v.wasDirty, w.wasDirty) << "step " << step;
            if (filling.size() < frames / 4 && rng.chance(0.25)) {
                filling.push_back(v.frame);
            } else {
                bc.fillComplete(v.frame);
                ref.fillComplete(v.frame);
            }
            sameDirty(v.frame, step);
            break;
          }
          case 3:
            if (!filling.empty()) {
                bc.fillComplete(filling.front());
                ref.fillComplete(filling.front());
                filling.pop_front();
            }
            break;
          case 4:
            if (expect.hit) {
                bc.markDirty(expect.frame);
                ref.markDirty(expect.frame);
                sameDirty(expect.frame, step);
            }
            break;
          case 5:
            bc.markClean(b);
            ref.markClean(b);
            if (expect.hit)
                sameDirty(expect.frame, step);
            break;
          case 6: {
            const BufferLookup got = bc.peek(b);
            ASSERT_EQ(got.hit, expect.hit) << "step " << step;
            ASSERT_EQ(got.frame, expect.frame) << "step " << step;
            break;
          }
          default: {
            const bool dirty = rng.chance(0.3);
            bc.prefill(b, dirty);
            ref.prefill(b, dirty);
            const BufferLookup got = bc.peek(b);
            ASSERT_EQ(got.hit, ref.peek(b).hit) << "step " << step;
            ASSERT_EQ(got.frame, ref.peek(b).frame) << "step " << step;
            if (got.hit)
                sameDirty(got.frame, step);
            break;
          }
        }
        ASSERT_EQ(bc.residentBlocks(), ref.resident()) << "step " << step;
        // Resident blocks stay reachable through their chains: a
        // broken unlink shows here before it can close a cycle.
        for (int k = 0; k < 4 && bc.residentBlocks() > 0; ++k) {
            const std::uint64_t f = rng.below(bc.residentBlocks());
            const BufferLookup l = bc.peek(bc.blockAt(f));
            ASSERT_TRUE(l.hit && l.frame == f)
                << "step " << step << ", frame " << f;
        }
    }

    // The whole state at the end: every frame's block, dirty bit and
    // index entry, the statistics, and (through numFrames() fresh
    // allocations that evict every block) the LRU order.
    EXPECT_EQ(bc.residentBlocks(), frames);
    for (std::uint64_t f = 0; f < frames; ++f) {
        ASSERT_EQ(bc.blockAt(f), ref.frame(f).block) << "frame " << f;
        ASSERT_EQ(bc.isDirty(f), ref.frame(f).dirty) << "frame " << f;
        ASSERT_EQ(bc.peek(bc.blockAt(f)).frame, f) << "frame " << f;
    }
    for (const std::uint64_t f : filling) {
        bc.fillComplete(f);
        ref.fillComplete(f);
    }
    const BlockId fresh = std::uint64_t{1} << 62;
    for (std::uint64_t i = 0; i < frames; ++i) {
        const BufferVictim v = bc.allocate(fresh + i);
        const BufferVictim w = ref.allocate(fresh + i);
        bc.fillComplete(v.frame);
        ref.fillComplete(w.frame);
        ASSERT_EQ(v.frame, w.frame) << "allocation " << i;
        ASSERT_EQ(v.evictedBlock, w.evictedBlock) << "allocation " << i;
        ASSERT_EQ(v.wasDirty, w.wasDirty) << "allocation " << i;
    }
}

TEST(BufferCache, ChurnMatchesAnUnorderedMapReference)
{
    // 13 frames is not a power of two: 16 buckets for 13 blocks.
    for (const std::uint64_t frames : {8ull, 13ull, 64ull})
        churnAgainstReference(frames, 40'000, 0xbcf0 + frames);
}

TEST(BufferCache, ChurnMatchesAnUnorderedMapReferenceAtThePapersCache)
{
    // The studied 2.8 GB cache: 358,400 frames in 524,288 buckets.
    // About half the steps fill the frames; the rest churn them.
    churnAgainstReference(358'400, 1'600'000, 0xbcf1);
}

/**
 * Two caches hold the same blocks in the same frames with the same
 * dirty bits, index entries and LRU order: numFrames() fresh
 * allocations use up the same free frames and then evict every block
 * in the same order.
 */
void
expectSameCache(BufferCache &got, BufferCache &want)
{
    ASSERT_EQ(got.residentBlocks(), want.residentBlocks());
    for (std::uint64_t f = 0; f < got.numFrames(); ++f) {
        ASSERT_EQ(got.blockAt(f), want.blockAt(f)) << "frame " << f;
        ASSERT_EQ(got.isDirty(f), want.isDirty(f)) << "frame " << f;
        if (got.blockAt(f) != invalidBlock) {
            ASSERT_EQ(got.peek(got.blockAt(f)).frame, f) << "frame " << f;
        }
    }
    const BlockId fresh = std::uint64_t{1} << 62;
    for (std::uint64_t i = 0; i < got.numFrames(); ++i) {
        const BufferVictim v = got.allocate(fresh + i);
        const BufferVictim w = want.allocate(fresh + i);
        got.fillComplete(v.frame);
        want.fillComplete(w.frame);
        ASSERT_EQ(v.frame, w.frame) << "allocation " << i;
        ASSERT_EQ(v.evictedBlock, w.evictedBlock) << "allocation " << i;
        ASSERT_EQ(v.wasDirty, w.wasDirty) << "allocation " << i;
    }
}

TEST(BufferCache, WarmFillMatchesColdestFirstPrefill)
{
    // warmFill() against its definition, prefill()ing the stream's
    // distinct blocks coldest-first. Half the blocks share buckets,
    // blocks repeat, and chunks are 1 to 7 blocks long. A stream of
    // half the frame count runs dry, so the frames and their chain
    // and LRU links slide down; one of three times the frame count
    // fills the cache partway through a chunk, whose rest is ignored.
    for (const std::uint64_t frames : {8ull, 13ull, 64ull, 1000ull}) {
        for (const std::uint64_t length : {frames / 2, 3 * frames}) {
            SCOPED_TRACE(::testing::Message()
                         << frames << " frames, " << length << " blocks");
            Rng rng(frames * 7919 + length);
            std::vector<BlockId> stream;
            for (std::uint64_t i = 0; i < length; ++i) {
                const std::uint64_t j = rng.below(length);
                stream.push_back(rng.chance(0.5) ? (j << 40) * phiInverse
                                                 : j);
            }
            const auto dirty = [](BlockId b) { return b % 3 == 0; };

            BufferCache got(frames);
            got.warmFill(
                [&](const auto &sink) {
                    for (std::size_t at = 0; at < stream.size();) {
                        const std::size_t n = std::min<std::size_t>(
                            1 + rng.below(7), stream.size() - at);
                        if (!sink(std::span<const BlockId>(
                                stream.data() + at, n)))
                            return;
                        at += n;
                    }
                },
                dirty);

            std::vector<BlockId> distinct;
            std::unordered_set<BlockId> seen;
            for (const BlockId b : stream) {
                if (distinct.size() < frames && seen.insert(b).second)
                    distinct.push_back(b);
            }
            BufferCache want(frames);
            for (auto it = distinct.rbegin(); it != distinct.rend(); ++it)
                want.prefill(*it, dirty(*it));
            EXPECT_EQ(distinct.size() < frames, length < frames);
            expectSameCache(got, want);
        }
    }
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
