/**
 * @file
 * The database buffer cache — the dominant component of the SGA.
 *
 * Frames hold 8 KB database blocks; hash chains through the frame
 * headers find resident blocks and an intrusive LRU list orders
 * victims. Replacement hands dirty victims to the caller (who forwards
 * them to DBWR); frames being filled by an in-flight DMA are exempt
 * from eviction.
 *
 * The studied configuration dedicated 2.8 GB to this cache — 358,400
 * frames — which sets the cached/scaled crossover near 33 warehouses
 * of ~10.7 K blocks each.
 *
 * Every replayed Touch action probes the resident-block index. It is
 * the layout of Oracle's own buffer cache: a power-of-two array of
 * 32-bit bucket heads, sized once from the frame count (at most one
 * resident block per bucket on average), whose chains run through a
 * `hashNext` frame number in each frame header. A probe walks one
 * chain of the frames the LRU promotion reads anyway, and nothing
 * grows after the constructor. metaAddr()'s bucket fold over the
 * non-power-of-two frame count is a precomputed exact fastmod rather
 * than a 64-bit hardware divide.
 *
 * warmFill() stands in for the paper's 20-minute warm-up run: one
 * pass over a hottest-first block stream that lands each block in its
 * final frame, chain and LRU position (see docs/SCALE.md).
 */

#ifndef ODBSIM_DB_BUFFER_CACHE_HH
#define ODBSIM_DB_BUFFER_CACHE_HH

#include <cstdint>
#include <memory>
#include <span>
#include <type_traits>
#include <vector>

#include "db/types.hh"
#include "mem/addr_space.hh"
#include "sim/fastmod.hh"
#include "sim/logging.hh"
#include "sim/types.hh"

namespace odbsim::db
{

/** Result of a block lookup. */
struct BufferLookup
{
    bool hit = false;
    std::uint64_t frame = 0;
};

/** Result of allocating a frame for a missing block. */
struct BufferVictim
{
    std::uint64_t frame = 0;
    /** The frame previously held a block. */
    bool hadBlock = false;
    BlockId evictedBlock = invalidBlock;
    /** The evicted block was dirty and must reach DBWR. */
    bool wasDirty = false;
};

/**
 * LRU block cache over a fixed pool of frames.
 */
class BufferCache
{
  public:
    /** @param frames Frame count; at least 8 and below 2^32 - 1. */
    explicit BufferCache(std::uint64_t frames);

    std::uint64_t numFrames() const { return numFrames_; }

    /**
     * Frames fill from 0 upwards and a block leaves only when another
     * takes its frame, so the resident count is the free-frame cursor.
     */
    std::uint64_t residentBlocks() const { return nextFree_; }

    /** Probe for @p b; hits are promoted to MRU. */
    BufferLookup lookup(BlockId b);

    /** Probe without LRU promotion or statistics. */
    BufferLookup
    peek(BlockId b) const
    {
        const std::uint32_t f = find(b, bucketOf(b));
        if (f == noFrame)
            return BufferLookup{false, 0};
        return BufferLookup{true, f};
    }

    /**
     * Claim a frame for @p b (which must not be resident) and mark it
     * I/O-pending; the caller writes back the dirty victim if any and
     * calls fillComplete() when the DMA lands.
     */
    BufferVictim allocate(BlockId b);

    /** The DMA for @p frame finished; the frame becomes evictable. */
    void fillComplete(std::uint64_t frame);

    /** Mark the block in @p frame modified. */
    void markDirty(std::uint64_t frame);

    /** Whether the block in @p frame is dirty; an empty frame is
     *  clean. */
    bool isDirty(std::uint64_t frame) const
    {
        return frame < nextFree_ && frames_[frame].dirty;
    }

    /** Block currently held by @p frame, or invalidBlock if none. */
    BlockId blockAt(std::uint64_t frame) const
    {
        return frame < nextFree_ ? frames_[frame].block : invalidBlock;
    }

    /**
     * Warm-up helper: make @p b resident at MRU with no I/O and no
     * statistics; @p dirty marks it modified (steady-state dirty
     * population). No-op if already resident or no free frame exists.
     */
    void prefill(BlockId b, bool dirty = false);

    /**
     * Fill an empty cache from a hottest-first block stream in one
     * pass, with no I/O and no statistics. @p stream is called once
     * with a chunk sink `bool(std::span<const BlockId>)`; it feeds
     * blocks hottest first, a chunk at a time, and stops when the sink
     * returns false (the cache is full). Blocks of the last chunk that
     * come after the one filling the cache are ignored. Only a block's
     * first occurrence counts; @p dirty(b) says whether block b starts
     * modified.
     *
     * The result is exactly that of prefill()ing the stream's distinct
     * blocks coldest-first: frame f holds the (n-1-f)-th distinct
     * block of n, the hottest sits at MRU and the next allocate()
     * takes frame n.
     */
    template <typename Stream, typename DirtyRule>
    void
    warmFill(Stream &&stream, DirtyRule &&dirty)
    {
        odbsim_assert(nextFree_ == 0,
                      "a warm fill needs an empty buffer cache, but ",
                      nextFree_, " blocks are resident");
        // The k-th distinct block (k from 0) takes frame numFrames-1-k,
        // whose header is written whole, once: the block, its LRU links
        // to frames f+1 (towards MRU) and f-1 (towards LRU), and its
        // chain link. So when the cache fills, every header is final
        // except the coldest frame's LRU link. The chains both dedupe
        // the stream and map each block to its frame. finishWarmFill()
        // slides the frames down if the stream ran dry and sets the
        // list's two ends; it carries the proof that the result equals
        // the coldest-first prefill().
        std::uint64_t n = 0;
        stream([&](std::span<const BlockId> chunk) {
            for (const BlockId b : chunk) {
                const std::uint64_t bucket = bucketOf(b);
                if (find(b, bucket) != noFrame)
                    continue; // A hotter occurrence already has a frame.
                const auto f = static_cast<std::uint32_t>(numFrames_ - 1 - n);
                frames_[f] = Frame{b, dirty(b), false, f + 1, f - 1,
                                   heads_[bucket]};
                heads_[bucket] = f;
                if (++n == numFrames_)
                    return false;
            }
            return true;
        });
        finishWarmFill(n);
    }

    /** Clean a resident block (DBWR finished writing it back). */
    void markClean(BlockId b);

    /** Virtual address of frame @p f (for the cache models). */
    Addr
    frameAddr(std::uint64_t f) const
    {
        return mem::addrmap::frameAddr(f, blockBytes);
    }

    /**
     * Virtual address of the hash-bucket/descriptor for @p b. The
     * fold onto the frame count is an exact fastmod (bit-identical to
     * `%`, asserted by test), so the per-Touch hot path never pays a
     * 64-bit hardware divide.
     */
    Addr
    metaAddr(BlockId b) const
    {
        const std::uint64_t bucket =
            frameMod_.mod(b * 0x9e3779b97f4a7c15ULL);
        return mem::addrmap::frameMetaAddr(bucket);
    }

    /** @name Statistics @{ */
    std::uint64_t gets() const { return gets_; }
    std::uint64_t misses() const { return misses_; }
    std::uint64_t dirtyEvictions() const { return dirtyEvictions_; }
    double
    hitRatio() const
    {
        return gets_ ? 1.0 - static_cast<double>(misses_) /
                                 static_cast<double>(gets_)
                     : 0.0;
    }
    void resetStats();
    /** @} */

  private:
    /** End of a hash chain. The constructor keeps every frame number,
     *  the LRU sentinel's included, below it. */
    static constexpr std::uint32_t noFrame = ~std::uint32_t{0};

    /** A frame header. Each path that makes frame f reachable (by a
     *  chain, the LRU list or f < nextFree_) writes all of it first,
     *  so the constructor leaves the headers unwritten. */
    struct Frame
    {
        BlockId block;
        bool dirty;
        bool ioPending;
        std::uint32_t prev;
        std::uint32_t next;
        /** Next frame of this block's hash chain, or noFrame. */
        std::uint32_t hashNext;
    };
    static_assert(sizeof(Frame) == 24,
                  "hashNext lives in the frame header's tail padding");
    static_assert(std::is_trivially_default_constructible_v<Frame>,
                  "the frame array is allocated without writing it");

    /** Fibonacci hash of @p b onto the bucket heads. */
    std::uint64_t
    bucketOf(BlockId b) const
    {
        return (b * 0x9e3779b97f4a7c15ULL) >> bucketShift_;
    }

    /** Frame holding @p b, whose bucket is @p bucket, or noFrame. */
    std::uint32_t
    find(BlockId b, std::uint64_t bucket) const
    {
        std::uint32_t f = heads_[bucket];
        while (f != noFrame && frames_[f].block != b)
            f = frames_[f].hashNext;
        return f;
    }

    void unlink(std::uint32_t f);
    void pushFront(std::uint32_t f);
    void finishWarmFill(std::uint64_t n);

    /** The frames, then the LRU list's head/tail anchor at index
     *  numFrames_ (next = MRU, prev = LRU). */
    std::unique_ptr<Frame[]> frames_;
    /** First frame of each bucket's hash chain, or noFrame. */
    std::vector<std::uint32_t> heads_;
    unsigned bucketShift_ = 0; ///< 64 - log2(heads_.size())
    sim::FastMod64 frameMod_;
    std::uint64_t numFrames_ = 0;
    std::uint32_t sentinel_ = 0;
    std::uint64_t nextFree_ = 0; ///< Next never-used frame index.
    std::uint64_t gets_ = 0;
    std::uint64_t misses_ = 0;
    std::uint64_t dirtyEvictions_ = 0;
};

} // namespace odbsim::db

#endif // ODBSIM_DB_BUFFER_CACHE_HH
