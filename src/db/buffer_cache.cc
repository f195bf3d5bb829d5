#include "db/buffer_cache.hh"

#include <bit>
#include <memory>

#include "sim/logging.hh"

namespace odbsim::db
{

BufferCache::BufferCache(std::uint64_t frames)
    : frameMod_(frames), numFrames_(frames),
      sentinel_(static_cast<std::uint32_t>(frames))
{
    odbsim_assert(frames >= 8, "buffer cache needs at least 8 frames");
    odbsim_assert(frames < noFrame, "a buffer cache of ", frames,
                  " frames needs frame numbers past 32 bits");
    // The LRU list's sentinel lives past the last frame so frame
    // indices stay dense. The frames themselves stay unwritten until
    // a block takes them (see Frame).
    frames_ = std::make_unique_for_overwrite<Frame[]>(frames + 1);
    frames_[sentinel_] =
        Frame{invalidBlock, false, false, sentinel_, sentinel_, noFrame};
    // At least one bucket per frame, so chains average at most one
    // resident block; residency never exceeds the frame count, so the
    // heads never grow.
    const std::uint64_t buckets = std::bit_ceil(frames);
    heads_.assign(buckets, noFrame);
    bucketShift_ = 64 - static_cast<unsigned>(std::countr_zero(buckets));
}

void
BufferCache::unlink(std::uint32_t f)
{
    Frame &fr = frames_[f];
    frames_[fr.prev].next = fr.next;
    frames_[fr.next].prev = fr.prev;
}

void
BufferCache::pushFront(std::uint32_t f)
{
    Frame &fr = frames_[f];
    fr.next = frames_[sentinel_].next;
    fr.prev = sentinel_;
    frames_[fr.next].prev = f;
    frames_[sentinel_].next = f;
}

BufferLookup
BufferCache::lookup(BlockId b)
{
    ++gets_;
    const std::uint32_t f = find(b, bucketOf(b));
    if (f == noFrame) {
        ++misses_;
        return BufferLookup{false, 0};
    }
    unlink(f);
    pushFront(f);
    return BufferLookup{true, f};
}

BufferVictim
BufferCache::allocate(BlockId b)
{
    const std::uint64_t bucket = bucketOf(b);
    odbsim_assert(find(b, bucket) == noFrame,
                  "allocate for already-resident block ", b);
    BufferVictim out;

    std::uint32_t f;
    if (nextFree_ < numFrames_) {
        f = static_cast<std::uint32_t>(nextFree_++);
    } else {
        // Evict from the LRU tail, skipping frames with in-flight DMA.
        f = frames_[sentinel_].prev;
        while (f != sentinel_ && frames_[f].ioPending)
            f = frames_[f].prev;
        odbsim_assert(f != sentinel_, "all frames are I/O pending");
        Frame &victim = frames_[f];
        out.hadBlock = true;
        out.evictedBlock = victim.block;
        out.wasDirty = victim.dirty;
        if (victim.dirty)
            ++dirtyEvictions_;
        // Unchain the victim: find the link that points at it.
        std::uint32_t *link = &heads_[bucketOf(victim.block)];
        while (*link != f)
            link = &frames_[*link].hashNext;
        *link = victim.hashNext;
        unlink(f);
    }

    Frame &fr = frames_[f];
    fr.block = b;
    fr.dirty = false;
    fr.ioPending = true;
    fr.hashNext = heads_[bucket];
    heads_[bucket] = f;
    pushFront(f);
    out.frame = f;
    return out;
}

void
BufferCache::fillComplete(std::uint64_t frame)
{
    frames_[frame].ioPending = false;
}

void
BufferCache::markDirty(std::uint64_t frame)
{
    frames_[frame].dirty = true;
}

void
BufferCache::prefill(BlockId b, bool dirty)
{
    const std::uint64_t bucket = bucketOf(b);
    if (find(b, bucket) != noFrame)
        return;
    if (nextFree_ >= numFrames_)
        return;
    const std::uint32_t f = static_cast<std::uint32_t>(nextFree_++);
    Frame &fr = frames_[f];
    fr.block = b;
    fr.dirty = dirty;
    fr.ioPending = false;
    fr.hashNext = heads_[bucket];
    heads_[bucket] = f;
    pushFront(f);
}

void
BufferCache::finishWarmFill(std::uint64_t n)
{
    // Why this equals prefill()ing the n distinct blocks coldest
    // first. That order gives the i-th distinct block (i from 0,
    // hottest first) frame n-1-i and pushes it to MRU last of all
    // colder blocks, so the LRU list runs frame n-1 (MRU) down to
    // frame 0 (LRU), and nextFree is n. Chain order within a bucket
    // does not matter: a block is in at most one frame, so a probe
    // finds the same frame whatever the order.
    //  - warmFill() gave the i-th block frame numFrames-1-i and linked
    //    frame f between f+1 (towards MRU) and f-1 (towards LRU). When
    //    the stream filled the cache (n == numFrames) that is frame
    //    n-1-i already, and the links are those of the pushFront()s
    //    of frames 0, 1, ..., n-1, but at the two ends of the list.
    //  - When the stream ran dry first, every frame number sits
    //    numFrames-n too high: slide frames [numFrames-n, numFrames)
    //    down to [0, n) and lower their LRU and chain links and every
    //    bucket head by the same gap. The frames from n up keep stale
    //    headers, but nothing reaches them: no chain or list link
    //    does, and blockAt() and isDirty() read only frames below
    //    nextFree.
    //  - Then frame n-1 (MRU) and frame 0 (LRU) take the sentinel as
    //    their outer links.
    const std::uint64_t gap = numFrames_ - n;
    if (gap > 0) {
        // Forwards, so each frame is read before the slide writes it.
        const auto shift = static_cast<std::uint32_t>(gap);
        for (std::uint64_t f = 0; f < n; ++f) {
            Frame fr = frames_[f + gap];
            fr.prev -= shift;
            fr.next -= shift;
            if (fr.hashNext != noFrame)
                fr.hashNext -= shift;
            frames_[f] = fr;
        }
        for (std::uint32_t &head : heads_) {
            if (head != noFrame)
                head -= shift;
        }
    }
    nextFree_ = n;
    if (n == 0)
        return;
    const auto mru = static_cast<std::uint32_t>(n - 1);
    frames_[mru].prev = sentinel_;
    frames_[0].next = sentinel_;
    frames_[sentinel_].next = mru;
    frames_[sentinel_].prev = 0;
}

void
BufferCache::markClean(BlockId b)
{
    const std::uint32_t f = find(b, bucketOf(b));
    if (f != noFrame)
        frames_[f].dirty = false;
}

void
BufferCache::resetStats()
{
    gets_ = 0;
    misses_ = 0;
    dirtyEvictions_ = 0;
}

} // namespace odbsim::db
