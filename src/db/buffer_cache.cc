#include "db/buffer_cache.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace odbsim::db
{

BufferCache::BufferCache(std::uint64_t frames)
    : frameMod_(frames), numFrames_(frames),
      sentinel_(static_cast<std::uint32_t>(frames))
{
    odbsim_assert(frames >= 8, "buffer cache needs at least 8 frames");
    // The LRU list's sentinel lives past the last frame so frame
    // indices stay dense.
    frames_.resize(frames + 1);
    frames_[sentinel_].prev = sentinel_;
    frames_[sentinel_].next = sentinel_;
    // Residency can never exceed the frame count, so after this the
    // index never rehashes (mapAllocations() flat).
    map_.reserve(frames);
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
    const std::uint32_t *slot = map_.find(b);
    if (!slot) {
        ++misses_;
        return BufferLookup{false, 0};
    }
    const std::uint32_t f = *slot;
    unlink(f);
    pushFront(f);
    return BufferLookup{true, f};
}

BufferVictim
BufferCache::allocate(BlockId b)
{
    odbsim_assert(map_.find(b) == nullptr,
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
        map_.erase(victim.block);
        unlink(f);
    }

    Frame &fr = frames_[f];
    fr.block = b;
    fr.dirty = false;
    fr.ioPending = true;
    map_.findOrInsert(b) = f;
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
    if (map_.find(b) != nullptr)
        return;
    if (nextFree_ >= numFrames_)
        return;
    const std::uint32_t f = static_cast<std::uint32_t>(nextFree_++);
    Frame &fr = frames_[f];
    fr.block = b;
    fr.dirty = dirty;
    fr.ioPending = false;
    map_.findOrInsert(b) = f;
    pushFront(f);
}

void
BufferCache::finishWarmFill(std::uint64_t n)
{
    // Why this equals prefill()ing the n distinct blocks coldest
    // first. That order gives the i-th distinct block (i from 0,
    // hottest first) frame n-1-i and pushes it to MRU last of all
    // colder blocks, so the LRU list runs frame n-1 (MRU) down to
    // frame 0 (LRU), and nextFree is n.
    //  - warmFill() gave the i-th block frame numFrames-1-i. When the
    //    stream filled the cache (n == numFrames) that is n-1-i
    //    already.
    //  - When the stream ran dry first, every frame and index value
    //    sits numFrames-n too high: slide frames [numFrames-n,
    //    numFrames) down to [0, n), reset the vacated ones to empty,
    //    and lower every index value by the same gap.
    //  - One sweep then links frame f between f+1 (towards MRU) and
    //    f-1 (towards LRU), which is exactly the list n pushFront()s
    //    of frames 0, 1, ..., n-1 build.
    const std::uint64_t gap = numFrames_ - n;
    if (gap > 0) {
        std::copy(frames_.begin() + static_cast<std::ptrdiff_t>(gap),
                  frames_.begin() + static_cast<std::ptrdiff_t>(numFrames_),
                  frames_.begin());
        std::fill(frames_.begin() + static_cast<std::ptrdiff_t>(n),
                  frames_.begin() + static_cast<std::ptrdiff_t>(numFrames_),
                  Frame{});
        const auto shift = static_cast<std::uint32_t>(gap);
        map_.forEachValue([shift](std::uint32_t &f) { f -= shift; });
    }
    nextFree_ = n;
    if (n == 0)
        return;
    for (std::uint32_t f = 0; f < n; ++f) {
        frames_[f].prev = f + 1;
        frames_[f].next = f - 1;
    }
    const auto mru = static_cast<std::uint32_t>(n - 1);
    frames_[mru].prev = sentinel_;
    frames_[0].next = sentinel_;
    frames_[sentinel_].next = mru;
    frames_[sentinel_].prev = 0;
}

void
BufferCache::markClean(BlockId b)
{
    const std::uint32_t *f = map_.find(b);
    if (f)
        frames_[*f].dirty = false;
}

void
BufferCache::resetStats()
{
    gets_ = 0;
    misses_ = 0;
    dirtyEvictions_ = 0;
}

} // namespace odbsim::db
