#include "db/buffer_cache.hh"

#include <bit>

#include "sim/logging.hh"

namespace odbsim::db
{

BufferCache::BufferCache(std::uint64_t frames, unsigned shards)
    : frameMod_(frames), totalFrames_(frames), shardCount_(shards)
{
    odbsim_assert(shards >= 1 && shards <= maxShards &&
                      std::has_single_bit(shards),
                  "buffer cache shard count must be a power of two in "
                  "[1, ", maxShards, "], got ", shards);
    odbsim_assert(frames >= 8 * shards,
                  "buffer cache needs at least 8 frames per shard");
    // One shared frame array; the K list sentinels live past the end
    // so frame indices stay global and dense.
    frames_.resize(frames + shards);
    shards_.resize(shards);
    std::uint64_t base = 0;
    for (unsigned s = 0; s < shards; ++s) {
        Shard &sh = shards_[s];
        const std::uint64_t count =
            frames / shards + (s < frames % shards ? 1 : 0);
        sh.nextFree = base;
        sh.freeEnd = base + count;
        sh.sentinel = static_cast<std::uint32_t>(frames + s);
        frames_[sh.sentinel].prev = sh.sentinel;
        frames_[sh.sentinel].next = sh.sentinel;
        // Residency per shard can never exceed its frame share, so
        // after this no index ever rehashes (mapAllocations() flat).
        sh.map.reserve(count);
        base += count;
    }
}

std::uint64_t
BufferCache::residentBlocks() const
{
    std::uint64_t total = 0;
    for (const Shard &sh : shards_)
        total += sh.map.size();
    return total;
}

std::uint64_t
BufferCache::mapAllocations() const
{
    std::uint64_t total = 0;
    for (const Shard &sh : shards_)
        total += sh.map.allocations();
    return total;
}

void
BufferCache::unlink(std::uint32_t f)
{
    Frame &fr = frames_[f];
    frames_[fr.prev].next = fr.next;
    frames_[fr.next].prev = fr.prev;
}

void
BufferCache::pushFront(Shard &sh, std::uint32_t f)
{
    Frame &fr = frames_[f];
    fr.next = frames_[sh.sentinel].next;
    fr.prev = sh.sentinel;
    frames_[fr.next].prev = f;
    frames_[sh.sentinel].next = f;
}

BufferLookup
BufferCache::lookup(BlockId b)
{
    Shard &sh = shards_[shardOf(b)];
    ++sh.gets;
    const std::uint32_t *slot = sh.map.find(b);
    if (!slot) {
        ++sh.misses;
        return BufferLookup{false, 0};
    }
    const std::uint32_t f = *slot;
    unlink(f);
    pushFront(sh, f);
    return BufferLookup{true, f};
}

BufferVictim
BufferCache::allocate(BlockId b)
{
    Shard &sh = shards_[shardOf(b)];
    odbsim_assert(sh.map.find(b) == nullptr,
                  "allocate for already-resident block ", b);
    BufferVictim out;

    std::uint32_t f;
    if (sh.nextFree < sh.freeEnd) {
        f = static_cast<std::uint32_t>(sh.nextFree++);
    } else {
        // Evict from the shard's LRU tail, skipping frames with
        // in-flight DMA.
        f = frames_[sh.sentinel].prev;
        std::uint64_t walked = 0;
        while (f != sh.sentinel && frames_[f].ioPending) {
            f = frames_[f].prev;
            ++walked;
        }
        odbsim_assert(f != sh.sentinel, "shard ", shardOf(b),
                      ": all frames are I/O pending");
        (void)walked;
        Frame &victim = frames_[f];
        out.hadBlock = true;
        out.evictedBlock = victim.block;
        out.wasDirty = victim.dirty;
        if (victim.dirty)
            ++sh.dirtyEvictions;
        sh.map.erase(victim.block);
        unlink(f);
    }

    Frame &fr = frames_[f];
    fr.block = b;
    fr.dirty = false;
    fr.ioPending = true;
    sh.map.findOrInsert(b) = f;
    pushFront(sh, f);
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
    Shard &sh = shards_[shardOf(b)];
    if (sh.map.find(b) != nullptr)
        return;
    if (sh.nextFree >= sh.freeEnd)
        return;
    const std::uint32_t f = static_cast<std::uint32_t>(sh.nextFree++);
    Frame &fr = frames_[f];
    fr.block = b;
    fr.dirty = dirty;
    fr.ioPending = false;
    sh.map.findOrInsert(b) = f;
    pushFront(sh, f);
}

void
BufferCache::markClean(BlockId b)
{
    const std::uint32_t *f = shards_[shardOf(b)].map.find(b);
    if (f)
        frames_[*f].dirty = false;
}

void
BufferCache::resetStats()
{
    for (Shard &sh : shards_) {
        sh.gets = 0;
        sh.misses = 0;
        sh.dirtyEvictions = 0;
    }
}

} // namespace odbsim::db
