#include "mem/cache.hh"

#include <bit>

#include "sim/logging.hh"

namespace odbsim::mem
{

namespace
{

/**
 * @p order with the way number at bit offset @p shift moved to the
 * front (bits 0-3); the numbers ahead of it move back one place.
 */
std::uint64_t
moveToFront(std::uint64_t order, unsigned shift)
{
    const std::uint64_t ahead = (std::uint64_t{1} << shift) - 1;
    // Written so that shift == 60, the last of 16 ways, never shifts a
    // 64-bit value by 64.
    const std::uint64_t through = (ahead << 4) | 0xf;
    const std::uint64_t way = (order >> shift) & 0xf;
    return (order & ~through) | ((order & ahead) << 4) | way;
}

/** Bit offset of @p way's number in @p order (it must be present). */
unsigned
positionOf(std::uint64_t order, unsigned way)
{
    // XOR zeroes exactly the nibble holding `way`; the borrow trick
    // flags zero nibbles, and the lowest flag is always a true one
    // (false flags only appear above a true zero).
    constexpr std::uint64_t ones = 0x1111111111111111ULL;
    const std::uint64_t x = order ^ (way * ones);
    const std::uint64_t zeros = (x - ones) & ~x & (ones << 3);
    return static_cast<unsigned>(std::countr_zero(zeros)) & ~3u;
}

} // namespace

SetAssocCache::SetAssocCache(std::string name, const CacheGeometry &geom)
    : name_(std::move(name)), geom_(geom)
{
    odbsim_assert(geom.sizeBytes > 0 && geom.assoc > 0 &&
                      geom.lineBytes > 0,
                  "bad cache geometry for ", name_);
    odbsim_assert(geom.assoc <= maxAssoc, name_, " has ", geom.assoc,
                  " ways; a tag store holds at most ", maxAssoc);
    odbsim_assert(std::has_single_bit(geom.lineBytes),
                  "line size must be a power of two for ", name_);
    odbsim_assert(geom.sizeBytes % (geom.assoc * geom.lineBytes) == 0,
                  "cache size must be a multiple of assoc * line for ",
                  name_);
    const std::uint64_t num_sets = geom.numSets();
    odbsim_assert(std::has_single_bit(num_sets),
                  "number of sets must be a power of two for ", name_);
    lineShift_ = static_cast<unsigned>(std::countr_zero(geom.lineBytes));
    tagShift_ =
        lineShift_ + static_cast<unsigned>(std::countr_zero(num_sets));
    setMask_ = num_sets - 1;
    allWays_ = (std::uint32_t{1} << geom.assoc) - 1;
    lruShift_ = 4 * (geom.assoc - 1);
    tags_.resize(num_sets * geom.assoc);
    sets_.resize(num_sets);
}

std::uint32_t
SetAssocCache::matchMask(std::uint64_t set, Addr tag) const
{
    const Addr *tags = &tags_[set * geom_.assoc];
    std::uint32_t match = 0;
    for (std::uint32_t w = 0; w < geom_.assoc; ++w)
        match |= static_cast<std::uint32_t>(tags[w] == tag) << w;
    return match & sets_[set].valid;
}

CacheAccessResult
SetAssocCache::access(Addr addr, bool is_write)
{
    ++accesses_;

    const std::uint64_t set = setIndex(addr);
    const Addr tag = tagOf(addr);
    SetState &s = sets_[set];

    // A valid line never shares its tag with another in its set, so
    // at most one bit is set.
    if (const std::uint32_t hit = matchMask(set, tag)) {
        const auto way = static_cast<unsigned>(std::countr_zero(hit));
        s.order = moveToFront(s.order, positionOf(s.order, way));
        if (is_write)
            s.dirty |= hit;
        return CacheAccessResult{true, false, false, 0};
    }

    ++misses_;
    CacheAccessResult res;
    // Victim: the highest-numbered invalid way, else the LRU way.
    const std::uint32_t invalid = ~s.valid & allWays_;
    unsigned way;
    unsigned shift;
    if (invalid) {
        way = static_cast<unsigned>(std::bit_width(invalid)) - 1;
        shift = positionOf(s.order, way);
        s.valid |= std::uint32_t{1} << way;
        ++valid_;
    } else {
        shift = lruShift_;
        way = static_cast<unsigned>((s.order >> shift) & 0xf);
        res.evicted = true;
        res.evictedDirty = (s.dirty >> way) & 1;
        res.evictedLineAddr = (tags_[set * geom_.assoc + way] << tagShift_) |
                              (set << lineShift_);
        if (res.evictedDirty)
            ++writebacks_;
    }
    const std::uint32_t bit = std::uint32_t{1} << way;
    tags_[set * geom_.assoc + way] = tag;
    s.dirty = is_write ? (s.dirty | bit) : (s.dirty & ~bit);
    s.order = moveToFront(s.order, shift);
    return res;
}

bool
SetAssocCache::probe(Addr addr) const
{
    return matchMask(setIndex(addr), tagOf(addr)) != 0;
}

bool
SetAssocCache::probeDirty(Addr addr) const
{
    const std::uint64_t set = setIndex(addr);
    return (matchMask(set, tagOf(addr)) & sets_[set].dirty) != 0;
}

bool
SetAssocCache::invalidate(Addr addr)
{
    const std::uint64_t set = setIndex(addr);
    const std::uint32_t hit = matchMask(set, tagOf(addr));
    if (!hit)
        return false;
    SetState &s = sets_[set];
    const bool was_dirty = (s.dirty & hit) != 0;
    s.valid &= ~hit;
    s.dirty &= ~hit;
    --valid_;
    return was_dirty;
}

void
SetAssocCache::flush()
{
    for (auto &s : sets_) {
        s.valid = 0;
        s.dirty = 0;
    }
    valid_ = 0;
}

void
SetAssocCache::resetStats()
{
    accesses_ = 0;
    misses_ = 0;
    writebacks_ = 0;
}

} // namespace odbsim::mem
