/**
 * @file
 * A set-associative cache model with exact LRU replacement and
 * dirty-line tracking, used for the scaled L2/L3 tag stores of the
 * simulated hierarchy.
 *
 * The model is a tag store only — no data is held — because odbsim
 * needs hit/miss/writeback behaviour, not values.
 */

#ifndef ODBSIM_MEM_CACHE_HH
#define ODBSIM_MEM_CACHE_HH

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/stats.hh"
#include "sim/types.hh"

namespace odbsim::mem
{

/** Static shape of a cache. */
struct CacheGeometry
{
    /** Total capacity in bytes. */
    std::uint64_t sizeBytes = 0;
    /** Ways per set. */
    std::uint32_t assoc = 0;
    /** Line size in bytes. */
    std::uint32_t lineBytes = 64;

    /** Total line count (capacity / line size). */
    std::uint64_t numLines() const { return sizeBytes / lineBytes; }
    /** Set count (lines / associativity). */
    std::uint64_t numSets() const { return numLines() / assoc; }
};

/** Result of a cache access. */
struct CacheAccessResult
{
    /** The line was resident (no fill needed). */
    bool hit = false;
    /** A valid line was evicted to make room. */
    bool evicted = false;
    /** The evicted line was dirty (writeback needed). */
    bool evictedDirty = false;
    /** Line address (not tag) of the evicted victim, if any. */
    Addr evictedLineAddr = 0;
};

/**
 * Tag-store set-associative cache with exact LRU.
 *
 * Each set keeps its tags contiguous at a stride of 8 or 16 (the way
 * count rounded up), a valid and a dirty bit per way, and its recency
 * order: the way numbers, most recently used first, packed four bits
 * each into one 64-bit word. So a set holds at most maxAssoc ways.
 * Lookups compare a fixed 8 or 16 tags; the ways past the way count
 * pad the stride and are never valid.
 */
class SetAssocCache
{
  public:
    /** Widest set the packed recency order can hold. */
    static constexpr std::uint32_t maxAssoc = 16;

    /**
     * @param name Label used in statistics reporting.
     * @param geom Capacity/associativity/line-size shape; sizeBytes
     *        and assoc must be non-zero and consistent, assoc at most
     *        maxAssoc, and the line and set counts powers of two.
     */
    SetAssocCache(std::string name, const CacheGeometry &geom);

    /** Label given at construction. */
    const std::string &name() const { return name_; }

    /**
     * Access the cache, allocating on miss.
     *
     * @param addr Byte address of the reference.
     * @param is_write Marks the line dirty on hit or fill.
     */
    CacheAccessResult access(Addr addr, bool is_write);

    /** Check for presence without updating LRU or allocating. */
    bool probe(Addr addr) const;

    /** Probe and report whether the resident line is dirty. */
    bool probeDirty(Addr addr) const;

    /**
     * Invalidate a line if present.
     * @return true if the line was present and dirty.
     */
    bool invalidate(Addr addr);

    /** Number of currently valid lines. */
    std::uint64_t validLines() const { return valid_; }

    /** @name Raw statistics @{ */
    /** Total access() calls since the last resetStats(). */
    std::uint64_t accesses() const { return accesses_; }
    /** Accesses that missed and allocated. */
    std::uint64_t misses() const { return misses_; }
    /** Dirty evictions (writebacks to the next level). */
    std::uint64_t writebacks() const { return writebacks_; }
    /** misses / accesses, 0 when idle. */
    double
    missRatio() const
    {
        return accesses_ ? static_cast<double>(misses_) /
                               static_cast<double>(accesses_)
                         : 0.0;
    }
    /** Zero every counter above (cache state is kept). */
    void resetStats();
    /** @} */

  private:
    /**
     * Replacement state of one set. `order` holds the way numbers
     * most recently used first (bits 0-3 name the MRU way). Only
     * access() reorders it, moving the way it hits or fills to the
     * front, so it ranks the valid ways by their last access; where
     * an invalid way sits in it does not matter. It starts as the
     * identity: with fewer than 16 ways, the numbers past the last
     * way are never searched for or moved.
     */
    struct SetState
    {
        std::uint64_t order = 0xfedcba9876543210ULL;
        /** Bit w: way w holds a line. */
        std::uint32_t valid = 0;
        /** Bit w: way w's line is dirty (only meaningful if valid). */
        std::uint32_t dirty = 0;
    };

    std::uint64_t
    setIndex(Addr addr) const
    {
        return (addr >> lineShift_) & setMask_;
    }
    Addr tagOf(Addr addr) const { return addr >> tagShift_; }
    /** Index of way 0 of @p set in tags_. */
    std::uint64_t
    tagBase(std::uint64_t set) const
    {
        return set << strideShift_;
    }

    /** Bit w set iff tags[w] == @p tag, for w below @p Width. */
    template <unsigned Width>
    static std::uint32_t
    matchTags(const Addr *tags, Addr tag)
    {
        std::uint32_t match = 0;
        for (unsigned w = 0; w < Width; ++w)
            match |= static_cast<std::uint32_t>(tags[w] == tag) << w;
        return match;
    }

    /**
     * Bit w set iff way w of @p set is valid and holds @p tag. The
     * padding ways past the way count are never valid, so the valid
     * mask drops whatever they hold.
     */
    std::uint32_t
    matchMask(std::uint64_t set, Addr tag) const
    {
        const Addr *tags = &tags_[tagBase(set)];
        const std::uint32_t match = strideShift_ == 3
                                        ? matchTags<8>(tags, tag)
                                        : matchTags<16>(tags, tag);
        return match & sets_[set].valid;
    }

    /**
     * @p order with the way number at bit offset @p shift moved to the
     * front (bits 0-3); the numbers ahead of it move back one place.
     */
    static std::uint64_t
    moveToFront(std::uint64_t order, unsigned shift)
    {
        const std::uint64_t ahead = (std::uint64_t{1} << shift) - 1;
        // Written so that shift == 60, the last of 16 ways, never
        // shifts a 64-bit value by 64.
        const std::uint64_t through = (ahead << 4) | 0xf;
        const std::uint64_t way = (order >> shift) & 0xf;
        return (order & ~through) | ((order & ahead) << 4) | way;
    }

    /** Bit offset of @p way's number in @p order (it must be present). */
    static unsigned
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

    std::string name_;
    /** log2(lineBytes). */
    unsigned lineShift_;
    /** log2(lineBytes * numSets): a tag is the address above it. */
    unsigned tagShift_;
    std::uint64_t setMask_;
    /** log2 of a set's tag stride: 3 up to 8 ways, else 4. */
    unsigned strideShift_;
    /** Way mask of a full set. */
    std::uint32_t allWays_;
    /** Bit offset of the LRU way's number in SetState::order. */
    unsigned lruShift_;
    /** numSets tag strides, one set's ways contiguous from its
     *  tagBase(). */
    std::vector<Addr> tags_;
    std::vector<SetState> sets_;
    std::uint64_t valid_ = 0;

    std::uint64_t accesses_ = 0;
    std::uint64_t misses_ = 0;
    std::uint64_t writebacks_ = 0;
};

inline CacheAccessResult
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
    // Victim: the highest-numbered invalid way, else the LRU way. Both
    // name a way below assoc: allWays_ masks the invalid ones, and the
    // recency list's last place among the first assoc holds one.
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
        res.evictedLineAddr = (tags_[tagBase(set) + way] << tagShift_) |
                              (set << lineShift_);
        writebacks_ += res.evictedDirty;
    }
    const std::uint32_t bit = std::uint32_t{1} << way;
    tags_[tagBase(set) + way] = tag;
    s.dirty = is_write ? (s.dirty | bit) : (s.dirty & ~bit);
    s.order = moveToFront(s.order, shift);
    return res;
}

inline bool
SetAssocCache::probe(Addr addr) const
{
    return matchMask(setIndex(addr), tagOf(addr)) != 0;
}

inline bool
SetAssocCache::probeDirty(Addr addr) const
{
    const std::uint64_t set = setIndex(addr);
    return (matchMask(set, tagOf(addr)) & sets_[set].dirty) != 0;
}

inline bool
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

} // namespace odbsim::mem

#endif // ODBSIM_MEM_CACHE_HH
