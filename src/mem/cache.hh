/**
 * @file
 * A set-associative cache model with exact LRU replacement and
 * dirty-line tracking, used for the TLB and the scaled L2/L3 tag
 * stores of the simulated hierarchy.
 *
 * The model is a tag store only — no data is held — because odbsim
 * needs hit/miss/writeback behaviour, not values.
 */

#ifndef ODBSIM_MEM_CACHE_HH
#define ODBSIM_MEM_CACHE_HH

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
 * Each set keeps its tags contiguous, a valid and a dirty bit per way,
 * and its recency order: the way numbers, most recently used first,
 * packed four bits each into one 64-bit word. So a set holds at most
 * maxAssoc ways.
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
    /** Shape given at construction. */
    const CacheGeometry &geometry() const { return geom_; }

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

    /** Drop every line (e.g. between measurement runs). */
    void flush();

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
    /** Bit w set iff way w of @p set is valid and holds @p tag. */
    std::uint32_t matchMask(std::uint64_t set, Addr tag) const;

    std::string name_;
    CacheGeometry geom_;
    /** log2(lineBytes). */
    unsigned lineShift_;
    /** log2(lineBytes * numSets): a tag is the address above it. */
    unsigned tagShift_;
    std::uint64_t setMask_;
    /** Way mask of a full set. */
    std::uint32_t allWays_;
    /** Bit offset of the LRU way's number in SetState::order. */
    unsigned lruShift_;
    /** numSets * assoc tags, one set's ways contiguous. */
    std::vector<Addr> tags_;
    std::vector<SetState> sets_;
    std::uint64_t valid_ = 0;

    std::uint64_t accesses_ = 0;
    std::uint64_t misses_ = 0;
    std::uint64_t writebacks_ = 0;
};

} // namespace odbsim::mem

#endif // ODBSIM_MEM_CACHE_HH
