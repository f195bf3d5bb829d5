/**
 * @file
 * A directory that tracks, per cache line, which CPUs hold the line and
 * whether one of them holds it modified. It classifies L3 misses as
 * coherence misses (serviced by a remote dirty copy) versus ordinary
 * capacity/conflict misses, and drives invalidation of remote copies on
 * writes — the mechanism behind the paper's observation that coherence
 * traffic contributes little on the 4-way system (Section 5.2).
 *
 * The directory sits on the memory-system hot path (every write hit,
 * L3 fill, eviction and DMA snoop touches it), so its storage is a
 * sim::FlatMap — the flat open-addressing table that originated here
 * and was extracted to sim/flat_map.hh once the db layer needed the
 * same discipline: packed 16-byte slots, power-of-two capacity with
 * Fibonacci hashing and linear probing, and backward-shift deletion
 * (no tombstones, so probe chains never rot). After warm-up the table
 * performs zero heap allocations — growth only happens while the
 * tracked-line population reaches a new high-water mark (observable
 * via tableAllocations()).
 * MemorySystem reserve()s four times the lines its caches can keep
 * resident, so the load stays near 1/8: every L3 miss erases one
 * entry and inserts another, and at higher loads those probe-cluster
 * walks and backward shifts cost more than the larger table.
 *
 * A one-CPU machine makes the same calls as any other. Every
 * transition keeps a line's modified owner among its sharers, so a
 * line no other CPU shares has no remote dirty copy either. onFill
 * settles that case, which is every fill on one CPU, with one check,
 * and onWriteHit on one CPU returns an empty mask; both keep the line
 * tracked, which snoop(), onDmaFill() and trackedLines() read.
 */

#ifndef ODBSIM_MEM_COHERENCE_HH
#define ODBSIM_MEM_COHERENCE_HH

#include <cstddef>
#include <cstdint>
#include <limits>

#include "sim/flat_map.hh"
#include "sim/types.hh"

namespace odbsim::mem
{

/** Maximum CPUs trackable by the sharer bitmask. */
constexpr unsigned maxCoherentCpus = 32;

/** What the directory decided about a miss. */
struct CoherenceOutcome
{
    /** The line was dirty in another CPU's cache (coherence miss). */
    bool remoteDirty = false;
    /** CPU that held the dirty copy (valid when remoteDirty). */
    unsigned remoteOwner = 0;
    /** Bitmask of CPUs whose copies must be invalidated (writes). */
    std::uint32_t invalidateMask = 0;

    /**
     * CPUs whose copies the fill leaves stale: the sharers a write
     * invalidates, plus the remote dirty owner, whose copy moves to
     * the requester.
     */
    std::uint32_t
    staleCopies() const
    {
        return invalidateMask |
               (static_cast<std::uint32_t>(remoteDirty) << remoteOwner);
    }
};

/** Current residency of a line, for snooping. */
struct SnoopState
{
    bool tracked = false;
    std::uint32_t sharers = 0;
    std::int16_t modifiedOwner = -1;
};

/**
 * Sharer/owner directory over cache-line addresses.
 */
class CoherenceDirectory
{
  public:
    /** @param num_cpus Width of the sharer masks (<= 32 CPUs). */
    explicit CoherenceDirectory(unsigned num_cpus);

    /**
     * Record an L3 miss (line fill) by @p cpu and classify it.
     * Ownership state is updated: writes make @p cpu exclusive owner.
     */
    CoherenceOutcome onFill(unsigned cpu, Addr line_addr, bool is_write);

    /**
     * Record a write hit by @p cpu: remote sharers get invalidated.
     * @return bitmask of CPUs whose copies must be invalidated.
     */
    std::uint32_t onWriteHit(unsigned cpu, Addr line_addr);

    /** Look up the residency of a line without changing state. */
    SnoopState snoop(Addr line_addr) const;

    /** A line silently left @p cpu's L3 (eviction). */
    void onEviction(unsigned cpu, Addr line_addr);

    /** DMA overwrote the line: all cached copies are stale. */
    void onDmaFill(Addr line_addr);

    /** Lines currently tracked. */
    std::size_t trackedLines() const { return table_.size(); }

    /**
     * Pre-size the table for @p lines tracked lines: no rehash until
     * the population passes @p lines, and a load of at most 7/8 at
     * it. Never shrinks.
     */
    void reserve(std::size_t lines);

    /** @name Allocation observability (perf-test hook) @{ */
    /** Slots in the flat table (always a power of two). */
    std::size_t capacity() const { return table_.capacity(); }
    /**
     * Heap allocations the table has performed so far (construction,
     * reserve() and load-driven rehashes). Steady-state operation —
     * any churn whose tracked population stays at or below the
     * high-water mark — must not advance this.
     */
    std::uint64_t tableAllocations() const { return table_.allocations(); }
    /** @} */

    /** @name Raw statistics @{ */
    /** Fills classified as dirty-in-a-remote-cache (onFill). */
    std::uint64_t coherenceMisses() const { return coherenceMisses_; }
    /** Total sharer invalidations requested by write fills. */
    std::uint64_t invalidationsSent() const { return invalidations_; }
    /** Zero both counters (directory state is kept). */
    void
    resetStats()
    {
        coherenceMisses_ = 0;
        invalidations_ = 0;
    }
    /** @} */

  private:
    /** Sharer/owner state for one tracked line. */
    struct LineState
    {
        std::uint32_t sharers = 0;
        std::int16_t modifiedOwner = -1;
    };

    /**
     * Tracked lines. FlatMap keeps its liveness flags in a side array,
     * so a stored slot is exactly {Addr, LineState} — the same 16
     * packed bytes the original in-class table used.
     */
    using Table = sim::FlatMap<Addr, LineState>;
    static_assert(sizeof(Table::Slot) == 16,
                  "directory slot must stay packed");
    static_assert(maxCoherentCpus <=
                      static_cast<unsigned>(
                          std::numeric_limits<std::int16_t>::max()),
                  "modifiedOwner must be able to hold any CPU id");
    static_assert(maxCoherentCpus <= 32,
                  "sharers bitmask is 32 bits wide");

    /**
     * Set bits of @p mask: std::popcount without a library call. The
     * baseline x86-64 ISA has no popcount instruction, so std::popcount
     * there calls libgcc on every SMP write hit and write fill.
     */
    static unsigned
    sharerCount(std::uint32_t mask)
    {
        mask -= (mask >> 1) & 0x55555555u;
        mask = (mask & 0x33333333u) + ((mask >> 2) & 0x33333333u);
        return (((mask + (mask >> 4)) & 0x0f0f0f0fu) * 0x01010101u) >> 24;
    }

    Table table_;
    std::uint64_t coherenceMisses_ = 0;
    std::uint64_t invalidations_ = 0;
};

// The per-reference entry points are inline: the memory system's
// access path calls them on every write hit, L3 fill and eviction.

inline CoherenceOutcome
CoherenceDirectory::onFill(unsigned cpu, Addr line_addr, bool is_write)
{
    CoherenceOutcome out;
    LineState &e = table_.findOrInsert(line_addr);
    const std::uint32_t self = 1u << cpu;
    if ((e.sharers & ~self) == 0) {
        // No other CPU holds the line, which is always so on a one-CPU
        // machine. An owner is always also a sharer, so no remote dirty
        // copy exists either: nothing to report or invalidate.
        e.sharers = self;
        if (is_write)
            e.modifiedOwner = static_cast<std::int16_t>(cpu);
        return out;
    }

    if (e.modifiedOwner >= 0 &&
        static_cast<unsigned>(e.modifiedOwner) != cpu) {
        out.remoteDirty = true;
        out.remoteOwner = static_cast<unsigned>(e.modifiedOwner);
        ++coherenceMisses_;
    }

    if (is_write) {
        const std::uint32_t remote = e.sharers & ~self;
        out.invalidateMask = remote;
        invalidations_ += sharerCount(remote);
        e.sharers = self;
        e.modifiedOwner = static_cast<std::int16_t>(cpu);
    } else {
        // A remote dirty copy is downgraded to shared by the fill.
        if (out.remoteDirty)
            e.modifiedOwner = -1;
        e.sharers |= self;
    }
    return out;
}

inline std::uint32_t
CoherenceDirectory::onWriteHit(unsigned cpu, Addr line_addr)
{
    LineState &e = table_.findOrInsert(line_addr);
    const std::uint32_t self = 1u << cpu;
    const std::uint32_t remote = e.sharers & ~self;
    invalidations_ += sharerCount(remote);
    e.sharers = self;
    e.modifiedOwner = static_cast<std::int16_t>(cpu);
    return remote;
}

inline void
CoherenceDirectory::onEviction(unsigned cpu, Addr line_addr)
{
    const std::size_t i = table_.findIndex(line_addr);
    if (i == Table::npos)
        return;
    LineState &e = table_.valueAt(i);
    e.sharers &= ~(1u << cpu);
    if (e.modifiedOwner >= 0 &&
        static_cast<unsigned>(e.modifiedOwner) == cpu) {
        e.modifiedOwner = -1;
    }
    if (e.sharers == 0 && e.modifiedOwner < 0)
        table_.eraseAt(i);
}

} // namespace odbsim::mem

#endif // ODBSIM_MEM_COHERENCE_HH
