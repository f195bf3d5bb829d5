/**
 * @file
 * The discrete-event simulation kernel: events, the global event queue,
 * and the Simulator driver that advances simulated time.
 *
 * Events scheduled for the same tick fire in scheduling order (FIFO),
 * which keeps runs deterministic for a fixed seed.
 *
 * The queue is built for the hot path: callbacks live in a chunked
 * slab of reusable slots (addressed by index + generation, so handles
 * stay O(1) and safe across slot reuse), and callback captures up to
 * EventQueue::smallCallbackBytes are stored inline. Slot addresses are
 * stable — chunks are never reallocated — so a callback is constructed
 * directly in its slot at schedule() time and invoked in place when it
 * fires: scheduling performs no heap allocation and no type-erased
 * moves once the slab is warm.
 *
 * Two orderings are available over that storage, selected at
 * construction:
 *
 *  - EventQueueKind::wheel (the default): a hierarchical timer wheel —
 *    kWheelLevels levels of kWheelBuckets buckets, one occupancy
 *    bitmask per level — giving O(1) amortized schedule and fire at
 *    high event density. Level-0 buckets are single-tick cohorts, so
 *    the same-tick FIFO contract is restored by one seq sort per
 *    cohort at fire time. Events beyond the wheel horizon (or in a
 *    different 2^48-tick block than the wheel position) wait in a
 *    heap-ordered overflow and are cascaded into the wheel when the
 *    position reaches their block.
 *
 *  - EventQueueKind::heap: the previous global binary heap of 24-byte
 *    POD entries with lazy cancel reclamation. Kept as the differential
 *    oracle for the wheel (both fire in identical (when, seq) order,
 *    so whole runs are bit-identical across kinds).
 */

#ifndef ODBSIM_SIM_EVENT_QUEUE_HH
#define ODBSIM_SIM_EVENT_QUEUE_HH

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "sim/small_function.hh"
#include "sim/types.hh"

namespace odbsim
{

class EventQueue;

/** Ordering structure used by an EventQueue (see file comment). */
enum class EventQueueKind : std::uint8_t
{
    wheel, ///< hierarchical timer wheel + far-future overflow heap
    heap,  ///< single binary heap (the pre-wheel implementation)
};

/**
 * Handle to a scheduled event; allows cancellation without searching
 * the queue (wheel entries are unlinked in O(1); heap/overflow entries
 * are marked dead and skipped on pop).
 *
 * Handles are cheap value types: copies refer to the same event, so
 * pending()/cancel() agree across copies. A handle must not be used
 * after its EventQueue has been destroyed.
 */
class EventHandle
{
  public:
    EventHandle() = default;

    /** True if the handle refers to a still-pending event. */
    bool pending() const;

    /** Cancel the event if still pending (otherwise a no-op). */
    void cancel();

  private:
    friend class EventQueue;
    EventHandle(EventQueue *q, std::uint32_t idx, std::uint32_t gen)
        : q_(q), idx_(idx), gen_(gen)
    {}

    EventQueue *q_ = nullptr;
    std::uint32_t idx_ = 0;
    std::uint32_t gen_ = 0;
};

/**
 * Time-ordered queue of callback events.
 */
class EventQueue
{
  public:
    /** Captures up to this size are stored inline (no allocation). */
    static constexpr std::size_t smallCallbackBytes = 112;

    using Callback = SmallFunction<void(), smallCallbackBytes>;

    explicit EventQueue(EventQueueKind kind = EventQueueKind::wheel);

    /** Which ordering structure this queue was built with. */
    EventQueueKind kind() const { return kind_; }

    /** Current simulated time. */
    Tick curTick() const { return curTick_; }

    /**
     * Schedule a callback at an absolute tick.
     *
     * Contract: @p when must be >= curTick(). Debug builds enforce
     * this with a panic; release builds clamp a past tick to curTick()
     * so the event still fires (after all events already pending at
     * the current tick).
     *
     * The callable is constructed directly in its slab slot — pass
     * the lambda itself (not a pre-wrapped std::function) to stay on
     * the allocation-free path.
     */
    template <typename F>
    EventHandle
    schedule(Tick when, F &&cb)
    {
        const EventHandle h = scheduleSlot(when);
        slotAt(h.idx_).cb = std::forward<F>(cb);
        return h;
    }

    /** Schedule a callback after a relative delay. */
    template <typename F>
    EventHandle
    scheduleAfter(Tick delay, F &&cb)
    {
        return schedule(curTick_ + delay, std::forward<F>(cb));
    }

    /** True if no live events remain. */
    bool empty() const { return live_ == 0; }

    /** Number of live pending events (cancelled entries excluded). */
    std::size_t size() const { return live_; }

    /**
     * Fire the next event (advancing curTick to its scheduled time).
     * @return false if the queue was empty.
     */
    bool step();

    /**
     * Run until the queue drains or simulated time reaches the limit.
     * Events scheduled exactly at @p limit do fire.
     * @return the tick at which execution stopped.
     */
    Tick run(Tick limit);

    /** Run until the queue is empty. */
    Tick runAll();

    /** Total number of events fired so far. */
    std::uint64_t eventsFired() const { return fired_; }

    /** @name Wheel geometry (compile-time, exposed for tests) @{ */
    /** log2 of buckets per level. */
    static constexpr unsigned kWheelLevelShift = 6;
    /** Buckets per level. */
    static constexpr unsigned kWheelBuckets = 1u << kWheelLevelShift;
    /** Number of wheel levels. */
    static constexpr unsigned kWheelLevels = 8;
    /**
     * Ticks addressable by the wheel from the current position. Events
     * in a different 2^48-tick block than the wheel position wait in
     * the overflow heap (~281 simulated seconds per block at 1 tick =
     * 1 ps).
     */
    static constexpr Tick kWheelHorizon =
        Tick{1} << (kWheelLevelShift * kWheelLevels);
    /** @} */

  private:
    friend class EventHandle;

    static constexpr std::uint32_t noSlot = 0xffffffffu;
    /** Slots per slab chunk (chunks are never moved, so slot
     *  addresses are stable across slab growth). */
    static constexpr std::uint32_t chunkShift = 9;
    static constexpr std::uint32_t chunkSlots = 1u << chunkShift;

    /** Where a live slot currently lives (wheel kind only). */
    enum class Where : std::uint8_t
    {
        none,     ///< free, or owned by the heap kind (always lazy)
        bucket,   ///< linked into a wheel bucket
        overflow, ///< parked in the overflow heap
        due,      ///< collected into the current firing cohort
    };

    /**
     * One slab entry. The generation counter is bumped when the event
     * fires or a cancelled entry is reclaimed, which invalidates every
     * outstanding handle to the old occupant before the slot is
     * reused. The wheel kind additionally records the ordering key
     * (when, seq), the doubly-linked bucket neighbours, and the
     * level/bucket coordinates needed for O(1) unlink on cancel.
     */
    struct Slot
    {
        Callback cb;
        Tick when = 0;
        std::uint64_t seq = 0;
        std::uint32_t gen = 0;
        std::uint32_t next = noSlot; ///< bucket link, or freelist link
        std::uint32_t prev = noSlot;
        Where where = Where::none;
        bool cancelled = false;
        std::uint8_t level = 0;
        std::uint8_t bucket = 0;
    };

    /** Heap entry: ordering key plus the slab index — POD, 24 bytes.
     *  Used by the heap kind's single heap and the wheel's overflow. */
    struct HeapItem
    {
        Tick when;
        std::uint64_t seq;
        std::uint32_t idx;
    };

    /** Max-heap comparator under which the earliest event is on top. */
    struct Later
    {
        bool
        operator()(const HeapItem &a, const HeapItem &b) const
        {
            if (a.when != b.when)
                return a.when > b.when;
            return a.seq > b.seq;
        }
    };

    Slot &
    slotAt(std::uint32_t idx)
    {
        return chunks_[idx >> chunkShift][idx & (chunkSlots - 1)];
    }
    const Slot &
    slotAt(std::uint32_t idx) const
    {
        return chunks_[idx >> chunkShift][idx & (chunkSlots - 1)];
    }

    /** Clamp/assert @p when, claim a slot and enqueue it; the caller
     *  fills the slot's callback. */
    EventHandle scheduleSlot(Tick when);

    bool slotPending(std::uint32_t idx, std::uint32_t gen) const;
    void cancelSlot(std::uint32_t idx, std::uint32_t gen);
    std::uint32_t acquireSlot();
    void releaseSlot(std::uint32_t idx);
    HeapItem popTop(std::vector<HeapItem> &heap);

    /** Fire the slot at @p idx (generation bump, callback, release). */
    void fireSlot(std::uint32_t idx);

    /** @name Wheel internals @{ */
    static Tick
    digitOf(Tick pos, unsigned level)
    {
        return (pos >> (kWheelLevelShift * level)) & (kWheelBuckets - 1);
    }
    static Tick
    blockOf(Tick pos)
    {
        return pos >> (kWheelLevelShift * kWheelLevels);
    }

    void linkIntoBucket(std::uint32_t idx, unsigned level, unsigned bucket);
    void unlinkFromBucket(std::uint32_t idx);
    /** Place a claimed slot (when/seq already set) into the wheel or
     *  the overflow heap, relative to the current wheel position. */
    void placeSlot(std::uint32_t idx);
    /** Advance wheelPos_ to @p pos, cascading every bucket whose
     *  level digit changed down to its new level. */
    void advanceWheelTo(Tick pos);
    /** Move overflow entries belonging to wheelPos_'s block into the
     *  wheel, reclaiming cancelled ones. */
    void drainOverflow();
    /**
     * Refill the due cohort with the earliest pending events without
     * advancing the wheel position past @p limit.
     * @return true if due_ holds an uncancelled event with
     *         when <= @p limit.
     */
    bool refillDue(Tick limit);
    /** @} */

    bool stepHeap();
    Tick runHeap(Tick limit);

    std::vector<std::unique_ptr<Slot[]>> chunks_;
    std::uint32_t slotCount_ = 0;
    std::vector<HeapItem> heap_; ///< heap kind: all events; wheel
                                 ///< kind: far-future overflow
    std::uint32_t freeHead_ = noSlot;
    Tick curTick_ = 0;
    std::uint64_t nextSeq_ = 0;
    std::uint64_t fired_ = 0;
    std::size_t live_ = 0;
    EventQueueKind kind_ = EventQueueKind::wheel;

    /** Wheel position: <= curTick_ between events and <= every live
     *  event's when, so schedule() always inserts at or after it. */
    Tick wheelPos_ = 0;
    /** Per-level bucket occupancy bitmasks (bit b = bucket b). */
    std::array<std::uint64_t, kWheelLevels> occ_{};
    /** Bucket list heads, [level][bucket]. */
    std::array<std::array<std::uint32_t, kWheelBuckets>, kWheelLevels>
        bucketHead_;
    /** Current same-tick firing cohort, seq-sorted; reused storage. */
    std::vector<std::uint32_t> due_;
    std::size_t dueCursor_ = 0;
};

} // namespace odbsim

#endif // ODBSIM_SIM_EVENT_QUEUE_HH
