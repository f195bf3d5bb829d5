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
 * stay O(1) and safe across slot reuse), each in a fixed inline buffer
 * of EventQueue::smallCallbackBytes — a larger capture is a compile
 * error. Slot addresses are stable — chunks are never reallocated — so
 * a callback is constructed directly in its slot at schedule() time
 * and invoked in place when it fires: scheduling performs no heap
 * allocation and no type-erased moves once the slab is warm.
 *
 * Events are ordered by a hierarchical timer wheel: kWheelLevels
 * levels of kWheelBuckets buckets, one occupancy bitmask per level,
 * giving O(1) amortized schedule and fire at high event density. The
 * levels together span all 64 bits of a Tick, so every event has a
 * bucket however far ahead it is scheduled. Level-0 buckets are
 * single-tick cohorts, so the same-tick FIFO contract is restored by
 * one seq sort per cohort at fire time.
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

/**
 * Handle to a scheduled event; allows cancellation without searching
 * the queue (a bucket entry is unlinked in O(1); an entry already
 * collected for firing is marked dead and skipped).
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
    /** Largest callback capture, in bytes; a larger one does not
     *  compile. */
    static constexpr std::size_t smallCallbackBytes = 112;

    using Callback = SmallFunction<void(), smallCallbackBytes>;

    EventQueue();

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
    /** Number of wheel levels: enough digits for every bit of a Tick
     *  (the top level uses only the 4 bits left over). */
    static constexpr unsigned kWheelLevels =
        (64 + kWheelLevelShift - 1) / kWheelLevelShift;
    /** @} */

  private:
    friend class EventHandle;

    static constexpr std::uint32_t noSlot = 0xffffffffu;
    /** Slots per slab chunk (chunks are never moved, so slot
     *  addresses are stable across slab growth). */
    static constexpr std::uint32_t chunkShift = 9;
    static constexpr std::uint32_t chunkSlots = 1u << chunkShift;

    /** Where a live slot currently lives. */
    enum class Where : std::uint8_t
    {
        none,   ///< free
        bucket, ///< linked into a wheel bucket
        due,    ///< collected into the current firing cohort
    };

    /**
     * One slab entry. The generation counter is bumped when the event
     * fires or a cancelled entry is reclaimed, which invalidates every
     * outstanding handle to the old occupant before the slot is
     * reused. The slot also records the ordering key (when, seq), the
     * doubly-linked bucket neighbours, and the level/bucket
     * coordinates needed for O(1) unlink on cancel.
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

    /** Fire the slot at @p idx (generation bump, callback, release). */
    void fireSlot(std::uint32_t idx);

    /** @name Wheel internals @{ */
    static Tick
    digitOf(Tick pos, unsigned level)
    {
        return (pos >> (kWheelLevelShift * level)) & (kWheelBuckets - 1);
    }

    void linkIntoBucket(std::uint32_t idx, unsigned level, unsigned bucket);
    void unlinkFromBucket(std::uint32_t idx);
    /** Link a claimed slot (when/seq already set) into its bucket,
     *  relative to the current wheel position. */
    void placeSlot(std::uint32_t idx);
    /** Advance wheelPos_ to @p pos, cascading every bucket whose
     *  level digit changed down to its new level. */
    void advanceWheelTo(Tick pos);
    /**
     * Refill the due cohort with the earliest pending events without
     * advancing the wheel position past @p limit.
     * @return true if due_ holds an uncancelled event with
     *         when <= @p limit.
     */
    bool refillDue(Tick limit);
    /** @} */

    std::vector<std::unique_ptr<Slot[]>> chunks_;
    std::uint32_t slotCount_ = 0;
    std::uint32_t freeHead_ = noSlot;
    Tick curTick_ = 0;
    std::uint64_t nextSeq_ = 0;
    std::uint64_t fired_ = 0;
    std::size_t live_ = 0;

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
