#include "sim/event_queue.hh"

#include <algorithm>
#include <bit>
#include <limits>

#include "sim/logging.hh"

namespace odbsim
{

namespace
{
constexpr Tick maxTick = std::numeric_limits<Tick>::max();
} // namespace

EventQueue::EventQueue()
{
    for (auto &level : bucketHead_)
        level.fill(noSlot);
}

bool
EventHandle::pending() const
{
    return q_ && q_->slotPending(idx_, gen_);
}

void
EventHandle::cancel()
{
    if (q_)
        q_->cancelSlot(idx_, gen_);
}

bool
EventQueue::slotPending(std::uint32_t idx, std::uint32_t gen) const
{
    // A released slot has its generation bumped, so a stale handle
    // (fired event, or a reclaimed cancelled entry) never matches.
    if (idx >= slotCount_)
        return false;
    const Slot &s = slotAt(idx);
    return s.gen == gen && !s.cancelled;
}

void
EventQueue::cancelSlot(std::uint32_t idx, std::uint32_t gen)
{
    if (!slotPending(idx, gen))
        return;
    Slot &s = slotAt(idx);
    --live_;
    if (s.where == Where::bucket) {
        // Wheel buckets are doubly linked, so a cancelled event is
        // unlinked and its slot reclaimed immediately — a bucket never
        // holds dead entries, which is what lets advanceWheelTo() skip
        // passed-over buckets without sweeping them.
        unlinkFromBucket(idx);
        releaseSlot(idx);
        return;
    }
    // A collected due cohort reclaims lazily: the entry is dropped,
    // and the slot recycled, when refillDue() reaches it.
    s.cancelled = true;
}

std::uint32_t
EventQueue::acquireSlot()
{
    if (freeHead_ != noSlot) {
        const std::uint32_t idx = freeHead_;
        freeHead_ = slotAt(idx).next;
        return idx;
    }
    if ((slotCount_ & (chunkSlots - 1)) == 0)
        chunks_.push_back(std::make_unique<Slot[]>(chunkSlots));
    return slotCount_++;
}

void
EventQueue::releaseSlot(std::uint32_t idx)
{
    Slot &s = slotAt(idx);
    s.cb.reset();
    s.cancelled = false;
    s.where = Where::none;
    ++s.gen; // invalidate outstanding handles before reuse
    s.next = freeHead_;
    freeHead_ = idx;
}

EventHandle
EventQueue::scheduleSlot(Tick when)
{
#ifndef NDEBUG
    odbsim_assert(when >= curTick_,
                  "event scheduled in the past: ", when, " < ", curTick_);
#endif
    if (when < curTick_)
        when = curTick_; // release builds clamp to "fire now"

    const std::uint32_t idx = acquireSlot();
    Slot &s = slotAt(idx);
    s.when = when;
    s.seq = nextSeq_++;
    ++live_;
    // An empty wheel can fast-forward to the present: there is no live
    // event below curTick_ for the position to stay under.
    if (live_ == 1 && wheelPos_ < curTick_)
        wheelPos_ = curTick_;
    placeSlot(idx);
    return EventHandle(this, idx, s.gen);
}

void
EventQueue::fireSlot(std::uint32_t idx)
{
    Slot &s = slotAt(idx);
    curTick_ = s.when;
    --live_;
    ++fired_;
    // Bump the generation before invoking so the callback sees its
    // own handle as no-longer-pending (cancel-after-fire is a
    // no-op). The callback runs in place — slot addresses are
    // stable and this slot is not on the freelist yet, so a
    // reentrant schedule() cannot clobber the callable mid-call.
    ++s.gen;
    s.cb();
    s.cb.reset();
    s.cancelled = false;
    s.where = Where::none;
    s.next = freeHead_;
    freeHead_ = idx;
}

void
EventQueue::linkIntoBucket(std::uint32_t idx, unsigned level,
                           unsigned bucket)
{
    Slot &s = slotAt(idx);
    s.where = Where::bucket;
    s.level = static_cast<std::uint8_t>(level);
    s.bucket = static_cast<std::uint8_t>(bucket);
    s.prev = noSlot;
    s.next = bucketHead_[level][bucket];
    if (s.next != noSlot)
        slotAt(s.next).prev = idx;
    bucketHead_[level][bucket] = idx;
    occ_[level] |= std::uint64_t{1} << bucket;
}

void
EventQueue::unlinkFromBucket(std::uint32_t idx)
{
    Slot &s = slotAt(idx);
    if (s.prev != noSlot) {
        slotAt(s.prev).next = s.next;
    } else {
        bucketHead_[s.level][s.bucket] = s.next;
        if (s.next == noSlot)
            occ_[s.level] &= ~(std::uint64_t{1} << s.bucket);
    }
    if (s.next != noSlot)
        slotAt(s.next).prev = s.prev;
}

void
EventQueue::placeSlot(std::uint32_t idx)
{
    const Slot &s = slotAt(idx);
    // The level is the highest digit in which the event's time differs
    // from the wheel position; equal times land in the level-0 bucket
    // of the position itself (the due-now cohort).
    const Tick x = s.when ^ wheelPos_;
    const unsigned level =
        x ? (std::bit_width(x) - 1) / kWheelLevelShift : 0u;
    linkIntoBucket(idx, level,
                   static_cast<unsigned>(digitOf(s.when, level)));
}

void
EventQueue::advanceWheelTo(Tick pos)
{
    const Tick changed = wheelPos_ ^ pos;
    wheelPos_ = pos;
    if (changed < kWheelBuckets)
        return; // only digit 0 moved: level-0 buckets stay valid
    // Every level whose digit changed must cascade the bucket the new
    // position landed in: its members are no longer "strictly ahead"
    // at that level and re-place into lower levels (or the due-now
    // bucket). Buckets passed over entirely are provably empty — the
    // position only ever advances to the earliest live event time.
    // Levels above the highest changed digit keep their buckets.
    const unsigned top =
        (static_cast<unsigned>(std::bit_width(changed)) - 1) /
        kWheelLevelShift;
    for (unsigned l = top; l >= 1; --l) {
        if (!digitOf(changed, l))
            continue;
        const unsigned b = static_cast<unsigned>(digitOf(pos, l));
        if (!(occ_[l] >> b & 1))
            continue;
        std::uint32_t n = bucketHead_[l][b];
        bucketHead_[l][b] = noSlot;
        occ_[l] &= ~(std::uint64_t{1} << b);
        while (n != noSlot) {
            const std::uint32_t nx = slotAt(n).next;
            placeSlot(n); // re-links, landing strictly below level l
            n = nx;
        }
    }
}

bool
EventQueue::refillDue(Tick limit)
{
    // Serve out any cohort left over from a previous step() first,
    // reclaiming members cancelled since collection.
    while (dueCursor_ < due_.size()) {
        const std::uint32_t idx = due_[dueCursor_];
        if (slotAt(idx).cancelled) {
            releaseSlot(idx);
            ++dueCursor_;
            continue;
        }
        return slotAt(idx).when <= limit;
    }
    due_.clear();
    dueCursor_ = 0;

    for (;;) {
        // Level 0 first: the lowest occupied bucket at or after the
        // position's own digit is the earliest event in the wheel
        // (lower levels are provably earlier than higher ones).
        const unsigned d0 = static_cast<unsigned>(digitOf(wheelPos_, 0));
        const std::uint64_t m0 = occ_[0] & (~std::uint64_t{0} << d0);
        if (m0) {
            const unsigned b =
                static_cast<unsigned>(std::countr_zero(m0));
            const Tick when =
                (wheelPos_ & ~Tick{kWheelBuckets - 1}) | b;
            if (when > limit)
                return false;
            wheelPos_ = when; // digit-0 move only: nothing cascades
            // A level-0 bucket is a single-tick cohort; one seq sort
            // restores the same-tick FIFO firing contract.
            occ_[0] &= ~(std::uint64_t{1} << b);
            std::uint32_t n = bucketHead_[0][b];
            bucketHead_[0][b] = noSlot;
            while (n != noSlot) {
                Slot &s = slotAt(n);
                s.where = Where::due;
                due_.push_back(n);
                n = s.next;
            }
            std::sort(due_.begin(), due_.end(),
                      [this](std::uint32_t a, std::uint32_t c) {
                          return slotAt(a).seq < slotAt(c).seq;
                      });
            return true;
        }
        unsigned l = 1;
        while (l < kWheelLevels && !occ_[l])
            ++l;
        if (l == kWheelLevels)
            return false; // no level occupied: nothing is pending
        // Advance to the start of the lowest occupied bucket of the
        // lowest occupied level — never past the earliest live event,
        // and never past the caller's limit — and cascade it down. The
        // start keeps the position's digits above level l; the top
        // level has none (shifting a Tick by 64 or more is undefined).
        const unsigned b = static_cast<unsigned>(std::countr_zero(occ_[l]));
        const unsigned shift = kWheelLevelShift * l;
        const unsigned upper = shift + kWheelLevelShift;
        const Tick above =
            l + 1 < kWheelLevels ? wheelPos_ >> upper << upper : 0;
        const Tick start = above | (Tick{b} << shift);
        if (start > limit)
            return false;
        advanceWheelTo(start);
    }
}

bool
EventQueue::step()
{
    if (!refillDue(maxTick))
        return false;
    fireSlot(due_[dueCursor_++]);
    return true;
}

Tick
EventQueue::run(Tick limit)
{
    while (refillDue(limit))
        fireSlot(due_[dueCursor_++]);
    curTick_ = std::max(curTick_, limit);
    return curTick_;
}

Tick
EventQueue::runAll()
{
    while (step()) {
    }
    return curTick_;
}

} // namespace odbsim
