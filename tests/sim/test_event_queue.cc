/**
 * @file
 * Unit tests for the discrete-event kernel: ordering, same-tick FIFO,
 * cancellation, run limits, and the timer wheel's levels over the
 * whole Tick range.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "sim/event_queue.hh"

namespace
{

using namespace odbsim;

TEST(EventQueue, StartsAtTickZeroAndEmpty)
{
    EventQueue eq;
    EXPECT_EQ(eq.curTick(), 0u);
    EXPECT_TRUE(eq.empty());
    EXPECT_FALSE(eq.step());
}

TEST(EventQueue, FiresInTimeOrder)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(30, [&] { order.push_back(3); });
    eq.schedule(10, [&] { order.push_back(1); });
    eq.schedule(20, [&] { order.push_back(2); });
    eq.runAll();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.curTick(), 30u);
}

TEST(EventQueue, SameTickFiresInScheduleOrder)
{
    EventQueue eq;
    std::vector<int> order;
    for (int i = 0; i < 8; ++i)
        eq.schedule(5, [&order, i] { order.push_back(i); });
    eq.runAll();
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(order[i], i);
}

TEST(EventQueue, AdvancesCurTickToEventTime)
{
    EventQueue eq;
    Tick seen = 0;
    eq.schedule(42, [&] { seen = eq.curTick(); });
    eq.runAll();
    EXPECT_EQ(seen, 42u);
}

TEST(EventQueue, ScheduleAfterIsRelative)
{
    EventQueue eq;
    Tick seen = 0;
    eq.schedule(10, [&] {
        eq.scheduleAfter(5, [&] { seen = eq.curTick(); });
    });
    eq.runAll();
    EXPECT_EQ(seen, 15u);
}

TEST(EventQueue, RunStopsAtLimit)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(10, [&] { ++fired; });
    eq.schedule(20, [&] { ++fired; });
    eq.schedule(30, [&] { ++fired; });
    eq.run(20);
    EXPECT_EQ(fired, 2); // Events at the limit fire.
    EXPECT_EQ(eq.curTick(), 20u);
    eq.runAll();
    EXPECT_EQ(fired, 3);
}

TEST(EventQueue, RunToLimitAdvancesTimeEvenWithoutEvents)
{
    EventQueue eq;
    eq.run(1000);
    EXPECT_EQ(eq.curTick(), 1000u);
}

TEST(EventQueue, CancelledEventDoesNotFire)
{
    EventQueue eq;
    int fired = 0;
    EventHandle h = eq.schedule(10, [&] { ++fired; });
    EXPECT_TRUE(h.pending());
    h.cancel();
    EXPECT_FALSE(h.pending());
    eq.runAll();
    EXPECT_EQ(fired, 0);
}

TEST(EventQueue, CancelAfterFireIsHarmless)
{
    EventQueue eq;
    int fired = 0;
    EventHandle h = eq.schedule(10, [&] { ++fired; });
    eq.runAll();
    EXPECT_FALSE(h.pending());
    h.cancel();
    EXPECT_EQ(fired, 1);
}

TEST(EventQueue, EventsScheduledDuringEventsFire)
{
    EventQueue eq;
    int depth = 0;
    std::function<void()> recurse = [&] {
        if (++depth < 5)
            eq.scheduleAfter(1, recurse);
    };
    eq.schedule(0, recurse);
    eq.runAll();
    EXPECT_EQ(depth, 5);
    EXPECT_EQ(eq.curTick(), 4u);
}

TEST(EventQueue, CountsFiredEvents)
{
    EventQueue eq;
    for (int i = 0; i < 10; ++i)
        eq.schedule(i, [] {});
    eq.runAll();
    EXPECT_EQ(eq.eventsFired(), 10u);
}

TEST(EventQueue, DefaultHandleIsNotPending)
{
    EventHandle h;
    EXPECT_FALSE(h.pending());
    h.cancel(); // Must not crash.
}

TEST(EventQueue, HandleCopiesAgreeOnPendingAndCancel)
{
    EventQueue eq;
    int fired = 0;
    EventHandle a = eq.schedule(10, [&] { ++fired; });
    EventHandle b = a; // copies refer to the same event
    EXPECT_TRUE(a.pending());
    EXPECT_TRUE(b.pending());
    b.cancel();
    EXPECT_FALSE(a.pending());
    EXPECT_FALSE(b.pending());
    a.cancel(); // double cancel through the other copy: no-op
    eq.runAll();
    EXPECT_EQ(fired, 0);
}

TEST(EventQueue, SizeExcludesCancelledEvents)
{
    EventQueue eq;
    EventHandle a = eq.schedule(10, [] {});
    EventHandle b = eq.schedule(20, [] {});
    eq.schedule(30, [] {});
    EXPECT_EQ(eq.size(), 3u);
    a.cancel();
    EXPECT_EQ(eq.size(), 2u);
    b.cancel();
    b.cancel(); // idempotent: must not decrement twice
    EXPECT_EQ(eq.size(), 1u);
    EXPECT_FALSE(eq.empty());
    eq.runAll();
    EXPECT_EQ(eq.size(), 0u);
    EXPECT_TRUE(eq.empty());
}

TEST(EventQueue, StaleHandleCannotCancelRecycledSlot)
{
    EventQueue eq;
    int first = 0, second = 0;
    EventHandle stale = eq.schedule(10, [&] { ++first; });
    eq.runAll();
    EXPECT_FALSE(stale.pending());
    // The fired event's slot is recycled for the next schedule; the
    // stale handle's generation no longer matches, so cancelling it
    // must not kill the new occupant.
    EventHandle fresh = eq.schedule(20, [&] { ++second; });
    stale.cancel();
    EXPECT_TRUE(fresh.pending());
    eq.runAll();
    EXPECT_EQ(first, 1);
    EXPECT_EQ(second, 1);
}

TEST(EventQueue, CallbackSeesOwnHandleAsFired)
{
    EventQueue eq;
    EventHandle h;
    bool was_pending = true;
    h = eq.schedule(10, [&] {
        was_pending = h.pending();
        h.cancel(); // cancel-after-fire from inside: must be a no-op
    });
    eq.runAll();
    EXPECT_FALSE(was_pending);
    EXPECT_EQ(eq.eventsFired(), 1u);
}

// Release builds clamp a past tick to curTick(); debug builds panic.
// NDEBUG selects which contract this binary can observe.
#ifdef NDEBUG
TEST(EventQueue, ScheduleInPastClampsToNowInRelease)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(100, [&] {
        order.push_back(1);
        // Tick 40 is already in the past: fires at curTick()=100,
        // after everything already pending at this tick.
        eq.schedule(40, [&] { order.push_back(3); });
    });
    eq.schedule(100, [&] { order.push_back(2); });
    eq.runAll();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.curTick(), 100u);
}
#else
TEST(EventQueueDeathTest, ScheduleInPastPanicsInDebug)
{
    EXPECT_DEATH(
        {
            EventQueue eq;
            eq.schedule(100, [] {});
            eq.runAll(); // curTick is now 100
            eq.schedule(40, [] {});
        },
        "scheduled in the past");
}
#endif

/**
 * Stress: random schedule/cancel/step churn checked against a naive
 * reference model. Deltas mix a few ticks, up to 3M ticks and anywhere
 * up to the last Tick, so events land on every wheel level, the top
 * level included, and cascade from each. Catches slot-recycling,
 * lazy-reclamation and cascade bugs the targeted tests can miss.
 */
TEST(EventQueue, ChurnMatchesNaiveReferenceModel)
{
    EventQueue eq;
    std::vector<std::pair<Tick, int>> expected; // (when, id) of live events
    std::vector<std::pair<Tick, int>> fired;
    std::vector<EventHandle> handles;
    std::vector<int> ids;

    std::uint64_t x = 0x9e3779b97f4a7c15ULL;
    auto next = [&x] {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        return x;
    };

    int id = 0;
    for (int round = 0; round < 3000; ++round) {
        const std::uint64_t r = next();
        if (r % 4 != 0 || handles.empty()) {
            // The largest delta that still lands on a Tick.
            const Tick room = ~Tick{0} - eq.curTick();
            Tick delta;
            switch (next() % 16) {
              case 0: // anywhere in the remaining range
                delta = room == ~Tick{0} ? next() : next() % (room + 1);
                break;
              case 1:
              case 2:
                delta = std::min<Tick>(next() % 3'000'000, room);
                break;
              default:
                delta = std::min<Tick>(next() % 50, room);
                break;
            }
            const Tick when = eq.curTick() + delta;
            const int my_id = id++;
            handles.push_back(eq.schedule(
                when, [&fired, &eq, my_id] {
                    fired.emplace_back(eq.curTick(), my_id);
                }));
            ids.push_back(my_id);
            expected.emplace_back(when, my_id);
        } else {
            const std::size_t pick = next() % handles.size();
            if (handles[pick].pending()) {
                handles[pick].cancel();
                const int victim = ids[pick];
                std::erase_if(expected, [victim](const auto &e) {
                    return e.second == victim;
                });
            }
        }
        if (r % 7 == 0)
            eq.step();
    }
    eq.runAll();

    // Model: every un-cancelled event fires exactly once, in
    // (when, schedule-order) order. Ids are assigned in schedule
    // order, so sorting the surviving schedules by (when, id) yields
    // the exact expected firing sequence — schedule() only accepts
    // when >= curTick, so no later schedule can jump ahead of an
    // earlier one at the same tick.
    std::stable_sort(expected.begin(), expected.end(),
                     [](const auto &a, const auto &b) {
                         if (a.first != b.first)
                             return a.first < b.first;
                         return a.second < b.second;
                     });
    EXPECT_EQ(fired, expected);
    EXPECT_EQ(eq.size(), 0u);
    EXPECT_TRUE(eq.empty());
}

TEST(EventQueueWheel, ScheduleAtNowFiresImmediately)
{
    EventQueue eq;
    eq.schedule(100, [] {});
    eq.runAll(); // curTick = 100
    int fired = 0;
    eq.schedule(eq.curTick(), [&] { ++fired; });
    EXPECT_TRUE(eq.step());
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(eq.curTick(), 100u);
}

/** 2^48 ticks: events this far ahead start on wheel level 8 or above. */
constexpr Tick kFar = Tick{1} << 48;

TEST(EventQueueWheel, FarFutureEventsCascadeInTimeOrder)
{
    // Far-future events sit on the high levels and must cascade down
    // in time order as the wheel position reaches their buckets.
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(3 * kFar + 17, [&] { order.push_back(3); });
    eq.schedule(kFar + 5, [&] { order.push_back(2); });
    eq.schedule(42, [&] { order.push_back(1); });
    eq.runAll();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.curTick(), 3 * kFar + 17);
}

TEST(EventQueueWheel, FarFutureCascadePreservesSameTickFifo)
{
    EventQueue eq;
    std::vector<int> order;
    const Tick when = kFar * 2 + 9;
    for (int i = 0; i < 8; ++i)
        eq.schedule(when, [&order, i] { order.push_back(i); });
    eq.runAll();
    ASSERT_EQ(order.size(), 8u);
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(order[i], i);
}

TEST(EventQueueWheel, CancelWorksOnLowAndHighLevels)
{
    EventQueue eq;
    int fired = 0;
    // Cancelled events on level 0 and on level 8 are unlinked from
    // their buckets at once; the far survivor still cascades and fires.
    EventHandle low = eq.schedule(10, [&] { ++fired; });
    EventHandle high = eq.schedule(kFar + 1, [&] { ++fired; });
    eq.schedule(kFar + 2, [&] { fired += 10; });
    EXPECT_EQ(eq.size(), 3u);
    low.cancel();
    high.cancel();
    EXPECT_EQ(eq.size(), 1u);
    eq.runAll();
    EXPECT_EQ(fired, 10); // only the surviving far event fired
    EXPECT_TRUE(eq.empty());
}

TEST(EventQueueWheel, SameTickFifoAcrossCascade)
{
    // Event 0 is scheduled far ahead (a high wheel level) and must
    // cascade down as time advances; event 1 targets the same tick but
    // is scheduled late enough to land directly in a low level. FIFO
    // demands schedule order — the cascaded event first.
    EventQueue eq;
    std::vector<int> order;
    const Tick when = 100'000;
    eq.schedule(when, [&] { order.push_back(0); });
    eq.schedule(when - 50, [&] {
        eq.schedule(when, [&] { order.push_back(1); });
    });
    eq.runAll();
    EXPECT_EQ(order, (std::vector<int>{0, 1}));
}

TEST(EventQueueWheel, ScheduleAfterIdleAdvanceLandsCorrectly)
{
    // run(limit) past the last event moves curTick without any bucket
    // cursor work; the next schedules must still index correctly.
    EventQueue eq;
    eq.run(123'456'789);
    EXPECT_EQ(eq.curTick(), 123'456'789u);
    std::vector<int> order;
    eq.schedule(eq.curTick() + 1, [&] { order.push_back(1); });
    eq.schedule(eq.curTick() + 5000, [&] { order.push_back(2); });
    eq.runAll();
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(EventQueueWheel, TopOfTheTickRangeFiresInOrder)
{
    // run() leaves the position with a nonzero top digit and large low
    // digits. The events then start on the top level, whose buckets
    // are the last 4 bits of a Tick, and must cascade down through
    // every level, each firing at its own tick, up to and including
    // the last Tick.
    EventQueue eq;
    const Tick from = (Tick{1} << 61) + (Tick{1} << 40) + 12'345;
    EXPECT_EQ(eq.run(from), from);
    const Tick last = ~Tick{0};
    std::vector<std::pair<Tick, int>> fired;
    auto record = [&fired, &eq](int id) {
        return [&fired, &eq, id] { fired.emplace_back(eq.curTick(), id); };
    };
    eq.schedule((Tick{1} << 62) + 5, record(1));
    eq.schedule((Tick{1} << 62) + 3, record(0));
    eq.schedule(last, record(2));
    EXPECT_EQ(eq.run(last), last);
    EXPECT_EQ(fired, (std::vector<std::pair<Tick, int>>{
                         {(Tick{1} << 62) + 3, 0},
                         {(Tick{1} << 62) + 5, 1},
                         {last, 2}}));
    // Time stands at the last Tick, and an event there still fires.
    eq.schedule(last, record(3));
    EXPECT_TRUE(eq.step());
    EXPECT_EQ(fired.back(), (std::pair<Tick, int>{last, 3}));
    EXPECT_EQ(eq.curTick(), last);
    EXPECT_TRUE(eq.empty());
}

/** Property: N randomly-ordered events fire in nondecreasing time. */
class EventQueueOrderProperty : public ::testing::TestWithParam<int>
{
};

TEST_P(EventQueueOrderProperty, MonotoneFiringTimes)
{
    EventQueue eq;
    std::vector<Tick> fired_at;
    std::uint64_t x = static_cast<std::uint64_t>(GetParam()) * 2654435761u;
    for (int i = 0; i < 200; ++i) {
        x = x * 6364136223846793005ULL + 1442695040888963407ULL;
        const Tick when = (x >> 33) % 1000;
        eq.schedule(when, [&fired_at, &eq] {
            fired_at.push_back(eq.curTick());
        });
    }
    eq.runAll();
    ASSERT_EQ(fired_at.size(), 200u);
    for (std::size_t i = 1; i < fired_at.size(); ++i)
        EXPECT_LE(fired_at[i - 1], fired_at[i]);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EventQueueOrderProperty,
                         ::testing::Values(1, 2, 3, 5, 8, 13));

} // namespace
