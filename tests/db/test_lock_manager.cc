/**
 * @file
 * Tests for the row-lock manager: grant/queue semantics, FIFO
 * hand-off with wake-up, re-entrancy, statistics, releaseAll wake
 * ordering, and fault-injected lock-wait timeouts (including the
 * same-tick grant-vs-timeout race).
 */

#include <gtest/gtest.h>

#include <memory>

#include "db/lock_manager.hh"

namespace
{

using namespace odbsim;
using namespace odbsim::db;

/** A process that simply parks (for use as a lock holder). */
class ParkedProcess : public os::Process
{
  public:
    ParkedProcess()
        : os::Process("parked")
    {}

    os::NextAction
    next(os::System &) override
    {
        os::NextAction act;
        act.after = os::NextAction::After::Block;
        return act;
    }
};

struct Rig
{
    os::System sys;
    LockManager locks;
    os::Process *p1;
    os::Process *p2;
    os::Process *p3;

    Rig()
        : sys([] {
              os::SystemConfig cfg;
              cfg.numCpus = 1;
              cfg.core.samplePeriod = 16;
              cfg.disks.dataDisks = 1;
              cfg.disks.logDisks = 1;
              return cfg;
          }())
    {
        p1 = sys.spawn(std::make_unique<ParkedProcess>());
        p2 = sys.spawn(std::make_unique<ParkedProcess>());
        p3 = sys.spawn(std::make_unique<ParkedProcess>());
        sys.runFor(tickPerMs); // Let everyone park.
    }
};

TEST(LockManager, GrantsFreeLock)
{
    Rig rig;
    EXPECT_TRUE(rig.locks.acquire(rig.p1, 100));
    EXPECT_EQ(rig.locks.heldCount(), 1u);
    EXPECT_EQ(rig.locks.conflicts(), 0u);
}

TEST(LockManager, ReentrantAcquireGranted)
{
    Rig rig;
    EXPECT_TRUE(rig.locks.acquire(rig.p1, 100));
    EXPECT_TRUE(rig.locks.acquire(rig.p1, 100));
    EXPECT_EQ(rig.locks.conflicts(), 0u);
}

TEST(LockManager, ConflictQueuesWaiter)
{
    Rig rig;
    EXPECT_TRUE(rig.locks.acquire(rig.p1, 100));
    EXPECT_FALSE(rig.locks.acquire(rig.p2, 100));
    EXPECT_EQ(rig.locks.conflicts(), 1u);
}

TEST(LockManager, ReleaseHandsOffAndWakes)
{
    Rig rig;
    rig.locks.acquire(rig.p1, 100);
    rig.locks.acquire(rig.p2, 100); // Queued.
    EXPECT_EQ(rig.p2->state(), os::Process::State::Blocked);
    rig.locks.release(rig.p1, 100, rig.sys);
    // p2 now owns the lock and was made runnable.
    EXPECT_NE(rig.p2->state(), os::Process::State::Blocked);
    // A third contender queues behind p2.
    EXPECT_FALSE(rig.locks.acquire(rig.p3, 100));
}

TEST(LockManager, FifoHandOffOrder)
{
    Rig rig;
    rig.locks.acquire(rig.p1, 100);
    rig.locks.acquire(rig.p2, 100);
    rig.locks.acquire(rig.p3, 100);
    rig.locks.release(rig.p1, 100, rig.sys);
    // p2 (the older waiter) must now hold it: p1 re-acquiring queues.
    EXPECT_FALSE(rig.locks.acquire(rig.p1, 100));
}

TEST(LockManager, ReleaseWithoutWaitersFreesResource)
{
    Rig rig;
    rig.locks.acquire(rig.p1, 100);
    rig.locks.release(rig.p1, 100, rig.sys);
    EXPECT_EQ(rig.locks.heldCount(), 0u);
    EXPECT_TRUE(rig.locks.acquire(rig.p2, 100));
}

TEST(LockManager, ReleaseAllClearsVector)
{
    Rig rig;
    std::vector<LockKey> held;
    for (LockKey k : {1ull, 2ull, 3ull}) {
        EXPECT_TRUE(rig.locks.acquire(rig.p1, k));
        held.push_back(k);
    }
    rig.locks.releaseAll(rig.p1, held, rig.sys);
    EXPECT_TRUE(held.empty());
    EXPECT_EQ(rig.locks.heldCount(), 0u);
}

TEST(LockManager, IndependentKeysDoNotConflict)
{
    Rig rig;
    EXPECT_TRUE(rig.locks.acquire(rig.p1, makeLockKey(Table::Warehouse, 1)));
    EXPECT_TRUE(rig.locks.acquire(rig.p2, makeLockKey(Table::Warehouse, 2)));
    EXPECT_TRUE(rig.locks.acquire(rig.p3, makeLockKey(Table::District, 1)));
    EXPECT_EQ(rig.locks.conflicts(), 0u);
}

TEST(LockManager, LockKeyEncodingSeparatesTables)
{
    EXPECT_NE(makeLockKey(Table::Warehouse, 7),
              makeLockKey(Table::District, 7));
    EXPECT_NE(makeLockKey(Table::Customer, 1),
              makeLockKey(Table::Customer, 2));
}

TEST(LockManager, HeldCountExcludesWaiters)
{
    Rig rig;
    rig.locks.acquire(rig.p1, 1);
    rig.locks.acquire(rig.p1, 2);
    rig.locks.acquire(rig.p1, 3);
    EXPECT_EQ(rig.locks.heldCount(), 3u);
    EXPECT_EQ(rig.locks.waiterCount(), 0u);
    // Two contenders queue on key 1: granted holders are unchanged.
    rig.locks.acquire(rig.p2, 1);
    rig.locks.acquire(rig.p3, 1);
    EXPECT_EQ(rig.locks.heldCount(), 3u);
    EXPECT_EQ(rig.locks.waiterCount(), 2u);
}

TEST(LockManager, HeldCountAcrossHandOffChain)
{
    Rig rig;
    rig.locks.acquire(rig.p1, 100);
    rig.locks.acquire(rig.p2, 100);
    rig.locks.acquire(rig.p3, 100);
    EXPECT_EQ(rig.locks.heldCount(), 1u);
    EXPECT_EQ(rig.locks.waiterCount(), 2u);
    // Hand-off: one holder replaces another, held count unchanged.
    rig.locks.release(rig.p1, 100, rig.sys);
    EXPECT_EQ(rig.locks.heldCount(), 1u);
    EXPECT_EQ(rig.locks.waiterCount(), 1u);
    rig.locks.release(rig.p2, 100, rig.sys);
    EXPECT_EQ(rig.locks.heldCount(), 1u);
    EXPECT_EQ(rig.locks.waiterCount(), 0u);
    // Final release retires the resource.
    rig.locks.release(rig.p3, 100, rig.sys);
    EXPECT_EQ(rig.locks.heldCount(), 0u);
    EXPECT_EQ(rig.locks.waiterCount(), 0u);
}

TEST(LockManager, ReentrantAcquireDoesNotInflateHeldCount)
{
    Rig rig;
    rig.locks.acquire(rig.p1, 100);
    rig.locks.acquire(rig.p1, 100);
    EXPECT_EQ(rig.locks.heldCount(), 1u);
}

TEST(LockManager, SteadyStateChurnNeverGrowsTheTable)
{
    Rig rig;
    // One warm-up round establishes the high-water population of the
    // resource table and the waiter pool...
    auto round = [&rig] {
        for (LockKey k = 0; k < 8; ++k)
            rig.locks.acquire(rig.p1, k);
        for (LockKey k = 0; k < 4; ++k)
            rig.locks.acquire(rig.p2, k);
        for (LockKey k = 0; k < 2; ++k)
            rig.locks.acquire(rig.p3, k);
        for (LockKey k = 0; k < 8; ++k)
            rig.locks.release(rig.p1, k, rig.sys);
        for (LockKey k = 0; k < 4; ++k)
            rig.locks.release(rig.p2, k, rig.sys);
        for (LockKey k = 0; k < 2; ++k)
            rig.locks.release(rig.p3, k, rig.sys);
    };
    round();
    // ...after which identical contended churn must be allocation-free
    // (the pooled waiter free-list and flat table never grow).
    const std::uint64_t allocs = rig.locks.tableAllocations();
    for (int i = 0; i < 1000; ++i)
        round();
    EXPECT_EQ(rig.locks.tableAllocations(), allocs);
    EXPECT_EQ(rig.locks.heldCount(), 0u);
    EXPECT_EQ(rig.locks.waiterCount(), 0u);
}

TEST(LockManager, ReservePresizesTableAndPool)
{
    Rig rig;
    rig.locks.reserve(64, 16);
    const std::uint64_t allocs = rig.locks.tableAllocations();
    for (LockKey k = 0; k < 64; ++k)
        rig.locks.acquire(rig.p1, k);
    for (LockKey k = 0; k < 16; ++k)
        rig.locks.acquire(rig.p2, k);
    EXPECT_EQ(rig.locks.tableAllocations(), allocs);
    for (LockKey k = 0; k < 64; ++k)
        rig.locks.release(rig.p1, k, rig.sys);
    // Keys 0-15 were handed off to the queued p2.
    for (LockKey k = 0; k < 16; ++k)
        rig.locks.release(rig.p2, k, rig.sys);
    EXPECT_EQ(rig.locks.heldCount(), 0u);
}

TEST(LockManager, ReleaseAllHandsEachLockToItsOldestWaiter)
{
    Rig rig;
    rig.locks.acquire(rig.p1, 100);
    rig.locks.acquire(rig.p2, 100); // Oldest waiter on 100.
    rig.locks.acquire(rig.p3, 100);
    rig.locks.acquire(rig.p1, 200);
    rig.locks.acquire(rig.p3, 200); // Oldest (only) waiter on 200.

    std::vector<LockKey> held{100, 200};
    rig.locks.releaseAll(rig.p1, held, rig.sys);

    // FIFO per key: p2 (not the newer p3) now owns 100; p3 owns 200
    // and still queues behind p2 on 100.
    EXPECT_EQ(rig.locks.holderOf(100), rig.p2);
    EXPECT_EQ(rig.locks.holderOf(200), rig.p3);
    EXPECT_EQ(rig.locks.waiterCount(), 1u);
}

/** Rig whose system carries a 5 ms lock-wait timeout fault plan. */
struct TimeoutRig
{
    os::System sys;
    LockManager locks;
    os::Process *p1;
    os::Process *p2;
    os::Process *p3;

    TimeoutRig()
        : sys([] {
              os::SystemConfig cfg;
              cfg.numCpus = 1;
              cfg.core.samplePeriod = 16;
              cfg.disks.dataDisks = 1;
              cfg.disks.logDisks = 1;
              cfg.faults.lockWaitTimeoutMs = 5.0;
              return cfg;
          }())
    {
        locks.bind(&sys);
        p1 = sys.spawn(std::make_unique<ParkedProcess>());
        p2 = sys.spawn(std::make_unique<ParkedProcess>());
        p3 = sys.spawn(std::make_unique<ParkedProcess>());
        sys.runFor(tickPerMs); // Let everyone park.
    }
};

TEST(LockTimeout, ExpiredWaiterIsWokenWithoutTheLock)
{
    TimeoutRig rig;
    rig.locks.acquire(rig.p1, 100);
    EXPECT_FALSE(rig.locks.acquire(rig.p2, 100));
    rig.sys.runFor(10 * tickPerMs); // Past the 5 ms deadline.

    // p2 was unlinked and woken empty-handed; p1 still holds the row.
    EXPECT_EQ(rig.sys.faults().stats().lockTimeouts, 1u);
    EXPECT_EQ(rig.locks.holderOf(100), rig.p1);
    EXPECT_EQ(rig.locks.waiterCount(), 0u);

    // The hand-off chain is gone: releasing retires the resource.
    rig.locks.release(rig.p1, 100, rig.sys);
    EXPECT_EQ(rig.locks.heldCount(), 0u);
}

TEST(LockTimeout, GrantBeforeDeadlineMakesTheTimeoutStale)
{
    TimeoutRig rig;
    rig.locks.acquire(rig.p1, 100);
    rig.locks.acquire(rig.p2, 100); // Arms a timeout at now + 5 ms.
    rig.locks.release(rig.p1, 100, rig.sys); // Granted immediately.
    EXPECT_EQ(rig.locks.holderOf(100), rig.p2);

    // The armed timeout fires against a recycled (stamp-bumped) node
    // and must be a no-op, even though p3 now waits on the same key
    // through a reused pool slot.
    rig.locks.acquire(rig.p3, 100);
    rig.sys.runFor(4 * tickPerMs);
    EXPECT_EQ(rig.sys.faults().stats().lockTimeouts, 0u);
    EXPECT_EQ(rig.locks.holderOf(100), rig.p2);
    EXPECT_EQ(rig.locks.waiterCount(), 1u);
}

TEST(LockTimeout, SameTickGrantVsTimeoutIsDeterministic)
{
    // The release lands on exactly the timeout tick. Event order
    // within a tick is FIFO, the timeout was scheduled first (at
    // enqueue), so the waiter times out and the release then retires
    // the uncontended resource — on every run.
    auto outcome = [](TimeoutRig &rig) {
        rig.locks.acquire(rig.p1, 100);
        rig.locks.acquire(rig.p2, 100);
        rig.sys.eq().scheduleAfter(
            rig.sys.faults().lockWaitTimeoutTicks(),
            [&rig] { rig.locks.release(rig.p1, 100, rig.sys); });
        rig.sys.runFor(10 * tickPerMs);
        return std::make_pair(rig.sys.faults().stats().lockTimeouts,
                              rig.locks.holderOf(100));
    };
    TimeoutRig a, b;
    const auto ra = outcome(a);
    const auto rb = outcome(b);
    EXPECT_EQ(ra.first, 1u);
    EXPECT_EQ(ra.second, nullptr);
    EXPECT_EQ(ra, rb);
}

TEST(LockManager, StatsCountAcquires)
{
    Rig rig;
    rig.locks.acquire(rig.p1, 5);
    rig.locks.acquire(rig.p2, 5);
    EXPECT_EQ(rig.locks.acquires(), 2u);
    rig.locks.resetStats();
    EXPECT_EQ(rig.locks.acquires(), 0u);
    EXPECT_EQ(rig.locks.conflicts(), 0u);
}

} // namespace
