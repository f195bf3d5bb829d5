/**
 * @file
 * Tests for the row-lock manager: grant/queue semantics, FIFO
 * hand-off with wake-up, re-entrancy, statistics, releaseAll wake
 * ordering, fault-injected lock-wait timeouts (including the
 * same-tick grant-vs-timeout race), and a seeded differential against
 * a std::unordered_map + std::deque reference.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <memory>
#include <unordered_map>
#include <vector>

#include "db/lock_manager.hh"
#include "sim/rng.hh"

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

/**
 * The lock table as a plain reference: a std::unordered_map from key
 * to the holder and a std::deque of waiters, granted oldest first.
 */
class ReferenceLocks
{
  public:
    bool
    acquire(os::Process *p, LockKey key)
    {
        ++acquires_;
        Resource &res = table_[key];
        if (res.holder == nullptr) {
            res.holder = p;
            return true;
        }
        if (res.holder == p)
            return true;
        ++conflicts_;
        res.waiters.push_back(p);
        ++waiters_;
        return false;
    }

    void
    release(LockKey key)
    {
        const auto it = table_.find(key);
        ASSERT_NE(it, table_.end()) << key;
        Resource &res = it->second;
        if (res.waiters.empty()) {
            table_.erase(it);
            return;
        }
        res.holder = res.waiters.front();
        res.waiters.pop_front();
        --waiters_;
    }

    os::Process *
    holderOf(LockKey key) const
    {
        const auto it = table_.find(key);
        return it == table_.end() ? nullptr : it->second.holder;
    }

    std::size_t heldCount() const { return table_.size(); }
    std::size_t waiterCount() const { return waiters_; }

    /** The longest wait queue on any one key. */
    std::size_t
    deepestQueue() const
    {
        std::size_t deepest = 0;
        for (const auto &[key, res] : table_)
            deepest = std::max(deepest, res.waiters.size());
        return deepest;
    }

    std::uint64_t acquires() const { return acquires_; }
    std::uint64_t conflicts() const { return conflicts_; }

  private:
    struct Resource
    {
        os::Process *holder = nullptr;
        std::deque<os::Process *> waiters;
    };

    std::unordered_map<LockKey, Resource> table_;
    std::size_t waiters_ = 0;
    std::uint64_t acquires_ = 0;
    std::uint64_t conflicts_ = 0;
};

TEST(LockManager, SeededChurnMatchesADequeReference)
{
    // Four processes over six keys, so most acquires conflict and
    // keys often queue several waiters. Each process acquires in
    // ascending key order, as planners emit locks, so the waits never
    // deadlock and some process is always free to act. A blocked
    // process does nothing until a release hands it its lock.
    constexpr unsigned kProcs = 4;
    constexpr LockKey kKeys = 6;
    os::System sys([] {
        os::SystemConfig cfg;
        cfg.numCpus = 1;
        cfg.core.samplePeriod = 16;
        cfg.disks.dataDisks = 1;
        cfg.disks.logDisks = 1;
        return cfg;
    }());
    std::vector<os::Process *> procs;
    for (unsigned i = 0; i < kProcs; ++i)
        procs.push_back(sys.spawn(std::make_unique<ParkedProcess>()));
    sys.runFor(tickPerMs); // Let everyone park.

    LockManager locks;
    ReferenceLocks ref;
    std::vector<std::vector<LockKey>> held(kProcs);
    std::vector<bool> blocked(kProcs, false);
    Rng rng(2024);
    std::size_t hand_offs = 0, deep_queues = 0;

    // Release @p key in the reference; whoever it hands the key to
    // now holds it and may act again.
    const auto releaseRef = [&](LockKey key) {
        ref.release(key);
        os::Process *h = ref.holderOf(key);
        for (unsigned j = 0; j < kProcs; ++j) {
            if (procs[j] == h) {
                EXPECT_TRUE(blocked[j]) << j;
                blocked[j] = false;
                held[j].push_back(key);
                ++hand_offs;
            }
        }
    };

    for (int step = 0; step < 20000; ++step) {
        SCOPED_TRACE("step " + std::to_string(step));
        unsigned i;
        do {
            i = static_cast<unsigned>(rng.below(kProcs));
        } while (blocked[i]);
        os::Process *p = procs[i];
        const LockKey lo =
            held[i].empty()
                ? 0
                : *std::max_element(held[i].begin(), held[i].end()) + 1;
        const std::uint64_t op = rng.below(10);
        std::vector<LockKey> touched;
        if (op < 6 && lo < kKeys) {
            // Acquire a key above every key held; now and then
            // re-acquire one already held.
            const LockKey key = !held[i].empty() && rng.below(8) == 0
                                    ? held[i][rng.below(held[i].size())]
                                    : lo + rng.below(kKeys - lo);
            const bool granted = locks.acquire(p, key);
            ASSERT_EQ(granted, ref.acquire(p, key)) << key;
            if (!granted)
                blocked[i] = true;
            else if (std::find(held[i].begin(), held[i].end(), key) ==
                     held[i].end())
                held[i].push_back(key);
            touched.push_back(key);
        } else if (op < 9 && !held[i].empty()) {
            // Release one held lock.
            const std::size_t k = rng.below(held[i].size());
            const LockKey key = held[i][k];
            held[i].erase(held[i].begin() + k);
            locks.release(p, key, sys);
            releaseRef(key);
            touched.push_back(key);
        } else if (!held[i].empty()) {
            // Release everything, as at commit.
            touched.swap(held[i]);
            std::vector<LockKey> keys = touched;
            locks.releaseAll(p, keys, sys);
            EXPECT_TRUE(keys.empty());
            for (const LockKey key : touched)
                releaseRef(key);
        }
        for (const LockKey key : touched)
            ASSERT_EQ(locks.holderOf(key), ref.holderOf(key)) << key;
        ASSERT_EQ(locks.heldCount(), ref.heldCount());
        ASSERT_EQ(locks.waiterCount(), ref.waiterCount());
        ASSERT_EQ(locks.acquires(), ref.acquires());
        ASSERT_EQ(locks.conflicts(), ref.conflicts());
        if (ref.deepestQueue() >= 2)
            ++deep_queues;
    }
    // The stream must reach the cases that tell FIFO from any other
    // hand-off order: many hand-offs, and keys with two or more
    // waiters.
    EXPECT_GT(hand_offs, 1000u);
    EXPECT_GT(deep_queues, 1000u);
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
