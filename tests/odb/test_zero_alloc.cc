/**
 * @file
 * Steady-state allocation tests for the database replay hot path: once
 * planning and replay reach their high-water working set, the buffer
 * cache, the lock table + pooled waiter queues, the schema row-state
 * maps and the recycled per-process ActionTrace must never touch the
 * heap again. Enforced two ways: through the growable structures' own
 * growth counters (tableAllocations(), stateAllocations()), and — in
 * non-sanitizer builds — through a replaced global operator new that
 * counts every heap allocation across a steady-state planning loop or
 * lock and buffer churn. The buffer cache sizes everything in its
 * constructor and has no growth path to count. The same
 * counter also sums the bytes a database set-up requests, which must
 * follow the buffer-cache frame count rather than the warehouse count,
 * and the bytes an instant warm-up requests, which must not follow
 * either.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include <memory>

#include "../support/mini_odb.hh"
#include "db/buffer_cache.hh"
#include "db/database.hh"
#include "db/lock_manager.hh"
#include "db/trace.hh"
#include "odb/planner.hh"
#include "os/process.hh"
#include "os/system.hh"
#include "sim/event_queue.hh"
#include "sim/rng.hh"

// ASan ships its own operator new/delete interceptors; replacing them
// here would degrade its mismatch checking, so the strict global
// counter is compiled out and the strict test passes vacuously (the
// counter-based tests still run).
#if defined(__SANITIZE_ADDRESS__)
#define ODBSIM_TEST_COUNT_GLOBAL_NEW 0
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define ODBSIM_TEST_COUNT_GLOBAL_NEW 0
#else
#define ODBSIM_TEST_COUNT_GLOBAL_NEW 1
#endif
#else
#define ODBSIM_TEST_COUNT_GLOBAL_NEW 1
#endif

namespace
{
std::atomic<std::uint64_t> g_newCalls{0};
/** Bytes requested from operator new, summed (frees do not subtract). */
std::atomic<std::uint64_t> g_newBytes{0};
} // namespace

#if ODBSIM_TEST_COUNT_GLOBAL_NEW
void *
operator new(std::size_t n)
{
    g_newCalls.fetch_add(1, std::memory_order_relaxed);
    g_newBytes.fetch_add(n, std::memory_order_relaxed);
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t n)
{
    g_newCalls.fetch_add(1, std::memory_order_relaxed);
    g_newBytes.fetch_add(n, std::memory_order_relaxed);
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}

// The deletes stay out of line: inlined, gcc sees std::free() take a
// pointer from operator new and warns (-Wmismatched-new-delete),
// although this operator new allocates with std::malloc.
[[gnu::noinline]] void
operator delete(void *p) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete[](void *p) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}
#endif // ODBSIM_TEST_COUNT_GLOBAL_NEW

namespace
{

using namespace odbsim;

TEST(ZeroAlloc, ActionIsPackedTo16Bytes)
{
    static_assert(sizeof(db::Action) == 16,
                  "replay actions must stay packed");
    EXPECT_EQ(sizeof(db::Action), 16u);
}

/**
 * Steady-state planning into a recycled trace is strictly
 * allocation-free: after a warm-up that reaches the schema maps' and
 * the trace buffer's high-water marks, thousands of further plans of
 * every transaction type perform zero heap allocations (and zero
 * growth events in the schema's flat row-state maps).
 */
TEST(ZeroAlloc, PlannerSteadyStateIsAllocationFree)
{
    test::MiniOdb rig(1, 2, 1);
    odb::TxnPlanner planner(rig.db, odb::TxnMix{});
    Rng rng(2003);
    db::ActionTrace trace;

    // Warm-up: populate the lazily-inserted schema row states (stock
    // quantities, customer balances) and grow the trace buffer to the
    // longest transaction's length. The row-state key domains are
    // bounded (every customer, every stock row), so planning until a
    // full round allocates nothing proves the maps reached their
    // lifetime capacity — not just a lull between rehashes.
    int rounds = 0;
    std::uint64_t schemaBefore, newBefore;
    do {
        schemaBefore = rig.db.schema().stateAllocations();
        newBefore = g_newCalls.load(std::memory_order_relaxed);
        for (int i = 0; i < 4000; ++i)
            planner.planRandom(rng, static_cast<std::uint32_t>(i % 2),
                               trace);
        ASSERT_LT(++rounds, 64)
            << "schema row-state maps never reached steady state";
    } while (rig.db.schema().stateAllocations() != schemaBefore ||
             g_newCalls.load(std::memory_order_relaxed) != newBefore);

    const std::uint64_t schemaAllocs = rig.db.schema().stateAllocations();
    const std::size_t traceCap = trace.actions.capacity();
    const std::uint64_t newCalls =
        g_newCalls.load(std::memory_order_relaxed);

    for (int i = 0; i < 4000; ++i)
        planner.planRandom(rng, static_cast<std::uint32_t>(i % 2),
                           trace);

    EXPECT_EQ(g_newCalls.load(std::memory_order_relaxed), newCalls)
        << "steady-state planning touched the heap";
    EXPECT_EQ(rig.db.schema().stateAllocations(), schemaAllocs);
    EXPECT_EQ(trace.actions.capacity(), traceCap);
    EXPECT_FALSE(trace.actions.empty());
}

/**
 * Steady-state replay through the full engine: after a warm-up
 * window, continued execution (buffer-cache misses and evictions,
 * lock contention with hand-offs, schema updates) must not advance
 * any of the hot-path structures' growth counters.
 */
TEST(ZeroAlloc, ReplaySteadyStateCountersStayFlat)
{
    test::MiniOdb rig(2, 2, 8);
    rig.sys.runFor(200 * tickPerMs);

    const std::uint64_t lockAllocs = rig.db.locks().tableAllocations();
    const std::uint64_t schemaAllocs =
        rig.db.schema().stateAllocations();
    const std::uint64_t before = rig.workload.committed();

    rig.sys.runFor(300 * tickPerMs);

    EXPECT_GT(rig.workload.committed(), before); // Work really ran.
    EXPECT_EQ(rig.db.locks().tableAllocations(), lockAllocs);
    EXPECT_EQ(rig.db.schema().stateAllocations(), schemaAllocs);
}

/**
 * A full checkpoint cycle rides the same pooled queues as demand
 * traffic: once DBWR's urgent/checkpoint FIFOs and the per-drive disk
 * queues reach their high-water marks, continued dirtying, aging,
 * write-back and checkpoint drains never grow a pool.
 */
TEST(ZeroAlloc, CheckpointCycleKeepsWriterAndDiskPoolsFlat)
{
    db::DatabaseConfig dbcfg = test::miniDbConfig(2);
    // Age blocks out fast enough that the run below covers many full
    // dirty -> age -> write-back -> checkpoint-advance cycles.
    dbcfg.dbwr.checkpointAge = 20 * tickPerMs;
    test::MiniOdb rig(test::miniSystemConfig(2), dbcfg, 8);
    rig.sys.runFor(300 * tickPerMs);

    const std::uint64_t dbwrAllocs = rig.db.dbwr().queueAllocations();
    const std::uint64_t diskAllocs = rig.sys.disks().queueAllocations();
    const std::uint64_t writesBefore = rig.sys.disks().dataWrites();
    const std::uint64_t before = rig.workload.committed();

    rig.sys.runFor(300 * tickPerMs);

    EXPECT_GT(rig.workload.committed(), before);
    // Write-back really happened (the checkpoint queue drained to
    // disk), yet neither the DBWR FIFOs nor any drive queue grew.
    EXPECT_GT(rig.sys.disks().dataWrites(), writesBefore);
    EXPECT_EQ(rig.db.dbwr().queueAllocations(), dbwrAllocs);
    EXPECT_EQ(rig.sys.disks().queueAllocations(), diskAllocs);
}

/**
 * The inertness contract, at the allocation level: with the fault
 * subsystem compiled in but every knob at its default, a steady-state
 * run must stay exactly as allocation-free as before the subsystem
 * existed — the inert plan gates every injection site and never draws,
 * schedules or allocates.
 */
TEST(ZeroAlloc, FaultFreeRunWithFaultsCompiledInStaysFlat)
{
    db::DatabaseConfig dbcfg = test::miniDbConfig(2);
    // Short aging so the checkpoint queue reaches its high-water
    // population inside the warm-up window (the 5 s default would
    // still be filling, not cycling, at this run length).
    dbcfg.dbwr.checkpointAge = 20 * tickPerMs;
    test::MiniOdb rig(test::miniSystemConfig(2), dbcfg, 8);
    ASSERT_FALSE(rig.sys.faults().anyEnabled());
    rig.sys.runFor(300 * tickPerMs);

    const std::uint64_t lockAllocs = rig.db.locks().tableAllocations();
    const std::uint64_t schemaAllocs =
        rig.db.schema().stateAllocations();
    const std::uint64_t dbwrAllocs = rig.db.dbwr().queueAllocations();
    const std::uint64_t diskAllocs = rig.sys.disks().queueAllocations();
    const std::uint64_t before = rig.workload.committed();

    rig.sys.runFor(300 * tickPerMs);

    EXPECT_GT(rig.workload.committed(), before);
    EXPECT_EQ(rig.db.locks().tableAllocations(), lockAllocs);
    EXPECT_EQ(rig.db.schema().stateAllocations(), schemaAllocs);
    EXPECT_EQ(rig.db.dbwr().queueAllocations(), dbwrAllocs);
    EXPECT_EQ(rig.sys.disks().queueAllocations(), diskAllocs);

    // And the plan never fired: every counter is still zero.
    const sim::FaultStats &fs = rig.sys.faults().stats();
    EXPECT_EQ(fs.txnAborts, 0u);
    EXPECT_EQ(fs.txnRetries, 0u);
    EXPECT_EQ(fs.lockTimeouts, 0u);
    EXPECT_EQ(fs.diskTransientErrors, 0u);
    EXPECT_EQ(fs.driveFailures, 0u);
    EXPECT_EQ(fs.crashes, 0u);
}

/**
 * Steady-state scheduling through the timer wheel is strictly
 * allocation-free: once the slab and the firing cohort have reached
 * their high-water marks, a schedule-one/fire-one loop at constant
 * population — spanning every wheel level, the top one included —
 * performs zero heap allocations.
 */
TEST(ZeroAlloc, WheelSteadyStateSchedulingIsAllocationFree)
{
    EventQueue eq;
    Rng rng(7);
    std::uint64_t sink = 0;
    // Far-future delays reach anywhere in the Tick range left after a
    // margin for the short ones. Each far event that fires is the
    // earliest of about 2,048, so time advances by about 1/2,048 of
    // what is left and stays far below the margin's edge.
    constexpr Tick margin = Tick{1} << 32;
    auto far = [&eq, &rng]() -> Tick {
        return rng.below(~Tick{0} - margin - eq.curTick()) + 1;
    };
    auto delay = [&rng, &far]() -> Tick {
        switch (rng.below(16)) {
          case 0: // Anywhere below the margin: mostly the top levels.
            return far();
          case 1:
          case 2: // Mid levels.
            return rng.below(3'000'000) + 1;
          default: // Levels 0-2.
            return rng.below(1'000) + 1;
        }
    };
    // Warm-up, sized so every internal buffer's high-water mark covers
    // the measured loop: the slab holds the standing population of
    // 2048 (plus the one scheduled before each fire), and the firing
    // cohort grows to 64 same-tick events.
    std::vector<EventHandle> parked;
    parked.reserve(3000);
    for (int i = 0; i < 3000; ++i)
        parked.push_back(eq.scheduleAfter(far(), [&sink] { ++sink; }));
    for (int i = 0; i < 952; ++i)
        parked[i].cancel(); // 2048 live far-future events remain.
    for (int i = 0; i < 1100; ++i) {
        // 64 of these share one tick, warming the firing cohort.
        const Tick d = i < 64 ? 500 : rng.below(1'000) + 1;
        eq.scheduleAfter(d, [&sink] { ++sink; });
    }
    for (int i = 0; i < 1100; ++i)
        eq.step(); // Fire every short event; the far ones stay.
    ASSERT_EQ(eq.size(), 2048u);

    const std::uint64_t newBefore =
        g_newCalls.load(std::memory_order_relaxed);
    for (int i = 0; i < 100'000; ++i) {
        eq.scheduleAfter(delay(), [&sink] { ++sink; });
        eq.step();
    }
    EXPECT_EQ(g_newCalls.load(std::memory_order_relaxed), newBefore)
        << "steady-state wheel scheduling touched the heap";
    EXPECT_GT(sink, 0u);
    EXPECT_EQ(eq.size(), 2048u);
}

/** A process that parks forever (a lock-holder stand-in). */
class ParkedForever : public os::Process
{
  public:
    ParkedForever()
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

/**
 * Steady-state churn through the lock and buffer tables — contended
 * acquire/release rounds with FIFO hand-offs, and a miss/evict
 * reference stream — performs zero heap allocations once the tables,
 * the waiter pool and the scheduler's wake path have reached their
 * high-water marks.
 */
TEST(ZeroAlloc, LockAndBufferSteadyStateIsAllocationFree)
{
    os::SystemConfig cfg;
    cfg.numCpus = 1;
    cfg.core.samplePeriod = 16;
    cfg.disks.dataDisks = 1;
    cfg.disks.logDisks = 1;
    os::System sys(cfg);
    os::Process *p1 = sys.spawn(std::make_unique<ParkedForever>());
    os::Process *p2 = sys.spawn(std::make_unique<ParkedForever>());
    sys.runFor(tickPerMs); // Let both park.

    db::LockManager lm;
    db::BufferCache bc(64);
    Rng rng(11);
    std::uint64_t sink = 0;
    auto round = [&] {
        for (db::LockKey k = 0; k < 32; ++k)
            lm.acquire(p1, k);
        for (db::LockKey k = 0; k < 8; ++k)
            lm.acquire(p2, k); // Queued: exercises the waiter pool.
        for (db::LockKey k = 0; k < 32; ++k)
            lm.release(p1, k, sys);
        for (db::LockKey k = 0; k < 8; ++k)
            lm.release(p2, k, sys); // Handed off above; release again.
        for (int i = 0; i < 64; ++i) {
            const db::BlockId b = rng.below(256);
            if (!bc.lookup(b).hit) {
                const db::BufferVictim v = bc.allocate(b);
                bc.fillComplete(v.frame);
                sink += v.frame;
            }
        }
    };
    round(); // Reach the high-water population.

    const std::uint64_t tblBefore = lm.tableAllocations();
    const std::uint64_t newBefore =
        g_newCalls.load(std::memory_order_relaxed);
    for (int i = 0; i < 2000; ++i)
        round();
    EXPECT_EQ(g_newCalls.load(std::memory_order_relaxed), newBefore)
        << "steady-state lock/buffer churn touched the heap";
    EXPECT_EQ(lm.tableAllocations(), tblBefore);
    EXPECT_EQ(lm.heldCount(), 0u);
    EXPECT_EQ(lm.waiterCount(), 0u);
    EXPECT_GT(sink, 0u);
}

/**
 * Database set-up allocates by the buffer-cache frame count (the same
 * at every W under automatic sizing) and the rows a run touches, not
 * by the warehouse count: a W=4096 database costs under 2 MB more
 * heap to construct than a W=64 one. The part that does grow with W
 * is the per-district counter vectors, about 0.9 MB at W=4096.
 */
TEST(ZeroAlloc, DatabaseSetupBytesDoNotScaleWithWarehouses)
{
#if !ODBSIM_TEST_COUNT_GLOBAL_NEW
    GTEST_SKIP() << "global operator new is not replaced under ASan";
#else
    auto setupBytes = [](unsigned warehouses) {
        os::System sys(test::miniSystemConfig(1));
        db::DatabaseConfig cfg;
        cfg.schema.warehouses = warehouses;
        const std::uint64_t before =
            g_newBytes.load(std::memory_order_relaxed);
        const db::Database database(sys, cfg);
        return g_newBytes.load(std::memory_order_relaxed) - before;
    };
    const std::uint64_t small = setupBytes(64);
    const std::uint64_t large = setupBytes(4096);
    EXPECT_GT(small, 0u);
    EXPECT_LT(large, small + (std::uint64_t{2} << 20))
        << "W=64 set-up: " << small << " bytes, W=4096: " << large;
#endif
}

/**
 * instantWarm() writes each block straight into its frame through the
 * buffer cache's own index: no per-frame dedupe table or candidate
 * list, so a W=4096 warm-up (about 220K blocks) requests well under
 * 64 KB of heap.
 */
TEST(ZeroAlloc, InstantWarmDoesNotAllocatePerFrame)
{
#if !ODBSIM_TEST_COUNT_GLOBAL_NEW
    GTEST_SKIP() << "global operator new is not replaced under ASan";
#else
    os::System sys(test::miniSystemConfig(1));
    db::DatabaseConfig cfg;
    cfg.schema.warehouses = 4096;
    db::Database database(sys, cfg);
    const std::uint64_t before = g_newBytes.load(std::memory_order_relaxed);
    database.instantWarm();
    const std::uint64_t bytes =
        g_newBytes.load(std::memory_order_relaxed) - before;
    EXPECT_EQ(database.bufferCache().residentBlocks(),
              database.bufferCache().numFrames());
    EXPECT_LT(bytes, std::uint64_t{64} << 10)
        << "instantWarm requested " << bytes << " bytes";
#endif
}

} // namespace
