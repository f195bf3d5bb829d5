/**
 * @file
 * Row-level exclusive lock manager with FIFO wait queues.
 *
 * Locks exist for *timing* fidelity: functional updates are applied at
 * plan time (see DESIGN.md "plan-then-replay"), but the blocking and
 * wake-ups of contended rows — warehouse and district rows at small
 * warehouse counts — drive the context-switch spike the paper observes
 * at 10 warehouses (Figure 8).
 *
 * Deadlock freedom is by construction: planners emit lock actions in
 * the global (table rank, key) order.
 *
 * Every replayed Lock action probes the resource table, so storage is
 * allocation-free in steady state: a sim::FlatMap from LockKey to a
 * 16-byte Resource, and a free-list-pooled intrusive FIFO replacing
 * the per-resource std::deque — waiter nodes live in one shared
 * vector and each resource threads head/tail indices through it, so
 * enqueueing a waiter or handing a lock over never touches the heap
 * once the pool has reached its high-water mark (observable via
 * tableAllocations()).
 */

#ifndef ODBSIM_DB_LOCK_MANAGER_HH
#define ODBSIM_DB_LOCK_MANAGER_HH

#include <cstdint>
#include <vector>

#include "db/types.hh"
#include "os/process.hh"
#include "os/system.hh"
#include "sim/flat_map.hh"
#include "sim/stats.hh"

namespace odbsim::db
{

/**
 * Exclusive row-lock table.
 */
class LockManager
{
  public:
    /**
     * Bind the owning system. Required for lock-wait timeouts (the
     * fault plan's lockWaitTimeoutMs knob): with timeouts enabled,
     * every enqueued waiter schedules a timeout event; a waiter still
     * queued when it fires is unlinked and woken *without* the lock
     * (the caller detects this via holderOf() and aborts). Without
     * the knob nothing is scheduled — the inert path is unchanged.
     */
    void bind(os::System *sys);

    /**
     * Try to acquire @p key for @p p.
     * @return true if granted; false if @p p was enqueued and must
     *         block (it will be woken holding the lock).
     */
    bool acquire(os::Process *p, LockKey key);

    /** Current holder of @p key (nullptr if unheld). After a wake, a
     *  waiter distinguishes grant from timeout by checking whether it
     *  is now the holder. */
    os::Process *holderOf(LockKey key) const;

    /** Release one lock, granting the oldest queued waiter. */
    void release(os::Process *p, LockKey key, os::System &sys);

    /**
     * Release every lock in @p held (granting queued waiters) and
     * clear the vector.
     */
    void releaseAll(os::Process *p, std::vector<LockKey> &held,
                    os::System &sys);

    /**
     * Locks currently granted — an explicit granted-holder count,
     * maintained on grant/release, so it stays correct regardless of
     * how the resource table stores (or retires) empty entries.
     * Queued waiters do not count until the lock is handed to them.
     */
    std::size_t heldCount() const { return held_; }

    /** Waiters currently queued across all resources. */
    std::size_t waiterCount() const { return waiters_; }

    /**
     * Pre-size the resource table and waiter pool to absorb
     * @p resources simultaneously held locks and @p waiters
     * simultaneously queued processes.
     */
    void reserve(std::size_t resources, std::size_t waiters);

    /**
     * Growth events of the resource table plus the waiter pool
     * (perf-test hook). Steady-state churn at or below the high-water
     * population must not advance this.
     */
    std::uint64_t tableAllocations() const;

    /** @name Statistics @{ */
    std::uint64_t acquires() const { return acquires_; }
    std::uint64_t conflicts() const { return conflicts_; }
    void
    resetStats()
    {
        acquires_ = 0;
        conflicts_ = 0;
    }
    /** @} */

  private:
    void onTimeout(LockKey key, std::uint32_t n, std::uint32_t stamp);

  private:
    /** Index sentinel for the intrusive waiter lists. */
    static constexpr std::uint32_t npos = ~std::uint32_t{0};

    /** One locked row: the holder plus its FIFO of waiter nodes. */
    struct Resource
    {
        os::Process *holder = nullptr;
        std::uint32_t head = npos; ///< Oldest waiter (granted next).
        std::uint32_t tail = npos; ///< Newest waiter.
    };

    /** Pooled waiter-queue node (lives in the pool, linked by index).
     *  The stamp is bumped every time the node is freed, so a pending
     *  timeout event holding (node, stamp) can detect that its waiter
     *  was already granted (or timed out) and the node reused — the
     *  mechanism that makes same-tick grant-vs-timeout deterministic:
     *  whichever fires first invalidates the other. */
    struct Waiter
    {
        os::Process *proc = nullptr;
        std::uint32_t next = npos;
        std::uint32_t stamp = 0;
    };

    std::uint32_t allocWaiter(os::Process *p);
    void freeWaiter(std::uint32_t n);

    os::System *sys_ = nullptr;
    Tick timeoutTicks_ = 0; ///< 0 = lock-wait timeouts disabled.
    sim::FlatMap<LockKey, Resource> table_;
    std::vector<Waiter> pool_;
    std::uint32_t freeHead_ = npos;
    std::size_t held_ = 0;
    std::size_t waiters_ = 0;
    std::uint64_t poolAllocations_ = 0;
    std::uint64_t acquires_ = 0;
    std::uint64_t conflicts_ = 0;
};

} // namespace odbsim::db

#endif // ODBSIM_DB_LOCK_MANAGER_HH
