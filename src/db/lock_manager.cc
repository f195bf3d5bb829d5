#include "db/lock_manager.hh"

#include <bit>

#include "sim/logging.hh"

namespace odbsim::db
{

LockManager::LockManager(unsigned shards) : shardCount_(shards)
{
    odbsim_assert(shards >= 1 && shards <= maxShards &&
                      std::has_single_bit(shards),
                  "lock manager shard count must be a power of two in "
                  "[1, ", maxShards, "], got ", shards);
    shards_.resize(shards);
}

std::uint32_t
LockManager::allocWaiter(Shard &sh, os::Process *p)
{
    std::uint32_t n;
    if (sh.freeHead != npos) {
        n = sh.freeHead;
        sh.freeHead = sh.pool[n].next;
    } else {
        if (sh.pool.size() == sh.pool.capacity())
            ++sh.poolAllocations;
        n = static_cast<std::uint32_t>(sh.pool.size());
        sh.pool.emplace_back();
    }
    sh.pool[n].proc = p;
    sh.pool[n].next = npos;
    ++sh.waiters;
    return n;
}

void
LockManager::freeWaiter(Shard &sh, std::uint32_t n)
{
    sh.pool[n].proc = nullptr;
    sh.pool[n].next = sh.freeHead;
    ++sh.pool[n].stamp; // Invalidate any pending timeout on this node.
    sh.freeHead = n;
    --sh.waiters;
}

void
LockManager::bind(os::System *sys)
{
    sys_ = sys;
    timeoutTicks_ =
        sys && sys->faults().lockTimeoutEnabled()
            ? sys->faults().lockWaitTimeoutTicks()
            : 0;
}

os::Process *
LockManager::holderOf(LockKey key) const
{
    const Shard &sh = shards_[shardOf(key)];
    const std::size_t i = sh.table.findIndex(key);
    return i == decltype(Shard::table)::npos
               ? nullptr
               : sh.table.valueAt(i).holder;
}

void
LockManager::reserve(std::size_t resources, std::size_t waiters)
{
    const std::size_t perResources =
        (resources + shardCount_ - 1) / shardCount_;
    const std::size_t perWaiters =
        (waiters + shardCount_ - 1) / shardCount_;
    for (Shard &sh : shards_) {
        sh.table.reserve(perResources);
        if (perWaiters > sh.pool.capacity()) {
            sh.pool.reserve(perWaiters);
            ++sh.poolAllocations;
        }
    }
}

std::uint64_t
LockManager::tableAllocations() const
{
    std::uint64_t total = 0;
    for (const Shard &sh : shards_)
        total += sh.poolAllocations + sh.table.allocations();
    return total;
}

bool
LockManager::acquire(os::Process *p, LockKey key)
{
    Shard &sh = shards_[shardOf(key)];
    ++sh.acquires;
    Resource &res = sh.table.findOrInsert(key);
    if (res.holder == nullptr) {
        res.holder = p;
        ++sh.held;
        return true;
    }
    if (res.holder == p)
        return true; // Re-entrant acquisition within the transaction.
    ++sh.conflicts;
    // Append to the resource's intrusive FIFO. The pool push cannot
    // invalidate `res` (it lives in the flat table, not the pool).
    const std::uint32_t n = allocWaiter(sh, p);
    if (res.tail == npos) {
        res.head = n;
    } else {
        sh.pool[res.tail].next = n;
    }
    res.tail = n;
    if (timeoutTicks_ > 0) {
        // Fault injection: arm the lock-wait timeout. No cancellation
        // on grant — the (node, stamp) pair goes stale instead, so
        // the grant path stays allocation- and branch-free. The key
        // re-derives the shard when the timeout fires.
        const std::uint32_t stamp = sh.pool[n].stamp;
        sys_->eq().scheduleAfter(timeoutTicks_, [this, key, n, stamp] {
            onTimeout(key, n, stamp);
        });
    }
    return false;
}

void
LockManager::onTimeout(LockKey key, std::uint32_t n, std::uint32_t stamp)
{
    Shard &sh = shards_[shardOf(key)];
    if (sh.pool[n].stamp != stamp || sh.pool[n].proc == nullptr)
        return; // Granted (or otherwise retired) before the deadline.
    const std::size_t i = sh.table.findIndex(key);
    if (i == decltype(Shard::table)::npos)
        return;
    Resource &res = sh.table.valueAt(i);
    // Unlink the waiter from the resource's FIFO.
    std::uint32_t prev = npos;
    std::uint32_t cur = res.head;
    while (cur != npos && cur != n) {
        prev = cur;
        cur = sh.pool[cur].next;
    }
    if (cur != n)
        return; // Queued on a different resource that reused the key.
    if (prev == npos) {
        res.head = sh.pool[n].next;
    } else {
        sh.pool[prev].next = sh.pool[n].next;
    }
    if (res.tail == n)
        res.tail = prev;
    os::Process *p = sh.pool[n].proc;
    freeWaiter(sh, n);
    ++sys_->faults().stats().lockTimeouts;
    // Wake the waiter *without* the lock; it discovers the timeout by
    // finding itself not the holder and aborts its transaction.
    sys_->wakeProcess(p, 2500);
}

void
LockManager::release(os::Process *p, LockKey key, os::System &sys)
{
    Shard &sh = shards_[shardOf(key)];
    const std::size_t i = sh.table.findIndex(key);
    odbsim_assert(i != decltype(Shard::table)::npos,
                  "releasing unknown lock ", key);
    Resource &res = sh.table.valueAt(i);
    odbsim_assert(res.holder == p, "releasing foreign lock ", key);
    if (res.head == npos) {
        // No waiter: the resource retires and the granted count
        // drops. (heldCount() is maintained explicitly, so it would
        // stay correct even if empty entries were kept around.)
        --sh.held;
        sh.table.eraseAt(i);
        return;
    }
    // Hand the lock to the oldest waiter and wake it; the wake pays a
    // short kernel path (semaphore post + reschedule). The granted
    // count is unchanged: one holder replaces another.
    const std::uint32_t n = res.head;
    res.holder = sh.pool[n].proc;
    res.head = sh.pool[n].next;
    if (res.head == npos)
        res.tail = npos;
    freeWaiter(sh, n);
    sys.wakeProcess(res.holder, 2500);
}

void
LockManager::releaseAll(os::Process *p, std::vector<LockKey> &held,
                        os::System &sys)
{
    for (const LockKey key : held)
        release(p, key, sys);
    held.clear();
}

} // namespace odbsim::db
