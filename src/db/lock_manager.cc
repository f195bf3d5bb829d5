#include "db/lock_manager.hh"

#include "sim/logging.hh"

namespace odbsim::db
{

std::uint32_t
LockManager::allocWaiter(os::Process *p)
{
    std::uint32_t n;
    if (freeHead_ != npos) {
        n = freeHead_;
        freeHead_ = pool_[n].next;
    } else {
        if (pool_.size() == pool_.capacity())
            ++poolAllocations_;
        n = static_cast<std::uint32_t>(pool_.size());
        pool_.emplace_back();
    }
    pool_[n].proc = p;
    pool_[n].next = npos;
    ++waiters_;
    return n;
}

void
LockManager::freeWaiter(std::uint32_t n)
{
    pool_[n].proc = nullptr;
    pool_[n].next = freeHead_;
    ++pool_[n].stamp; // Invalidate any pending timeout on this node.
    freeHead_ = n;
    --waiters_;
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
    const Resource *res = table_.find(key);
    return res ? res->holder : nullptr;
}

void
LockManager::reserve(std::size_t resources, std::size_t waiters)
{
    table_.reserve(resources);
    if (waiters > pool_.capacity()) {
        pool_.reserve(waiters);
        ++poolAllocations_;
    }
}

std::uint64_t
LockManager::tableAllocations() const
{
    return poolAllocations_ + table_.allocations();
}

bool
LockManager::acquire(os::Process *p, LockKey key)
{
    ++acquires_;
    Resource &res = table_.findOrInsert(key);
    if (res.holder == nullptr) {
        res.holder = p;
        ++held_;
        return true;
    }
    if (res.holder == p)
        return true; // Re-entrant acquisition within the transaction.
    ++conflicts_;
    // Append to the resource's intrusive FIFO. The pool push cannot
    // invalidate `res` (it lives in the flat table, not the pool).
    const std::uint32_t n = allocWaiter(p);
    if (res.tail == npos) {
        res.head = n;
    } else {
        pool_[res.tail].next = n;
    }
    res.tail = n;
    if (timeoutTicks_ > 0) {
        // Fault injection: arm the lock-wait timeout. No cancellation
        // on grant — the (node, stamp) pair goes stale instead, so
        // the grant path stays allocation- and branch-free.
        const std::uint32_t stamp = pool_[n].stamp;
        sys_->eq().scheduleAfter(timeoutTicks_, [this, key, n, stamp] {
            onTimeout(key, n, stamp);
        });
    }
    return false;
}

void
LockManager::onTimeout(LockKey key, std::uint32_t n, std::uint32_t stamp)
{
    if (pool_[n].stamp != stamp || pool_[n].proc == nullptr)
        return; // Granted (or otherwise retired) before the deadline.
    Resource *found = table_.find(key);
    if (!found)
        return;
    Resource &res = *found;
    // Unlink the waiter from the resource's FIFO.
    std::uint32_t prev = npos;
    std::uint32_t cur = res.head;
    while (cur != npos && cur != n) {
        prev = cur;
        cur = pool_[cur].next;
    }
    if (cur != n)
        return; // Queued on a different resource that reused the key.
    if (prev == npos) {
        res.head = pool_[n].next;
    } else {
        pool_[prev].next = pool_[n].next;
    }
    if (res.tail == n)
        res.tail = prev;
    os::Process *p = pool_[n].proc;
    freeWaiter(n);
    ++sys_->faults().stats().lockTimeouts;
    // Wake the waiter *without* the lock; it discovers the timeout by
    // finding itself not the holder and aborts its transaction.
    sys_->wakeProcess(p, 2500);
}

void
LockManager::release(os::Process *p, LockKey key, os::System &sys)
{
    const std::size_t i = table_.findIndex(key);
    odbsim_assert(i != decltype(table_)::npos,
                  "releasing unknown lock ", key);
    Resource &res = table_.valueAt(i);
    odbsim_assert(res.holder == p, "releasing foreign lock ", key);
    if (res.head == npos) {
        // No waiter: the resource retires and the granted count
        // drops. (heldCount() is maintained explicitly, so it would
        // stay correct even if empty entries were kept around.)
        --held_;
        table_.eraseAt(i);
        return;
    }
    // Hand the lock to the oldest waiter and wake it; the wake pays a
    // short kernel path (semaphore post + reschedule). The granted
    // count is unchanged: one holder replaces another.
    const std::uint32_t n = res.head;
    res.holder = pool_[n].proc;
    res.head = pool_[n].next;
    if (res.head == npos)
        res.tail = npos;
    freeWaiter(n);
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
