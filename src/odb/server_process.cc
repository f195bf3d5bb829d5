#include "odb/server_process.hh"

#include <algorithm>

#include "mem/addr_space.hh"
#include "odb/workload.hh"
#include "sim/logging.hh"

namespace odbsim::odb
{

using db::Action;
using db::ActionKind;
using db::TouchKind;

ServerProcess::ServerProcess(db::Database &database, OdbWorkload &workload,
                             TxnPlanner &planner, std::uint32_t home_w,
                             Rng rng)
    : os::Process("server-w" + std::to_string(home_w)), db_(database),
      workload_(workload), planner_(planner), rng_(rng)
{
    // A transaction holds a handful of row locks (NewOrder: ~13);
    // pre-sizing keeps steady-state replay off the heap.
    heldLocks_.reserve(32);
}

cpu::WorkItem
ServerProcess::baseWork(std::uint64_t instr) const
{
    cpu::WorkItem wi;
    wi.instructions = instr;
    wi.mode = mem::ExecMode::User;
    wi.codeBase = mem::addrmap::dbCodeBase;
    wi.codeBytes = mem::addrmap::dbCodeBytes;
    wi.privateBase = privateBase();
    wi.privateBytes = mem::addrmap::pgaHotBytes;
    wi.sharedBase = mem::addrmap::dbSharedBase;
    wi.sharedBytes = mem::addrmap::dbSharedBytes;
    // SQL-machinery mix: session state and the shared pool; lighter
    // post-L1 traffic than block operations.
    wi.privateWeight = 0.70f;
    wi.sharedWeight = 0.30f;
    wi.frameWeight = 0.0f;
    wi.dataRateScale = 0.6f;
    return wi;
}

os::NextAction
ServerProcess::next(os::System &sys)
{
    // The instance crashed: roll back whatever is in flight and park
    // until recovery finishes. Blocked servers reach this the next
    // time their pending I/O or lock wake dispatches them.
    if (crashRequested_)
        return parkForCrash(sys);

    if (!txnActive_) {
        sim::FaultPlan &faults = sys.faults();
        if (retryPending_) {
            // Client resubmission of the aborted transaction: same
            // type, same warehouse, replanned against current state.
            retryPending_ = false;
            ++faults.stats().txnRetries;
            planner_.plan(trace_.type, rng_, txnW_, trace_);
        } else {
            // Each transaction is submitted against a uniformly
            // chosen warehouse, spanning the whole database as W
            // scales — the working-set growth at the heart of the
            // study. Shared rows (warehouse/district) collide at
            // small W, producing the contention spike of Figure 8.
            // Island-partitioned servers (wSpan_ != 0) draw from
            // their own warehouse range instead, except for the
            // cross-island fraction.
            std::uint32_t w;
            if (wSpan_ == 0) {
                w = static_cast<std::uint32_t>(
                    rng_.below(db_.schema().warehouses()));
            } else if (crossFraction_ > 0.0 &&
                       rng_.chance(crossFraction_)) {
                w = static_cast<std::uint32_t>(
                    rng_.below(db_.schema().warehouses()));
            } else {
                w = wLo_ +
                    static_cast<std::uint32_t>(rng_.below(wSpan_));
            }
            txnW_ = w;
            planner_.planRandom(rng_, w, trace_);
        }
        // Distributed transaction: the draw escaped the partition, so
        // commit will pay the multi-instance coordination cost.
        crossTxn_ = wSpan_ != 0 &&
                    (txnW_ < wLo_ || txnW_ >= wLo_ + wSpan_);
        pc_ = 0;
        txnActive_ = true;
        txnStart_ = sys.now();
        resume_ = Resume::None;
        if (faults.txnAbortsEnabled() && faults.drawTxnAbort()) {
            // Spontaneous abort (constraint violation, client
            // cancel), armed now so replay dies mid-flight at a
            // deterministic action index.
            abortArmed_ = true;
            abortAtPc_ = faults.drawAbortPoint(
                static_cast<std::uint32_t>(trace_.actions.size()));
        }
        odbsim_assert(heldLocks_.empty(),
                      "locks leaked across transactions");
    }

    if (abortArmed_ && resume_ == Resume::None && pc_ >= abortAtPc_)
        return abortAndRetry(sys);

    odbsim_assert(pc_ < trace_.actions.size(), "trace overrun");
    const Action &a = trace_.actions[pc_];
    switch (a.kind()) {
      case ActionKind::Lock:
        return replayLock(sys, a);
      case ActionKind::Unlock:
        return replayUnlock(sys, a);
      case ActionKind::Touch:
        return replayTouch(sys, a);
      case ActionKind::Compute:
        return replayCompute(a);
      case ActionKind::Commit:
        return replayCommit(sys);
    }
    odbsim_panic("unreachable action kind");
}

os::NextAction
ServerProcess::replayLock(os::System &sys, const Action &a)
{
    (void)sys;
    os::NextAction out;
    const auto &costs = db_.costs();

    if (resume_ == Resume::LockGranted) {
        resume_ = Resume::None;
        if (db_.locks().holderOf(pendingLock_) != this) {
            // Woken by the lock-wait timeout, not a grant: the
            // manager already removed us from the waiter queue, so
            // abort the transaction and let the client retry.
            return abortAndRetry(sys);
        }
        // Woken by the previous holder; the lock is ours now.
        heldLocks_.push_back(pendingLock_);
        ++pc_;
        out.work = baseWork(500); // Post-wake bookkeeping.
        out.after = os::NextAction::After::Continue;
        return out;
    }

    out.work = baseWork(costs.lockInstr);
    out.work.addRef(mem::addrmap::lockTableBase +
                        (a.target * 0x9e3779b97f4a7c15ULL) %
                            mem::addrmap::lockTableBytes,
                    64, true);
    if (db_.locks().acquire(this, a.target)) {
        heldLocks_.push_back(a.target);
        ++pc_;
        out.after = os::NextAction::After::Continue;
    } else {
        pendingLock_ = a.target;
        resume_ = Resume::LockGranted;
        out.after = os::NextAction::After::Block;
    }
    return out;
}

os::NextAction
ServerProcess::replayUnlock(os::System &sys, const Action &a)
{
    os::NextAction out;
    const auto it =
        std::find(heldLocks_.begin(), heldLocks_.end(), a.target);
    odbsim_assert(it != heldLocks_.end(),
                  "unlock of a lock that is not held");
    heldLocks_.erase(it);
    db_.locks().release(this, a.target, sys);
    out.work = baseWork(db_.costs().lockInstr / 2);
    ++pc_;
    out.after = os::NextAction::After::Continue;
    return out;
}

os::NextAction
ServerProcess::replayTouch(os::System &sys, const Action &a)
{
    os::NextAction out;
    const auto &costs = db_.costs();
    db::BufferCache &bc = db_.bufferCache();
    const db::BlockId block = a.target;
    const bool modify = a.touch() == TouchKind::HeapModify;

    std::uint64_t frame;
    if (resume_ == Resume::FillDone) {
        // The DMA landed while we slept; the frame is ours.
        resume_ = Resume::None;
        bc.fillComplete(pendingFrame_);
        frame = pendingFrame_;
    } else {
        const db::BufferLookup hit = bc.lookup(block);
        if (!hit.hit) {
            const db::BufferVictim victim = bc.allocate(block);
            if (victim.wasDirty)
                db_.dbwr().enqueueEvicted(victim.evictedBlock);
            if (a.fresh()) {
                // Freshly formatted extent block (undo, append ring):
                // no read from disk is needed, just a frame.
                bc.fillComplete(victim.frame);
                frame = victim.frame;
            } else {
                // Sleep until the disk read DMAs in.
                pendingFrame_ = victim.frame;
                resume_ = Resume::FillDone;
                sys.chargeKernel(this, sys.kernelCosts().ioSubmitInstr);
                sys.diskReadForProcess(this, block,
                                       bc.frameAddr(victim.frame),
                                       db::blockBytes);
                out.work = baseWork(costs.bufferMissInstr);
                out.work.addRef(bc.metaAddr(block), 64, true);
                out.after = os::NextAction::After::Block;
                return out;
            }
        } else {
            frame = hit.frame;
        }
    }

    // The block is resident: buffer get plus row/index work.
    std::uint64_t instr = costs.bufferGetInstr + a.instr;
    const Addr base = bc.frameAddr(frame);
    out.work = baseWork(instr);
    out.work.extraCycles = costs.bufferGetExtraCycles;
    // Intra-block traffic (slot directory, neighbouring rows).
    // Intra-block references concentrate on the header / row
    // directory quarter of the block.
    out.work.frameAddr = base;
    out.work.frameBytes = 2048;
    out.work.privateWeight = 0.40f;
    out.work.sharedWeight = 0.15f;
    out.work.frameWeight = 0.45f;
    out.work.dataRateScale = 1.0f;
    out.work.addRef(bc.metaAddr(block), 64, false);

    switch (a.touch()) {
      case TouchKind::HeapRead:
        out.work.instructions += costs.rowAccessInstr;
        // Block header + the row itself.
        out.work.addRef(base, 64, false);
        out.work.addRef(base + a.offset(),
                        std::max<std::uint32_t>(a.bytes(), 64), false);
        break;
      case TouchKind::HeapModify:
        out.work.instructions +=
            costs.rowAccessInstr + costs.rowModifyInstr;
        out.work.addRef(base, 64, true);
        out.work.addRef(base + a.offset(),
                        std::max<std::uint32_t>(a.bytes(), 64), true);
        break;
      case TouchKind::IndexNode:
        out.work.instructions += costs.indexNodeInstr;
        // Binary-search top of the node (deterministic, hot) plus the
        // key-dependent entry.
        out.work.addRef(base + 4032, 128, false);
        out.work.addRef(base + a.offset(), 64, false);
        break;
    }
    if (modify && !bc.isDirty(frame)) {
        // First modification since the last write-back: register the
        // block on DBWR's checkpoint queue.
        bc.markDirty(frame);
        db_.dbwr().noteDirty(block, sys.now());
    }
    ++pc_;
    out.after = os::NextAction::After::Continue;
    return out;
}

os::NextAction
ServerProcess::replayCompute(const Action &a)
{
    os::NextAction out;
    out.work = baseWork(a.instr);
    ++pc_;
    out.after = os::NextAction::After::Continue;
    return out;
}

os::NextAction
ServerProcess::replayCommit(os::System &sys)
{
    os::NextAction out;
    const auto &costs = db_.costs();

    if (trace_.logBytes > 0 && resume_ != Resume::Flushed) {
        // Copy redo into the log buffer and wait for the group flush.
        const double kb = static_cast<double>(trace_.logBytes) / 1024.0;
        out.work = baseWork(static_cast<std::uint64_t>(
            kb * static_cast<double>(costs.logCopyInstrPerKb)));
        out.work.addRef(mem::addrmap::logBufferBase +
                            (sys.now() / 64 * 64) %
                                mem::addrmap::logBufferBytes,
                        std::min<std::uint32_t>(trace_.logBytes, 8192),
                        true);
        resume_ = Resume::Flushed;
        db_.log().requestCommit(this, trace_.logBytes);
        out.after = os::NextAction::After::Block;
        return out;
    }

    // Durable (or read-only): release locks, finish the transaction.
    // Cross-partition transactions settle the distributed-coordination
    // bill here (2PC messaging, duplicated log work).
    resume_ = Resume::None;
    db_.locks().releaseAll(this, heldLocks_, sys);
    out.work = baseWork(3000 + (crossTxn_ ? coordInstr_ : 0));
    crossTxn_ = false;
    txnActive_ = false;
    abortArmed_ = false;
    workload_.recordCommit(trace_.type, sys.now() - txnStart_,
                           sys.now());
    out.after = os::NextAction::After::Continue;
    return out;
}

void
ServerProcess::rollback(os::System &sys)
{
    // Normalize whatever mid-action state the transaction died in. A
    // LockGranted wake may or may not actually hold the lock (grant
    // vs timeout — holderOf distinguishes); a FillDone wake means the
    // DMA landed, so publish the fill rather than leaving the frame
    // in-transit forever. A pending log flush needs nothing: the redo
    // of an aborted transaction is simply wasted log bandwidth.
    switch (resume_) {
      case Resume::LockGranted:
        if (db_.locks().holderOf(pendingLock_) == this)
            heldLocks_.push_back(pendingLock_);
        break;
      case Resume::FillDone:
        db_.bufferCache().fillComplete(pendingFrame_);
        break;
      case Resume::None:
      case Resume::Flushed:
        break;
    }
    resume_ = Resume::None;

    // Reverse the plan-time schema mutations, newest first, so the
    // retry replans against correct state (delta-based: concurrent
    // plans against the same rows survive; see db::PlanUndo).
    db::Schema &schema = db_.schema();
    for (auto it = trace_.undo.rbegin(); it != trace_.undo.rend(); ++it)
        schema.applyPlanUndo(*it);

    db_.locks().releaseAll(this, heldLocks_, sys);
    txnActive_ = false;
    abortArmed_ = false;
    crossTxn_ = false;
}

os::NextAction
ServerProcess::abortAndRetry(os::System &sys)
{
    const std::size_t replayed = pc_;
    rollback(sys);
    sim::FaultPlan &faults = sys.faults();
    ++faults.stats().txnAborts;
    retryPending_ = true;

    // Rollback cost scales with how far replay got (undo records
    // applied for the executed prefix), then the client backs off
    // with jitter before resubmitting.
    const auto &costs = db_.costs();
    os::NextAction out;
    out.work = baseWork(costs.abortBaseInstr +
                        costs.abortPerActionInstr *
                            static_cast<std::uint64_t>(replayed));
    sys.sleepProcess(this, faults.drawClientBackoff());
    out.after = os::NextAction::After::Block;
    return out;
}

os::NextAction
ServerProcess::parkForCrash(os::System &sys)
{
    if (txnActive_) {
        // The killed transaction is rolled back here at the data
        // level (the timing cost of recovery's undo/redo work is the
        // RecoveryProcess's job) and resubmitted once the instance is
        // back up.
        rollback(sys);
        ++sys.faults().stats().txnAborts;
        retryPending_ = true;
    }
    workload_.parkCrashed(this);
    os::NextAction out;
    out.work = baseWork(500); // Connection teardown remnant.
    out.after = os::NextAction::After::Block;
    return out;
}

} // namespace odbsim::odb
