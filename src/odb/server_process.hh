/**
 * @file
 * ServerProcess: one dedicated database server process per connected
 * client (Oracle's dedicated-server model, Figure 1 of the paper).
 *
 * The process loops forever: plan a transaction for its home
 * warehouse, then replay the trace action by action — buffer-cache
 * gets that may stall on disk reads, row locks that may block on
 * contention, and a commit that blocks on the group-commit log flush.
 * Clients submit with zero think time, so a server is always either
 * running, ready, or blocked on I/O/locks — the saturation load the
 * paper uses.
 */

#ifndef ODBSIM_ODB_SERVER_PROCESS_HH
#define ODBSIM_ODB_SERVER_PROCESS_HH

#include <cstdint>
#include <vector>

#include "db/database.hh"
#include "db/trace.hh"
#include "odb/planner.hh"
#include "os/process.hh"
#include "sim/rng.hh"

namespace odbsim::odb
{

class OdbWorkload;

/**
 * Replay engine for one client connection.
 */
class ServerProcess : public os::Process
{
  public:
    ServerProcess(db::Database &database, OdbWorkload &workload,
                  TxnPlanner &planner, std::uint32_t home_w, Rng rng);

    os::NextAction next(os::System &sys) override;

    /**
     * Mark this server as killed by the instance crash. Consumed at
     * the next dispatch: the in-flight transaction (if any) is rolled
     * back and the process parks until OdbWorkload::recoveryComplete
     * wakes it. Cleared by clearCrash() before the recovery wake.
     */
    void requestCrash() { crashRequested_ = true; }
    void clearCrash() { crashRequested_ = false; }
    bool crashRequested() const { return crashRequested_; }

    /**
     * Restrict this server's warehouse draws to [@p w_lo, @p w_hi)
     * with probability 1 - @p cross_fraction, drawing from the whole
     * database otherwise (island deployments; see docs/TOPOLOGY.md).
     * A transaction whose draw lands outside the partition charges
     * @p coord_instr extra instructions at commit — the distributed
     * coordination cost of a multi-instance deployment. Call before
     * the first transaction. Unpartitioned servers keep the legacy
     * single uniform draw bit-identically.
     */
    void
    setPartition(std::uint32_t w_lo, std::uint32_t w_hi,
                 double cross_fraction, std::uint64_t coord_instr)
    {
        wLo_ = w_lo;
        wSpan_ = w_hi - w_lo;
        crossFraction_ = cross_fraction;
        coordInstr_ = coord_instr;
    }

  private:
    /** Resume state within the current action. */
    enum class Resume : std::uint8_t
    {
        None,        ///< Start the action at pc_ fresh.
        LockGranted, ///< Woken holding pendingLock_.
        FillDone,    ///< Disk read into pendingFrame_ landed.
        Flushed,     ///< Commit's log flush completed.
    };

    cpu::WorkItem baseWork(std::uint64_t instr) const;
    os::NextAction replayLock(os::System &sys, const db::Action &a);
    os::NextAction replayUnlock(os::System &sys, const db::Action &a);
    os::NextAction replayTouch(os::System &sys, const db::Action &a);
    os::NextAction replayCompute(const db::Action &a);
    os::NextAction replayCommit(os::System &sys);

    /**
     * Undo the in-flight transaction: normalize any pending Resume
     * state, reverse the plan-time schema mutations back to front,
     * release every held lock. Leaves the process ready to replan.
     */
    void rollback(os::System &sys);
    /** Roll back, charge the abort cost, then sleep for the jittered
     *  client backoff and replan the same transaction on wake. */
    os::NextAction abortAndRetry(os::System &sys);
    /** Roll back and park until recovery completes. */
    os::NextAction parkForCrash(os::System &sys);

    db::Database &db_;
    OdbWorkload &workload_;
    TxnPlanner &planner_;
    /** Partition draw range (wSpan_ == 0: unpartitioned legacy). @{ */
    std::uint32_t wLo_ = 0;
    std::uint32_t wSpan_ = 0;
    double crossFraction_ = 0.0;
    std::uint64_t coordInstr_ = 0;
    /** True while replaying a txn outside the server's partition. */
    bool crossTxn_ = false;
    /** @} */
    Rng rng_;

    db::ActionTrace trace_;
    std::size_t pc_ = 0;
    bool txnActive_ = false;
    Tick txnStart_ = 0;
    /** Warehouse of the in-flight transaction (retries replan it). */
    std::uint32_t txnW_ = 0;

    Resume resume_ = Resume::None;
    db::LockKey pendingLock_ = 0;
    std::uint64_t pendingFrame_ = 0;

    /** @name Fault injection (all dormant on an inert FaultPlan) @{ */
    /** Spontaneous abort armed at plan time, firing at abortAtPc_. */
    bool abortArmed_ = false;
    std::size_t abortAtPc_ = 0;
    /** Replan the same (type, warehouse) after the backoff sleep. */
    bool retryPending_ = false;
    bool crashRequested_ = false;
    /** @} */

    std::vector<db::LockKey> heldLocks_;
};

} // namespace odbsim::odb

#endif // ODBSIM_ODB_SERVER_PROCESS_HH
