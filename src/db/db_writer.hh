/**
 * @file
 * DBWR: the database-writer background process.
 *
 * Two sources feed it, as in Oracle:
 *  - the *urgent* queue: dirty blocks evicted from the buffer cache
 *    (no longer resident, must reach disk);
 *  - the *checkpoint* queue: blocks registered when first dirtied,
 *    written back once they age past the checkpoint limit — so hot
 *    blocks coalesce many modifications into one write at small
 *    warehouse counts, while cold dirty blocks stream out at scaled
 *    configurations. This produces the write-back component of the
 *    paper's Figure 7 disk-write traffic, on top of the redo log.
 */

#ifndef ODBSIM_DB_DB_WRITER_HH
#define ODBSIM_DB_DB_WRITER_HH

#include <cstdint>
#include <utility>

#include "db/buffer_cache.hh"
#include "db/cost_model.hh"
#include "db/types.hh"
#include "os/process.hh"
#include "os/system.hh"
#include "sim/pooled_fifo.hh"

namespace odbsim::db
{

class LogManager;

/** DBWR batching parameters. */
struct DbWriterConfig
{
    /** Blocks written per DBWR activation batch. */
    unsigned batchSize = 32;
    /** Urgent-queue depth that wakes an idle DBWR early. */
    unsigned wakeThreshold = 16;
    /** Maximum writes in flight before DBWR throttles itself. */
    unsigned maxOutstanding = 256;
    /** Dirty age after which a block is checkpointed out. Long, as
     *  Oracle's incremental checkpoint is: most write-back traffic is
     *  eviction-driven under cache pressure. */
    Tick checkpointAge = 5 * tickPerSec;
    /** Idle rescan period. */
    Tick scanInterval = 100 * tickPerMs;
    /** Dirty backlog that forces writes regardless of age. */
    unsigned maxDirtyBacklog = 30000;
};

/**
 * Write-back queues plus the DBWR process.
 */
class DbWriter
{
  public:
    DbWriter(os::System &sys, const DbCostModel &costs, BufferCache &bc,
             const DbWriterConfig &cfg = {});

    /** Spawn the DBWR background process. */
    void start();

    /**
     * Bind the redo-log manager so DBWR can advance the checkpoint
     * marker whenever its checkpoint queue fully drains — every dirty
     * block registered before that point is on disk, so crash
     * recovery need not replay redo older than it.
     */
    void bindLog(LogManager *log) { log_ = log; }

    /** A dirty block was evicted and must be written. */
    void enqueueEvicted(BlockId b);

    /** A resident block was dirtied (checkpoint-queue registration). */
    void noteDirty(BlockId b, Tick now);

    std::size_t urgentDepth() const { return urgent_.size(); }

    /** @name Statistics @{ */
    std::uint64_t blocksWritten() const { return written_; }
    /** Work-queue pool growth events (zero-allocation gate hook). */
    std::uint64_t
    queueAllocations() const
    {
        return urgent_.allocations() + ckpt_.allocations();
    }
    void resetStats() { written_ = 0; }
    /** @} */

  private:
    class DbwrProcess;

    os::System &sys_;
    const DbCostModel &costs_;
    BufferCache &bc_;
    DbWriterConfig cfg_;
    os::Process *proc_ = nullptr;
    LogManager *log_ = nullptr;
    bool sleeping_ = false;
    bool throttled_ = false;
    sim::PooledFifo<BlockId> urgent_;
    sim::PooledFifo<std::pair<BlockId, Tick>> ckpt_;
    unsigned outstanding_ = 0;
    std::uint64_t written_ = 0;
};

} // namespace odbsim::db

#endif // ODBSIM_DB_DB_WRITER_HH
