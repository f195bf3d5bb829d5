/**
 * @file
 * Disk and disk-array models.
 *
 * Each disk services one request at a time from a FIFO queue. Random
 * requests pay seek + rotational latency + transfer; sequential
 * requests (the redo log) pay a much smaller cost. The studied system
 * had 26 Ultra320 SCSI drives; the array routes data blocks by hash
 * and reserves dedicated drives for the two redo-log files.
 *
 * Fault injection (sim::FaultPlan) adds three degradation modes, all
 * inert unless a plan with the matching knobs is bound: transient
 * medium errors retried in place with capped doubling backoff (the
 * drive stays busy head-of-line, so queued requests feel the stall),
 * degraded drives whose service times stretch by a multiplier, and
 * whole-drive failures after which the array re-routes the drive's
 * traffic to survivors. Retries never allocate: the in-service
 * request lives in the drive, not in a queue node.
 */

#ifndef ODBSIM_OS_DISK_HH
#define ODBSIM_OS_DISK_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/fault.hh"
#include "sim/pooled_fifo.hh"
#include "sim/rng.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace odbsim::os
{

/** Per-drive service model. */
struct DiskConfig
{
    /** Mean positioning time (seek + rotation) for random access, ms
     *  (15 krpm Ultra320 class, with elevator scheduling gains). */
    double randomPositionMs = 3.2;
    /** Minimum positioning time, ms. */
    double minPositionMs = 0.8;
    /** Mean positioning time for asynchronous writes, ms: the
     *  controller's write-behind cache destages them in elevator
     *  order, far cheaper than a cold random read. */
    double writePositionMs = 1.2;
    /** Sequential (log) access service time, ms. */
    double sequentialMs = 0.35;
    /** Media transfer rate, MB/s. */
    double transferMbPerSec = 40.0;
};

/** A single disk request. */
struct DiskRequest
{
    std::uint64_t bytes = 8192;
    bool write = false;
    bool sequential = false;
    /** Invoked at completion time. */
    std::function<void()> onComplete;
};

/**
 * One drive: an in-service request plus two FIFO queues — demand
 * reads are serviced ahead of write-behind destaging, as SCSI
 * controllers of the era did.
 */
class Disk
{
  public:
    Disk(std::string name, const DiskConfig &cfg, EventQueue &eq,
         std::uint64_t seed);

    void submit(DiskRequest req);

    bool busy() const { return busy_; }
    std::size_t
    queueDepth() const
    {
        return readQueue_.size() + writeQueue_.size();
    }

    /** @name Fault injection @{ */
    /** Bind the run's fault plan (null/inert plans change nothing). */
    void setFaultPlan(sim::FaultPlan *plan) { faults_ = plan; }
    /** Stretch all subsequent service times by @p factor (>= 1). */
    void degrade(double factor) { degradeFactor_ = factor; }
    /** Mark the drive dead; the array re-routes around it. */
    void failDrive() { failed_ = true; }
    bool failed() const { return failed_; }
    /** Move every queued (not in-service) request out, reads first,
     *  for re-routing after a drive failure. */
    void takeQueued(std::vector<DiskRequest> &out);
    /** @} */

    /** @name Statistics @{ */
    std::uint64_t completedReads() const { return reads_; }
    std::uint64_t completedWrites() const { return writes_; }
    std::uint64_t bytesRead() const { return bytesRead_; }
    std::uint64_t bytesWritten() const { return bytesWritten_; }
    const RunningStat &latency() const { return latency_; }
    /** Ticks this drive spent servicing requests (retry backoff wait
     *  keeps the drive busy but is not counted as service). */
    Tick busyTicks() const { return busyTicks_; }
    /** Queue-pool growth events (zero-allocation gate hook). */
    std::uint64_t
    queueAllocations() const
    {
        return readQueue_.allocations() + writeQueue_.allocations();
    }
    void resetStats();
    /** @} */

  private:
    /** A queued request plus its arrival time. */
    struct QueuedReq
    {
        DiskRequest req;
        Tick queuedAt = 0;
    };

    void startNext();
    void beginService();
    void serviceDone();
    void complete();
    Tick serviceTicks(const DiskRequest &req);

    std::string name_;
    DiskConfig cfg_;
    EventQueue &eq_;
    Rng rng_;
    sim::FaultPlan *faults_ = nullptr;

    sim::PooledFifo<QueuedReq> readQueue_;
    sim::PooledFifo<QueuedReq> writeQueue_;
    bool busy_ = false;
    bool failed_ = false;
    double degradeFactor_ = 1.0;

    /** The in-service request (held here, not in a queue node, so
     *  transient-error retries re-service it without allocating). */
    DiskRequest current_;
    Tick currentQueuedAt_ = 0;
    unsigned attempt_ = 1;

    std::uint64_t reads_ = 0;
    std::uint64_t writes_ = 0;
    std::uint64_t bytesRead_ = 0;
    std::uint64_t bytesWritten_ = 0;
    RunningStat latency_;
    Tick busyTicks_ = 0;
    Tick busySince_ = 0;
};

/** Shape of the storage subsystem. */
struct DiskArrayConfig
{
    unsigned dataDisks = 24;
    unsigned logDisks = 2;
    DiskConfig disk;
};

/**
 * The array: data blocks striped by id, log writes round-robined over
 * the dedicated log drives.
 */
class DiskArray
{
  public:
    DiskArray(const DiskArrayConfig &cfg, EventQueue &eq,
              std::uint64_t seed);

    /**
     * Bind the run's fault plan: propagate it to every drive and
     * schedule the plan's degrade/fail drive events. A null or inert
     * plan schedules nothing and changes nothing.
     */
    void bindFaults(sim::FaultPlan *plan);

    /** Read one data block (random access). */
    void readBlock(std::uint64_t block_id, std::uint64_t bytes,
                   std::function<void()> on_complete);

    /** Write one data block (random access, asynchronous). */
    void writeBlock(std::uint64_t block_id, std::uint64_t bytes,
                    std::function<void()> on_complete);

    /** Sequential write to the redo log. */
    void writeLog(std::uint64_t bytes, std::function<void()> on_complete);

    /** Sequential read from the redo log (crash recovery). */
    void readLog(std::uint64_t bytes, std::function<void()> on_complete);

    /** @name Aggregate statistics over data + log drives @{ */
    std::uint64_t totalReads() const;
    std::uint64_t totalWrites() const;
    std::uint64_t dataReads() const;
    std::uint64_t dataWrites() const;
    std::uint64_t dataBytesRead() const;
    std::uint64_t dataBytesWritten() const;
    std::uint64_t logWrites() const;
    std::uint64_t logBytesWritten() const;
    /** Mean data-drive utilization over an observation window. */
    double avgDataUtilization(Tick window) const;
    double avgReadLatencyMs() const;
    /** Queue-pool growth events across every drive. */
    std::uint64_t queueAllocations() const;
    void resetStats();
    /** @} */

    const Disk &dataDisk(unsigned i) const { return *dataDisks_[i]; }
    const Disk &logDisk(unsigned i) const { return *logDisks_[i]; }

  private:
    Disk &routeData(std::uint64_t block_id);
    Disk &survivorFrom(std::uint64_t start);
    void onDriveEvent(const sim::DriveFaultEvent &ev);

    EventQueue &eq_;
    sim::FaultPlan *faults_ = nullptr;
    std::vector<std::unique_ptr<Disk>> dataDisks_;
    std::vector<std::unique_ptr<Disk>> logDisks_;
    unsigned nextLogDisk_ = 0;
    unsigned nextLogReadDisk_ = 0;
    bool anyFailed_ = false;
};

} // namespace odbsim::os

#endif // ODBSIM_OS_DISK_HH
