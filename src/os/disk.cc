#include "os/disk.hh"

#include <algorithm>
#include <cmath>
#include <memory>

#include "sim/logging.hh"

namespace odbsim::os
{

namespace
{

void
checkLatency(double v, const char *name)
{
    if (!std::isfinite(v) || v < 0.0)
        odbsim_fatal("disk config: ", name,
                     " must be finite and >= 0, got ", v);
}

} // namespace

Disk::Disk(std::string name, const DiskConfig &cfg, EventQueue &eq,
           std::uint64_t seed)
    : name_(std::move(name)), cfg_(cfg), eq_(eq), rng_(seed)
{
    checkLatency(cfg.randomPositionMs, "randomPositionMs");
    checkLatency(cfg.minPositionMs, "minPositionMs");
    checkLatency(cfg.writePositionMs, "writePositionMs");
    checkLatency(cfg.sequentialMs, "sequentialMs");
    if (!std::isfinite(cfg.transferMbPerSec) ||
        cfg.transferMbPerSec <= 0.0) {
        odbsim_fatal("disk config: transferMbPerSec must be > 0, got ",
                     cfg.transferMbPerSec);
    }
}

Tick
Disk::serviceTicks(const DiskRequest &req)
{
    const double transfer_ms =
        static_cast<double>(req.bytes) /
        (cfg_.transferMbPerSec * 1e6) * 1e3;
    double position_ms;
    if (req.sequential) {
        position_ms = cfg_.sequentialMs;
    } else {
        // Exponential spread around the mean, floored at the minimum
        // positioning time. Asynchronous writes destage through the
        // controller's write-behind cache in elevator order.
        const double mean =
            req.write ? cfg_.writePositionMs : cfg_.randomPositionMs;
        position_ms =
            cfg_.minPositionMs +
            rng_.exponential(std::max(0.05, mean - cfg_.minPositionMs));
    }
    Tick t = ticksFromMs(position_ms + transfer_ms);
    if (degradeFactor_ != 1.0) {
        t = static_cast<Tick>(static_cast<double>(t) * degradeFactor_);
    }
    return t;
}

void
Disk::submit(DiskRequest req)
{
    auto &q = req.write ? writeQueue_ : readQueue_;
    q.pushBack(QueuedReq{std::move(req), eq_.curTick()});
    if (!busy_)
        startNext();
}

void
Disk::startNext()
{
    // Demand reads preempt queued write-behind destaging.
    auto &q = !readQueue_.empty() ? readQueue_ : writeQueue_;
    odbsim_assert(!q.empty(), "startNext on empty disk queue");
    busy_ = true;
    busySince_ = eq_.curTick();

    QueuedReq qr = q.popFront();
    current_ = std::move(qr.req);
    currentQueuedAt_ = qr.queuedAt;
    attempt_ = 1;
    beginService();
}

void
Disk::beginService()
{
    eq_.scheduleAfter(serviceTicks(current_), [this] { serviceDone(); });
}

void
Disk::serviceDone()
{
    if (faults_ && faults_->diskFaultsEnabled()) {
        const unsigned max_retries = faults_->config().diskMaxRetries;
        if (attempt_ <= max_retries && faults_->drawDiskTransient()) {
            // Transient medium error: the controller backs off and
            // retries in place. The drive stays busy (head-of-line),
            // but the backoff wait is not service time.
            ++faults_->stats().diskTransientErrors;
            busyTicks_ += eq_.curTick() - busySince_;
            const Tick backoff = faults_->diskBackoffTicks(attempt_);
            ++attempt_;
            eq_.scheduleAfter(backoff, [this] {
                busySince_ = eq_.curTick();
                beginService();
            });
            return;
        }
        if (attempt_ > max_retries)
            ++faults_->stats().diskRetriesExhausted;
    }
    complete();
}

void
Disk::complete()
{
    const Tick now = eq_.curTick();
    busyTicks_ += now - busySince_;
    latency_.add(secondsFromTicks(now - currentQueuedAt_) * 1e3);
    if (current_.write) {
        ++writes_;
        bytesWritten_ += current_.bytes;
    } else {
        ++reads_;
        bytesRead_ += current_.bytes;
    }
    std::function<void()> cb = std::move(current_.onComplete);
    current_ = DiskRequest{};
    busy_ = false;
    if (!readQueue_.empty() || !writeQueue_.empty())
        startNext();
    if (cb)
        cb();
}

void
Disk::takeQueued(std::vector<DiskRequest> &out)
{
    while (!readQueue_.empty())
        out.push_back(std::move(readQueue_.popFront().req));
    while (!writeQueue_.empty())
        out.push_back(std::move(writeQueue_.popFront().req));
}

void
Disk::resetStats()
{
    reads_ = 0;
    writes_ = 0;
    bytesRead_ = 0;
    bytesWritten_ = 0;
    latency_.reset();
    busyTicks_ = 0;
}

DiskArray::DiskArray(const DiskArrayConfig &cfg, EventQueue &eq,
                     std::uint64_t seed)
    : eq_(eq)
{
    odbsim_assert(cfg.dataDisks >= 1, "need at least one data disk");
    odbsim_assert(cfg.logDisks >= 1, "need at least one log disk");
    for (unsigned i = 0; i < cfg.dataDisks; ++i) {
        dataDisks_.push_back(std::make_unique<Disk>(
            "data" + std::to_string(i), cfg.disk, eq, seed + i));
    }
    for (unsigned i = 0; i < cfg.logDisks; ++i) {
        logDisks_.push_back(std::make_unique<Disk>(
            "log" + std::to_string(i), cfg.disk, eq,
            seed + 1000 + i));
    }
}

void
DiskArray::bindFaults(sim::FaultPlan *plan)
{
    faults_ = plan;
    if (!plan)
        return;
    for (auto &d : dataDisks_)
        d->setFaultPlan(plan);
    for (auto &d : logDisks_)
        d->setFaultPlan(plan);
    if (!plan->driveEventsEnabled())
        return;
    for (const sim::DriveFaultEvent &ev : plan->config().driveEvents) {
        if (ev.drive >= dataDisks_.size()) {
            odbsim_fatal("fault config: driveEvents[].drive ", ev.drive,
                         " out of range (", dataDisks_.size(),
                         " data disks)");
        }
        eq_.schedule(ticksFromMs(ev.atMs),
                     [this, ev] { onDriveEvent(ev); });
    }
}

void
DiskArray::onDriveEvent(const sim::DriveFaultEvent &ev)
{
    Disk &d = *dataDisks_[ev.drive];
    if (!ev.fail) {
        d.degrade(ev.degradeFactor);
        return;
    }
    if (d.failed())
        return;
    d.failDrive();
    anyFailed_ = true;
    ++faults_->stats().driveFailures;
    // Orphaned queue entries move to the next surviving drives. The
    // in-service request completes on its own (the data was already
    // in flight). Failure is a rare, one-shot event, so the temporary
    // vector here is exempt from the steady-state allocation gate.
    std::vector<DiskRequest> orphans;
    d.takeQueued(orphans);
    for (DiskRequest &req : orphans) {
        ++faults_->stats().reroutedRequests;
        survivorFrom(ev.drive + 1).submit(std::move(req));
    }
}

Disk &
DiskArray::survivorFrom(std::uint64_t start)
{
    const std::size_t n = dataDisks_.size();
    for (std::size_t i = 0; i < n; ++i) {
        Disk &d = *dataDisks_[(start + i) % n];
        if (!d.failed())
            return d;
    }
    odbsim_fatal("fault injection: every data drive has failed");
}

Disk &
DiskArray::routeData(std::uint64_t block_id)
{
    // Multiplicative hash spreads block ids over the stripe set.
    const std::uint64_t h = block_id * 0x9e3779b97f4a7c15ULL;
    const std::uint64_t slot = h % dataDisks_.size();
    Disk &d = *dataDisks_[slot];
    if (anyFailed_ && d.failed())
        return survivorFrom(slot + 1);
    return d;
}

void
DiskArray::readBlock(std::uint64_t block_id, std::uint64_t bytes,
                     std::function<void()> on_complete)
{
    routeData(block_id).submit(
        DiskRequest{bytes, false, false, std::move(on_complete)});
}

void
DiskArray::writeBlock(std::uint64_t block_id, std::uint64_t bytes,
                      std::function<void()> on_complete)
{
    routeData(block_id).submit(
        DiskRequest{bytes, true, false, std::move(on_complete)});
}

void
DiskArray::writeLog(std::uint64_t bytes, std::function<void()> on_complete)
{
    Disk &d = *logDisks_[nextLogDisk_];
    nextLogDisk_ = (nextLogDisk_ + 1) % logDisks_.size();
    d.submit(DiskRequest{bytes, true, true, std::move(on_complete)});
}

void
DiskArray::readLog(std::uint64_t bytes, std::function<void()> on_complete)
{
    Disk &d = *logDisks_[nextLogReadDisk_];
    nextLogReadDisk_ = (nextLogReadDisk_ + 1) % logDisks_.size();
    d.submit(DiskRequest{bytes, false, true, std::move(on_complete)});
}

std::uint64_t
DiskArray::totalReads() const
{
    std::uint64_t n = 0;
    for (const auto &d : dataDisks_)
        n += d->completedReads();
    for (const auto &d : logDisks_)
        n += d->completedReads();
    return n;
}

std::uint64_t
DiskArray::totalWrites() const
{
    std::uint64_t n = 0;
    for (const auto &d : dataDisks_)
        n += d->completedWrites();
    for (const auto &d : logDisks_)
        n += d->completedWrites();
    return n;
}

std::uint64_t
DiskArray::dataReads() const
{
    std::uint64_t n = 0;
    for (const auto &d : dataDisks_)
        n += d->completedReads();
    return n;
}

std::uint64_t
DiskArray::dataWrites() const
{
    std::uint64_t n = 0;
    for (const auto &d : dataDisks_)
        n += d->completedWrites();
    return n;
}

std::uint64_t
DiskArray::dataBytesRead() const
{
    std::uint64_t n = 0;
    for (const auto &d : dataDisks_)
        n += d->bytesRead();
    return n;
}

std::uint64_t
DiskArray::dataBytesWritten() const
{
    std::uint64_t n = 0;
    for (const auto &d : dataDisks_)
        n += d->bytesWritten();
    return n;
}

std::uint64_t
DiskArray::logWrites() const
{
    std::uint64_t n = 0;
    for (const auto &d : logDisks_)
        n += d->completedWrites();
    return n;
}

std::uint64_t
DiskArray::logBytesWritten() const
{
    std::uint64_t n = 0;
    for (const auto &d : logDisks_)
        n += d->bytesWritten();
    return n;
}

double
DiskArray::avgDataUtilization(Tick window) const
{
    if (dataDisks_.empty() || window == 0)
        return 0.0;
    double sum = 0.0;
    for (const auto &d : dataDisks_)
        sum += static_cast<double>(d->busyTicks());
    return sum / (static_cast<double>(window) * dataDisks_.size());
}

double
DiskArray::avgReadLatencyMs() const
{
    double sum = 0.0;
    std::uint64_t n = 0;
    for (const auto &d : dataDisks_) {
        sum += d->latency().mean() * d->latency().count();
        n += d->latency().count();
    }
    return n ? sum / static_cast<double>(n) : 0.0;
}

std::uint64_t
DiskArray::queueAllocations() const
{
    std::uint64_t n = 0;
    for (const auto &d : dataDisks_)
        n += d->queueAllocations();
    for (const auto &d : logDisks_)
        n += d->queueAllocations();
    return n;
}

void
DiskArray::resetStats()
{
    for (auto &d : dataDisks_)
        d->resetStats();
    for (auto &d : logDisks_)
        d->resetStats();
}

} // namespace odbsim::os
