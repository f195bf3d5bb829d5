/**
 * @file
 * OdbWorkload: drives one database with C concurrent clients (each a
 * dedicated ServerProcess bound to a home warehouse) and aggregates
 * transaction throughput and response-time statistics.
 */

#ifndef ODBSIM_ODB_WORKLOAD_HH
#define ODBSIM_ODB_WORKLOAD_HH

#include <cstdint>
#include <vector>

#include "db/database.hh"
#include "db/trace.hh"
#include "odb/planner.hh"
#include "os/placement.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace odbsim::odb
{

class ServerProcess;

/** Client population and mix. */
struct WorkloadConfig
{
    unsigned clients = 8;           ///< Concurrent clients (servers).
    TxnMix mix;                     ///< Transaction-type mix.
    std::uint64_t seed = 0x0dbULL;  ///< Workload RNG seed.
    /**
     * Server placement on the machine's socket topology. The default
     * None keeps the legacy unpinned, uniformly-drawing behaviour
     * bit-identically; Island pins each server to a socket group and
     * partitions its warehouse draws (see docs/TOPOLOGY.md).
     */
    os::PlacementConfig placement;
};

/**
 * The client/server population of one run.
 */
class OdbWorkload
{
  public:
    OdbWorkload(db::Database &database, const WorkloadConfig &cfg);

    /** Spawn the server processes (call after Database::start()). */
    void start();

    unsigned clients() const { return cfg_.clients; }

    /** Home warehouse of each spawned client. */
    const std::vector<std::uint32_t> &homes() const { return homes_; }

    /** Called by ServerProcess at commit time. */
    void recordCommit(db::TxnType type, Tick latency, Tick now);

    /** @name Crash + recovery orchestration (inert without a crash
     *  knob: nothing is scheduled and the timeline stays empty) @{ */
    /** A crashed server rolled back and is about to block. */
    void parkCrashed(ServerProcess *p);
    /** Redo replay finished: record MTTR, revive every server. */
    void recoveryComplete();
    /**
     * Commits whose completion fell in [@p a, @p b), from the 10 ms
     * commit timeline kept on crash-enabled runs — how the faults
     * study reads the throughput dip and the post-recovery ramp.
     */
    std::uint64_t commitsBetween(Tick a, Tick b) const;
    /** @} */

    /** @name Statistics @{ */
    std::uint64_t committed() const;
    std::uint64_t
    committed(db::TxnType t) const
    {
        return counts_[static_cast<unsigned>(t)];
    }
    const RunningStat &
    latencyMs(db::TxnType t) const
    {
        return latency_[static_cast<unsigned>(t)];
    }
    /** Response-time distribution over all transaction types. */
    const Histogram &latencyHistogramMs() const { return latencyHist_; }
    /** Transactions per second over @p window ticks. */
    double tps(Tick window) const;
    void resetStats();
    /** @} */

  private:
    /** Commit-timeline bucket width (crash-enabled runs only). */
    static constexpr Tick timelineBucketTicks = 10 * tickPerMs;

    void beginCrash();

    db::Database &db_;
    WorkloadConfig cfg_;
    TxnPlanner planner_;
    Rng rng_;
    bool started_ = false;
    std::vector<std::uint32_t> homes_;
    /** Spawned servers (owned by the System; observers here). */
    std::vector<ServerProcess *> servers_;
    /** Servers parked behind the instance crash. */
    std::vector<ServerProcess *> parked_;
    /** Commits per 10 ms of absolute sim time; only populated when
     *  the fault plan schedules a crash (inertness contract). */
    std::vector<std::uint32_t> timeline_;
    bool trackTimeline_ = false;

    std::uint64_t counts_[db::numTxnTypes] = {};
    RunningStat latency_[db::numTxnTypes];
    Histogram latencyHist_{0.0, 500.0, 500};
};

} // namespace odbsim::odb

#endif // ODBSIM_ODB_WORKLOAD_HH
