/**
 * @file
 * RunResult: everything one measured configuration yields — the iron
 * law inputs (TPS, IPX, CPI), the memory-system metrics (MPI, bus),
 * the system events (disk I/O, context switches), and the CPI
 * breakdown of Figure 12.
 */

#ifndef ODBSIM_CORE_METRICS_HH
#define ODBSIM_CORE_METRICS_HH

#include <cstdint>

#include "analysis/cpi_breakdown.hh"
#include "perfmon/events.hh"

namespace odbsim::core
{

/** All measurements from one configuration run. */
struct RunResult
{
    /** @name Configuration @{ */
    unsigned warehouses = 0;
    unsigned processors = 0;
    unsigned clients = 0;
    /** @} */

    /** @name Throughput @{ */
    double measureSeconds = 0.0;
    std::uint64_t txnsCommitted = 0;
    double tps = 0.0;
    /** Iron-law prediction from the measured IPX/CPI/utilization. */
    double ironLawTps = 0.0;
    /** @} */

    /** @name CPU accounting @{ */
    double cpuUtil = 0.0;
    /** OS share of busy cycles (paper Figure 3). */
    double osCycleShare = 0.0;
    /** OS share of retired instructions. */
    double osInstrShare = 0.0;
    /** @} */

    /** @name Iron-law terms (Figures 4-6, 9-11, 13-15) @{ */
    double ipx = 0.0, ipxUser = 0.0, ipxOs = 0.0;
    double cpi = 0.0, cpiUser = 0.0, cpiOs = 0.0;
    double mpi = 0.0, mpiUser = 0.0, mpiOs = 0.0;
    /** @} */

    /** @name System events (Figures 7-8) @{ */
    double diskReadKbPerTxn = 0.0;
    double diskWriteKbPerTxn = 0.0;
    double logKbPerTxn = 0.0;
    double diskReadsPerTxn = 0.0;
    double ctxPerTxn = 0.0;
    /** Transaction response times over the window. @{ */
    double avgLatencyMs = 0.0;
    double p95LatencyMs = 0.0;
    /** @} */
    double bufferHitRatio = 0.0;
    double avgDiskUtil = 0.0;
    double diskReadLatencyMs = 0.0;
    /** @} */

    /** @name Bus / coherence (Figure 16, Section 5.2) @{ */
    double busUtil = 0.0;
    double ioqCycles = 0.0;
    double coherenceShareOfL3 = 0.0;
    /** @} */

    /**
     * @name Socket topology (multi-socket runs only; both exactly
     * zero at S=1 and excluded from the golden study CSVs)
     * @{
     */
    /** Share of L3 misses serviced by a remote socket. */
    double remoteMissShare = 0.0;
    /** Mean inter-socket interconnect utilization. */
    double linkUtil = 0.0;
    /** @} */

    /**
     * @name Fault injection (robustness runs only; all exactly zero
     * under the default fault-free plan and excluded from the golden
     * study CSVs, which must stay bit-identical)
     * @{
     */
    std::uint64_t txnAborts = 0;
    std::uint64_t txnRetries = 0;
    std::uint64_t lockTimeouts = 0;
    std::uint64_t diskTransientErrors = 0;
    std::uint64_t driveFailures = 0;
    std::uint64_t redoReplayedBytes = 0;
    /** Mean time to recover: crash tick to instance-up, ms (0 when no
     *  crash was injected). */
    double mttrMs = 0.0;
    /** Committed-txn rate over the 500 ms before the crash. */
    double tpsPreCrash = 0.0;
    /** Committed-txn rate over the 500 ms after recovery completed. */
    double tpsPostRecovery = 0.0;
    /** @} */

    /** CPI decomposition (Figure 12 / Tables 3-4). */
    analysis::CpiComponents breakdown;

    /** Raw counter deltas over the window. */
    perfmon::SystemCounters counters;

    /**
     * @name Host-side profiling (observability only)
     *
     * Wall-clock cost of producing this point. eventsFired is
     * deterministic (a property of the simulation), wallSeconds is
     * not — neither participates in the golden study CSVs, which must
     * regenerate bit-identically; odbsim_paper prints them on each
     * simulation's progress line instead.
     * @{
     */
    /** Host wall-clock seconds consumed by the whole run. */
    double wallSeconds = 0.0;
    /** Simulation-kernel events fired over the whole run. */
    std::uint64_t eventsFired = 0;
    /** @} */
};

} // namespace odbsim::core

#endif // ODBSIM_CORE_METRICS_HH
