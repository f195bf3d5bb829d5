/**
 * @file
 * ExperimentRunner: build a machine + database + workload for one OLTP
 * configuration, warm it up, measure it, and return a RunResult — one
 * data point of the paper's characterization.
 *
 * Unit conventions used throughout the core API:
 *  - durations are simulated Ticks (1 tick = 1 picosecond; see
 *    sim/types.hh helpers ticksFromSeconds()/secondsFromTicks());
 *  - IPX values are instructions per transaction (RunResult reports
 *    them raw; figures display millions);
 *  - MPI values are misses per instruction (figures display
 *    misses per 1000 instructions, i.e. MPI × 1e3);
 *  - CPI values are cycles per instruction, dimensionless.
 */

#ifndef ODBSIM_CORE_EXPERIMENT_HH
#define ODBSIM_CORE_EXPERIMENT_HH

#include <cstdint>

#include "core/machine.hh"
#include "core/metrics.hh"
#include "mem/topology.hh"
#include "os/placement.hh"
#include "sim/fault.hh"
#include "sim/types.hh"

namespace odbsim::core
{

/** @brief One point of the OLTP configuration space (Section 3.2). */
struct OltpConfiguration
{
    /** Workload scale in warehouses (the cached-vs-scaled axis). */
    unsigned warehouses = 10;
    /** Processors enabled on the machine preset. */
    unsigned processors = 4;
    /** Concurrent clients; 0 selects the paper's Table 1 value. */
    unsigned clients = 0;
    /** Machine preset to measure on. */
    MachineKind machine = MachineKind::XeonQuadMp;
    /**
     * Socket topology overriding the preset's (default: one socket,
     * the paper's machines; see docs/TOPOLOGY.md).
     */
    mem::TopologyConfig topology;
    /** Server-process placement on that topology (default: legacy). */
    os::PlacementConfig placement;
};

/**
 * @brief Simulation-control knobs, shared by every run of a study.
 *
 * An entire run is a pure function of (configuration, knobs): every
 * RNG stream is derived from @ref seed plus configuration fields, so
 * two runs with equal inputs are bit-identical — including runs
 * executed concurrently on different host threads.
 */
struct RunKnobs
{
    /** Dynamic warm-up (in Ticks of simulated time) after the instant
     *  buffer-cache prefill; scaled up with warehouses internally. */
    Tick warmup = ticksFromSeconds(0.4);
    /** Measurement window in Ticks of simulated time. */
    Tick measure = ticksFromSeconds(1.5);
    /** CPU-model set-sampling factor: 1 of every N cache sets is
     *  simulated (16 reproduces the paper's error envelope). */
    std::uint32_t samplePeriod = 16;
    /** Master seed; all per-run streams derive from it. */
    std::uint64_t seed = 42;
    /** IOQ residency (bus cycles) of the 1P baseline for the Table 4
     *  L3 stall formula; the paper measured 102. */
    double ioq1pCycles = 102.0;
    /** Fault-injection plan (default: none — structurally inert, the
     *  run is bit-identical to one without the subsystem). */
    sim::FaultConfig faults;
    /** Dynamic warm-up added per warehouse on top of @ref warmup, in
     *  simulated milliseconds: larger databases need more transactions
     *  to reach steady-state residency of the skew-hot rows. The
     *  default reproduces the paper-scale behaviour; 100×-scale grid
     *  points dial it down to keep wall clock bounded. */
    double warmupPerWarehouseMs = 4.0;
};

/**
 * @brief Runs one configuration end to end.
 *
 * Stateless: each call constructs its own System, Database and
 * Workload, so concurrent calls from different threads are safe and
 * independent (this is what the parallel ScalingStudy executor relies
 * on).
 */
class ExperimentRunner
{
  public:
    /**
     * @brief Measure @p cfg and return its metrics.
     * @param cfg   The grid point (warehouses, processors, clients,
     *              machine preset).
     * @param knobs Simulation control (windows in Ticks, seed,
     *              sampling).
     * @return All RunResult metrics over the measurement window.
     */
    static RunResult run(const OltpConfiguration &cfg,
                         const RunKnobs &knobs = {});

    /**
     * @brief Measure a configuration on a hand-built machine
     * (ablations: custom cache sizes, disk counts, bus parameters).
     *
     * @param preset     Machine description (CPUs, caches, disks, bus,
     *                    topology).
     * @param warehouses Workload scale in warehouses.
     * @param clients    Concurrent clients; 0 selects the paper's
     *                   Table 1 value.
     * @param knobs      Simulation control (windows in Ticks, seed,
     *                   sampling).
     * @param placement  Server placement on the preset's topology
     *                   (default: legacy unpinned behaviour).
     * @return All RunResult metrics over the measurement window.
     */
    static RunResult runWithPreset(const MachinePreset &preset,
                                   unsigned warehouses, unsigned clients,
                                   const RunKnobs &knobs = {},
                                   const os::PlacementConfig &placement =
                                       {});

    /**
     * @brief Stop with a one-line fatal message unless run() can
     * build @p cfg with @p knobs: cfg.processors in
     * [1, maxProcessors], then every check of the preset overload on
     * the machine makeMachine() builds for them with cfg.topology
     * and cfg.placement. run() and ScalingStudy::run (for every grid
     * point, before any worker starts) call it on entry, so a bad
     * value never reaches an engine assert.
     */
    static void checkInputs(const OltpConfiguration &cfg,
                            const RunKnobs &knobs);

    /**
     * @brief Stop with a one-line fatal message unless @p warehouses
     * and @p knobs can run on @p preset: at least one warehouse, a
     * positive RunKnobs::measure, a finite, non-negative
     * RunKnobs::warmupPerWarehouseMs whose warm-up (RunKnobs::warmup
     * plus @p warehouses times it) fits in a Tick, a measure window
     * that still fits in a Tick after that warm-up, the preset's
     * sample period a power of two that leaves at least 2 sets in its
     * scaled L2 and L3, and a topology the memory system can build: at
     * most mem::maxCoherentCpus sockets, one socket for a shared-L3
     * (CMP) machine, and a page shift of 6 to 30. An Island
     * @p placement's sockets per island (clamped to [1, sockets] as
     * the workload does) must divide the socket count, and there must
     * be at least one warehouse per island. runWithPreset() calls it
     * on entry.
     */
    static void checkInputs(const MachinePreset &preset,
                            unsigned warehouses, const RunKnobs &knobs,
                            const os::PlacementConfig &placement = {});
};

} // namespace odbsim::core

#endif // ODBSIM_CORE_EXPERIMENT_HH
