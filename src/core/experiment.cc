#include "core/experiment.hh"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <limits>
#include <utility>

#include "analysis/iron_law.hh"
#include "core/client_table.hh"
#include "db/database.hh"
#include "mem/coherence.hh"
#include "odb/workload.hh"
#include "os/system.hh"
#include "sim/logging.hh"

namespace odbsim::core
{

RunResult
ExperimentRunner::run(const OltpConfiguration &cfg, const RunKnobs &knobs)
{
    checkInputs(cfg, knobs);
    MachinePreset preset = makeMachine(
        cfg.machine, cfg.processors, knobs.samplePeriod, knobs.seed);
    preset.sys.topology = cfg.topology;
    return runWithPreset(preset, cfg.warehouses, cfg.clients, knobs,
                         cfg.placement);
}

void
ExperimentRunner::checkInputs(const OltpConfiguration &cfg,
                              const RunKnobs &knobs)
{
    if (cfg.processors < 1 || cfg.processors > maxProcessors)
        odbsim_fatal("a run needs 1 to ", maxProcessors,
                     " processors, got ", cfg.processors);
    MachinePreset preset = makeMachine(cfg.machine, cfg.processors,
                                       knobs.samplePeriod, knobs.seed);
    preset.sys.topology = cfg.topology;
    checkInputs(preset, cfg.warehouses, knobs, cfg.placement);
}

void
ExperimentRunner::checkInputs(const MachinePreset &preset,
                              unsigned warehouses, const RunKnobs &knobs,
                              const os::PlacementConfig &placement)
{
    if (warehouses == 0)
        odbsim_fatal("a run needs at least 1 warehouse, got 0");
    if (knobs.measure == 0)
        odbsim_fatal("RunKnobs::measure must be positive, got 0");
    const double per_w = knobs.warmupPerWarehouseMs;
    if (!std::isfinite(per_w) || per_w < 0.0)
        odbsim_fatal("RunKnobs::warmupPerWarehouseMs must be finite and "
                     "at least 0, got ", per_w);
    // runWithPreset warms up for warmup + ticksFromMs(W x per_w); the
    // first test keeps that conversion's double-to-Tick cast defined.
    const double extra_ms = static_cast<double>(warehouses) * per_w;
    if (extra_ms * static_cast<double>(tickPerMs) >= 0x1p64 ||
        ticksFromMs(extra_ms) >
            std::numeric_limits<Tick>::max() - knobs.warmup)
        odbsim_fatal("the warm-up of RunKnobs::warmup plus ", warehouses,
                     " x warmupPerWarehouseMs = ", per_w,
                     " ms does not fit in a Tick");
    // The measure window runs until the warm-up's end plus measure; a
    // sum past the last Tick would wrap and end the run at once.
    const Tick warm = knobs.warmup + ticksFromMs(extra_ms);
    if (knobs.measure > std::numeric_limits<Tick>::max() - warm)
        odbsim_fatal("RunKnobs::measure = ", knobs.measure,
                     " ticks does not fit in a Tick after the warm-up of ",
                     warm, " ticks");
    // The memory system keeps 1 of every S sets of each L2 and L3.
    const std::uint32_t s = preset.sys.core.samplePeriod;
    if (!std::has_single_bit(s))
        odbsim_fatal("the sample period must be a power of two, got ", s);
    const auto &hier = preset.sys.hierarchy;
    for (const auto &[name, geom] :
         {std::pair{"L2", hier.l2}, std::pair{"L3", hier.l3}}) {
        const std::uint64_t sets = geom.numSets() / s;
        if (sets < 2)
            odbsim_fatal("sample period ", s, " leaves ", sets,
                         " sets in the ", name, " of ", preset.name,
                         "; it needs at least 2");
    }
    // The MemorySystem constructor's topology asserts; 0 sockets means
    // 1 there.
    const mem::TopologyConfig &topo = preset.sys.topology;
    if (topo.sockets > mem::maxCoherentCpus)
        odbsim_fatal("a topology has at most ", mem::maxCoherentCpus,
                     " sockets, got ", topo.sockets);
    if (topo.sockets > 1 && hier.sharedL3)
        odbsim_fatal(preset.name, " shares one on-die L3 and cannot span ",
                     topo.sockets, " sockets");
    if (topo.pageShift < 6 || topo.pageShift > 30)
        odbsim_fatal("the topology page shift must be 6 to 30, got ",
                     topo.pageShift);
    // OdbWorkload::start's island geometry asserts, with its clamp.
    if (placement.policy == os::PlacementPolicy::Island) {
        const unsigned sockets = std::max(topo.sockets, 1u);
        const unsigned per_island =
            std::clamp(placement.islandSockets, 1u, sockets);
        if (sockets % per_island != 0)
            odbsim_fatal("an Island placement of ", per_island,
                         " sockets per island does not divide the ",
                         sockets, " sockets");
        if (warehouses < sockets / per_island)
            odbsim_fatal("an Island placement of ", sockets / per_island,
                         " islands needs at least as many warehouses, "
                         "got ", warehouses);
    }
}

RunResult
ExperimentRunner::runWithPreset(const MachinePreset &preset,
                                unsigned warehouses, unsigned cfg_clients,
                                const RunKnobs &knobs,
                                const os::PlacementConfig &placement)
{
    checkInputs(preset, warehouses, knobs, placement);
    const auto wall_start = std::chrono::steady_clock::now();

    // Knob-level fault plan: copied into the machine description so
    // the System constructs its FaultPlan from it. An empty default
    // leaves the run bit-identical (inertness contract).
    os::SystemConfig syscfg = preset.sys;
    syscfg.faults = knobs.faults;
    os::System sys(syscfg);

    db::DatabaseConfig dbcfg;
    dbcfg.schema.warehouses = warehouses;
    dbcfg.schema.seed = knobs.seed;
    dbcfg.cacheWarehouseEquivalents = preset.cacheWarehouseEquivalents;
    db::Database database(sys, dbcfg);
    database.start();

    const unsigned clients =
        cfg_clients ? cfg_clients
                    : paperClients(warehouses, preset.sys.numCpus);
    odb::WorkloadConfig wcfg;
    wcfg.clients = clients;
    wcfg.seed = knobs.seed * 7919 + warehouses;
    wcfg.placement = placement;
    odb::OdbWorkload workload(database, wcfg);
    workload.start();

    // Pre-populate the buffer cache in hotness order (substitute for
    // the paper's 20-minute warm-up).
    database.instantWarm();
    // Dynamic warm-up: larger databases need more transactions to
    // reach steady-state residency of the skew-hot rows.
    const Tick extra_warm = ticksFromMs(
        static_cast<double>(warehouses) * knobs.warmupPerWarehouseMs);
    sys.runFor(knobs.warmup + extra_warm);

    sys.beginMeasurement();
    workload.resetStats();
    database.resetStats();
    sys.runFor(knobs.measure);

    RunResult r;
    r.warehouses = warehouses;
    r.processors = preset.sys.numCpus;
    r.clients = clients;

    const Tick window = sys.measurementWindow();
    r.measureSeconds = secondsFromTicks(window);
    r.txnsCommitted = workload.committed();
    r.tps = workload.tps(window);

    r.counters = perfmon::SystemCounters::read(sys);
    r.counters.busUtilization =
        sys.memsys().bus().utilizationStat().mean();
    r.counters.ioqCycles = sys.memsys().bus().ioqStat().mean();

    r.cpuUtil = sys.avgCpuUtilization();
    const auto &c = r.counters;
    r.osCycleShare = c.cycles.total() > 0.0
                         ? c.cycles.os / c.cycles.total()
                         : 0.0;
    r.osInstrShare = c.instructions.total() > 0.0
                         ? c.instructions.os / c.instructions.total()
                         : 0.0;

    const double txns = static_cast<double>(r.txnsCommitted);
    if (txns > 0.0) {
        r.ipx = c.instructions.total() / txns;
        r.ipxUser = c.instructions.user / txns;
        r.ipxOs = c.instructions.os / txns;
    }
    r.cpi = c.cpi();
    r.cpiUser = c.cpiUser();
    r.cpiOs = c.cpiOs();
    r.mpi = c.mpi();
    r.mpiUser = c.mpiUser();
    r.mpiOs = c.mpiOs();

    r.ironLawTps = analysis::ironLawTpsAtUtilization(
        preset.sys.numCpus, preset.sys.core.freqHz, r.ipx, r.cpi,
        r.cpuUtil);

    const auto &disks = sys.disks();
    if (txns > 0.0) {
        r.diskReadKbPerTxn =
            static_cast<double>(disks.dataBytesRead()) / 1024.0 / txns;
        r.diskWriteKbPerTxn =
            static_cast<double>(disks.dataBytesWritten()) / 1024.0 / txns;
        r.logKbPerTxn =
            static_cast<double>(disks.logBytesWritten()) / 1024.0 / txns;
        r.diskReadsPerTxn =
            static_cast<double>(disks.dataReads()) / txns;
        r.ctxPerTxn =
            static_cast<double>(sys.sched().contextSwitches()) / txns;
    }
    {
        // Mix-wide response time (weighted by per-type counts).
        double sum = 0.0;
        for (unsigned i = 0; i < db::numTxnTypes; ++i) {
            const auto &lat =
                workload.latencyMs(static_cast<db::TxnType>(i));
            sum += lat.mean() * static_cast<double>(lat.count());
        }
        if (txns > 0.0)
            r.avgLatencyMs = sum / txns;
        r.p95LatencyMs = workload.latencyHistogramMs().quantile(0.95);
    }
    r.bufferHitRatio = database.bufferCache().hitRatio();
    r.avgDiskUtil = disks.avgDataUtilization(window);
    r.diskReadLatencyMs = disks.avgReadLatencyMs();

    r.busUtil = r.counters.busUtilization;
    r.ioqCycles = r.counters.ioqCycles;
    r.remoteMissShare = sys.memsys().remoteMissShare();
    r.linkUtil = sys.memsys().linkUtilizationMean();
    r.coherenceShareOfL3 =
        c.l3Misses.total() > 0.0
            ? c.coherenceMisses.total() / c.l3Misses.total()
            : 0.0;

    r.breakdown =
        analysis::computeCpiBreakdown(r.counters, knobs.ioq1pCycles);

    // Fault-injection outcomes: all zero on the default plan (and
    // kept out of the golden CSVs either way).
    {
        const sim::FaultStats &fs = sys.faults().stats();
        r.txnAborts = fs.txnAborts;
        r.txnRetries = fs.txnRetries;
        r.lockTimeouts = fs.lockTimeouts;
        r.diskTransientErrors = fs.diskTransientErrors;
        r.driveFailures = fs.driveFailures;
        r.redoReplayedBytes = fs.redoReplayedBytes;
        if (fs.crashes > 0 && fs.recoveryEndTick > fs.crashTick) {
            r.mttrMs = secondsFromTicks(fs.recoveryEndTick -
                                        fs.crashTick) * 1e3;
            const Tick span = ticksFromMs(500.0);
            const Tick pre_lo = fs.crashTick > span
                                    ? fs.crashTick - span
                                    : 0;
            r.tpsPreCrash =
                static_cast<double>(workload.commitsBetween(
                    pre_lo, fs.crashTick)) /
                secondsFromTicks(fs.crashTick - pre_lo);
            // Settled post-recovery rate: the first 150 ms after
            // instance-up are the revival burst and client ramp, not
            // steady state.
            const Tick post_lo =
                fs.recoveryEndTick + ticksFromMs(150.0);
            r.tpsPostRecovery =
                static_cast<double>(workload.commitsBetween(
                    post_lo, post_lo + span)) /
                secondsFromTicks(span);
        }
    }

    // Host-side profiling: what this point cost to produce. Filled
    // last so the wall time covers construction, warm-up, measurement
    // and metric extraction alike.
    r.eventsFired = sys.eq().eventsFired();
    r.wallSeconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      wall_start)
            .count();
    return r;
}

} // namespace odbsim::core
