/**
 * @file
 * Artifacts beyond the paper's own: five ablations of its Section 6.3
 * conjectures and of the simulator's methodology, a hardware-islands
 * deployment sweep (docs/TOPOLOGY.md) and a fault-injection
 * degradation study (docs/FAULTS.md). The two sweeps write CSVs and
 * self-check their headline physics.
 */

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <iterator>
#include <string>
#include <vector>

#include "analysis/piecewise.hh"
#include "core/client_table.hh"
#include "paper.hh"
#include "sim/stats.hh"

namespace odbsim::paper
{

namespace
{

using core::MachineKind;
using core::RunResult;

/** "<artifact> <detail>": the key of one of an ablation's runs. */
std::string
key(const char *artifact, const std::string &detail)
{
    return std::string(artifact) + " " + detail;
}

/**
 * Ablation (Section 6.3 conjecture): the cached-region slope is set by
 * the L3 capacity — growing the L3 should lower CPI at small W,
 * flatten the cached region, and push the pivot right.
 */
Printer
ablationL3Size(Plan &plan)
{
    static const std::uint64_t l3Kb[] = {512, 1024, 2048, 4096};
    static const unsigned warehouses[] = {10, 25, 50, 100, 200, 400};
    std::vector<std::size_t> sims;
    for (const std::uint64_t kb : l3Kb) {
        for (const unsigned w : warehouses) {
            sims.push_back(plan.add(
                {key("ablation_l3_size", "L3=" + std::to_string(kb) +
                                             "KB W=" + std::to_string(w)),
                 w, 4, [kb, w]() {
                     core::RunKnobs knobs;
                     knobs.measure = ticksFromSeconds(1.0);
                     core::MachinePreset preset = core::makeMachine(
                         MachineKind::XeonQuadMp, 4, knobs.samplePeriod,
                         knobs.seed);
                     preset.sys.hierarchy.l3 = {kb * KiB, 8, 64};
                     return core::ExperimentRunner::runWithPreset(
                         preset, w, 0, knobs);
                 }}));
        }
    }
    return [sims](Report &rep) {
        banner("Ablation: L3 capacity",
               "Pivot sensitivity to L3 size (Section 6.3)");
        std::printf("%-10s %14s %14s %12s %10s %10s\n", "L3",
                    "cached slope", "scaled slope", "pivot (W)",
                    "CPI@10W", "CPI@400W");
        std::size_t sim = 0;
        for (const std::uint64_t kb : l3Kb) {
            std::vector<double> xs, ys;
            for (const unsigned w : warehouses) {
                xs.push_back(w);
                ys.push_back(rep.run(sims[sim++]).cpi);
            }
            const analysis::PiecewiseFit fit =
                analysis::fitTwoSegment(xs, ys);
            std::printf("%6" PRIu64
                        " KB %14.6f %14.6f %12.0f %10.3f %10.3f\n",
                        kb, fit.cached.slope, fit.scaled.slope,
                        fit.pivotX, ys.front(), ys.back());
        }
        paperNote(
            "larger L3 caches lower the cached-region CPI and move the "
            "pivot right — the mechanism behind the paper's Itanium2 "
            "prediction.");
    };
}

/**
 * Ablation (Section 6.3 conjecture): disk bandwidth sets the
 * scaled-region behaviour — more spindles shorten I/O waits, reduce
 * the concurrency (and context switching) needed to mask them, and
 * soften the scaled region.
 */
Printer
ablationDisks(Plan &plan)
{
    static const unsigned diskCounts[] = {8, 16, 24, 48};
    std::vector<std::size_t> sims;
    for (const unsigned disks : diskCounts) {
        sims.push_back(plan.add(
            {key("ablation_disks", "disks=" + std::to_string(disks) +
                                       " W=400"),
             400, 4, [disks]() {
                 core::RunKnobs knobs;
                 knobs.measure = ticksFromSeconds(1.0);
                 core::MachinePreset preset =
                     core::makeMachine(MachineKind::XeonQuadMp, 4,
                                       knobs.samplePeriod, knobs.seed);
                 preset.sys.disks.dataDisks = disks;
                 return core::ExperimentRunner::runWithPreset(preset, 400,
                                                              0, knobs);
             }}));
    }
    return [sims](Report &rep) {
        banner("Ablation: disk bandwidth",
               "Scaled-region sensitivity to spindle count "
               "(Section 6.3)");
        std::printf("%-8s %8s %8s %8s %10s %8s %8s\n", "disks", "tps",
                    "util", "cpi", "ctx/txn", "ioLatMs", "diskUtil");
        for (std::size_t i = 0; i < sims.size(); ++i) {
            const RunResult &r = rep.run(sims[i]);
            std::printf("%-8u %8.0f %8.2f %8.3f %10.2f %8.2f %8.2f\n",
                        diskCounts[i], r.tps, r.cpuUtil, r.cpi,
                        r.ctxPerTxn, r.diskReadLatencyMs, r.avgDiskUtil);
        }
        paperNote(
            "adding drives reduces per-read latency and raises "
            "achievable utilization/TPS in the scaled region; with "
            "fewer drives the system slides toward I/O bound (low CPU "
            "utilization) at the same W.");
    };
}

/**
 * CMP exploration: the paper's forward-looking question — "our
 * interest in CMP designs" (Section 3.2.2) and the conclusion that
 * coherence is not a bottleneck, so OLTP "would scale well on future
 * CMP designs". Compares the measured 4-way SMP against a 4-core CMP
 * with the same aggregate L3 shared on die, at the representative
 * configuration, over three seeds each.
 */
Printer
ablationCmp(Plan &plan)
{
    static const MachineKind kinds[] = {MachineKind::XeonQuadMp,
                                        MachineKind::CmpQuad};
    constexpr unsigned kSeeds = 3;
    std::vector<std::size_t> sims; // kSeeds per machine, machine-major
    for (const MachineKind kind : kinds) {
        core::OltpConfiguration cfg;
        cfg.warehouses = 200;
        cfg.processors = 4;
        cfg.machine = kind;
        for (unsigned i = 0; i < kSeeds; ++i) {
            core::RunKnobs knobs;
            knobs.measure = ticksFromSeconds(1.2);
            knobs.seed += 0x9e3779b9ULL * (i + 1);
            sims.push_back(plan.add(
                {key("ablation_cmp", std::string(core::toString(kind)) +
                                         " W=200 seed=" +
                                         std::to_string(knobs.seed)),
                 cfg.warehouses, cfg.processors, [cfg, knobs] {
                     return core::ExperimentRunner::run(cfg, knobs);
                 }}));
        }
    }
    return [sims](Report &rep) {
        banner("Ablation: SMP vs CMP",
               "Shared on-die L3 versus private L3s (Sections "
               "3.2.2, 5.2, 7)");
        std::printf("%-14s %8s %8s %8s %8s %8s %10s\n", "machine", "tps",
                    "cpi", "mpiK", "bus%", "coh/L3", "tps 95%CI");
        for (std::size_t k = 0; k < std::size(kinds); ++k) {
            RunningStat tps, cpi, mpi, bus, coh;
            for (unsigned i = 0; i < kSeeds; ++i) {
                const RunResult &r = rep.run(sims[k * kSeeds + i]);
                tps.add(r.tps);
                cpi.add(r.cpi);
                mpi.add(r.mpi);
                bus.add(r.busUtil);
                coh.add(r.coherenceShareOfL3);
            }
            std::printf("%-14s %8.0f %8.3f %8.3f %8.1f %8.3f %9.0f\n",
                        core::toString(kinds[k]), tps.mean(), cpi.mean(),
                        mpi.mean() * 1e3, bus.mean() * 100.0, coh.mean(),
                        1.96 * tps.stddev() /
                            std::sqrt(static_cast<double>(tps.count())));
        }
        paperNote(
            "not a paper artifact (forward-looking): the shared 2 MB L3 "
            "keeps cross-core sharing on die, removing front-side-bus "
            "transactions for lines another core owns; coherence stays "
            "a small share of misses either way, supporting the "
            "paper's conclusion that OLTP suits CMPs.");
    };
}

/**
 * Hyper-Threading ablation: the paper's machine supported HT but the
 * study ran with it disabled (Section 3.3). What would the
 * characterization have looked like with HT on? Two hardware threads
 * per core share the caches and issue bandwidth; more in-flight
 * transactions mask I/O but pollute the shared hierarchy.
 */
Printer
ablationSmt(Plan &plan)
{
    static const unsigned warehouses[] = {25, 100, 400};
    static const MachineKind kinds[] = {MachineKind::XeonQuadMp,
                                        MachineKind::XeonQuadMpHt};
    std::vector<std::size_t> sims;
    for (const unsigned w : warehouses) {
        for (const MachineKind kind : kinds) {
            core::OltpConfiguration cfg;
            cfg.warehouses = w;
            cfg.processors = 4; // Physical CPUs.
            cfg.machine = kind;
            // HT doubles the runnable contexts worth feeding.
            if (kind == MachineKind::XeonQuadMpHt)
                cfg.clients = 2 * core::paperClients(w, 4);
            sims.push_back(plan.add(
                {key("ablation_smt", std::string(core::toString(kind)) +
                                         " W=" + std::to_string(w)),
                 w, 4, [cfg]() {
                     core::RunKnobs knobs;
                     knobs.measure = ticksFromSeconds(1.2);
                     return core::ExperimentRunner::run(cfg, knobs);
                 }}));
        }
    }
    return [sims](Report &rep) {
        banner("Ablation: Hyper-Threading",
               "The study's machine with HT enabled (Section 3.3)");
        std::printf("%-6s %-16s %8s %8s %8s %8s %8s %8s\n", "W",
                    "machine", "tps", "util", "cpi", "mpiK", "ctx/txn",
                    "clients");
        std::size_t sim = 0;
        for (const unsigned w : warehouses) {
            for (const MachineKind kind : kinds) {
                const RunResult &r = rep.run(sims[sim++]);
                std::printf(
                    "%-6u %-16s %8.0f %8.2f %8.3f %8.3f %8.2f %8u\n", w,
                    core::toString(kind), r.tps, r.cpuUtil, r.cpi,
                    r.mpi * 1e3, r.ctxPerTxn, r.clients);
            }
        }
        paperNote(
            "not a paper artifact (the study disabled HT): per-thread "
            "CPI rises (shared pipeline and caches) while aggregate TPS "
            "gains what the extra thread-level parallelism can cover — "
            "largest where I/O waits dominate, smallest in the "
            "CPU-bound cached region.");
    };
}

/**
 * Methodology ablation: headline metrics versus the set-sampling
 * factor S of the cache model. The factor trades simulation speed for
 * variance; the characterization must be stable across it.
 */
Printer
ablationSampling(Plan &plan)
{
    static const std::uint32_t periods[] = {4, 8, 16, 32};
    std::vector<std::size_t> sims;
    for (const std::uint32_t s : periods) {
        sims.push_back(plan.add(
            {key("ablation_sampling", "S=" + std::to_string(s) + " W=100"),
             100, 4, [s]() {
                 core::OltpConfiguration cfg;
                 cfg.warehouses = 100;
                 cfg.processors = 4;
                 core::RunKnobs knobs;
                 knobs.samplePeriod = s;
                 knobs.measure = ticksFromSeconds(1.0);
                 return core::ExperimentRunner::run(cfg, knobs);
             }}));
    }
    return [sims](Report &rep) {
        banner("Ablation: set-sampling factor",
               "Metric stability vs the cache-model sampling factor");
        std::printf("%-6s %8s %8s %8s %10s %8s\n", "S", "tps", "cpi",
                    "mpiK", "busUtil%", "util");
        for (std::size_t i = 0; i < sims.size(); ++i) {
            const RunResult &r = rep.run(sims[i]);
            std::printf("%-6u %8.0f %8.3f %8.3f %10.1f %8.2f\n",
                        periods[i], r.tps, r.cpi, r.mpi * 1e3,
                        r.busUtil * 100.0, r.cpuUtil);
        }
        paperNote(
            "not a paper artifact: validates that the scaled-tag-store "
            "sampling technique (DESIGN.md) does not drive the headline "
            "metrics — CPI/MPI should vary by well under the cached-vs-"
            "scaled signal across S.");
    };
}

/** W and P of the islands and faults sweeps: well past the cache
 *  knee, I/O-affected. */
constexpr unsigned kSweepWarehouses = 96;
constexpr unsigned kSweepProcessors = 4;

/** One deployment column of the islands sweep. */
struct Deployment
{
    const char *name;
    os::PlacementConfig placement;
};

std::vector<Deployment>
deployments()
{
    std::vector<Deployment> d(3);
    d[0].name = "shared-everything"; // the default placement
    d[1].name = "island-2";
    d[1].placement.policy = os::PlacementPolicy::Island;
    d[1].placement.islandSockets = 2;
    d[2].name = "shared-nothing";
    d[2].placement.policy = os::PlacementPolicy::Island;
    d[2].placement.islandSockets = 1;
    return d;
}

/**
 * Deployment sweep on a multi-socket topology: shared-everything vs
 * hardware islands vs shared-nothing at fixed W and P, as the remote-
 * access penalty scales (the deployment axis of *OLTP on Hardware
 * Islands* replayed on the paper's workload). The machine is the
 * study's Quad Xeon MP split into 4 sockets of one CPU each:
 *
 *  - shared-everything  — one instance, processes float everywhere;
 *  - island-2           — two 2-socket instances, partitioned draws;
 *  - shared-nothing     — four 1-socket instances (island(1)).
 *
 * Writes `odbsim_islands_xeon-quad-mp.csv` and self-checks the
 * crossover: shared-nothing wins under an expensive interconnect,
 * shared-everything wins when remote access is free.
 */
Printer
islands(Plan &plan)
{
    // Remote-penalty scale factors applied to the default interconnect
    // (hop latency and link occupancies together). 0 models an ideal
    // machine where remote memory costs the same as local; the top end
    // models a loaded multi-hop fabric.
    static const double scales[] = {0.0, 0.5, 1.0, 2.5};
    constexpr unsigned kSockets = 4;
    const std::vector<Deployment> deps = deployments();
    std::vector<std::size_t> sims;
    for (const double scale : scales) {
        for (const Deployment &d : deps) {
            const mem::TopologyConfig base; // default knob values
            core::OltpConfiguration cfg;
            cfg.warehouses = kSweepWarehouses;
            cfg.processors = kSweepProcessors;
            cfg.topology.sockets = kSockets;
            cfg.topology.hopLatencyCycles = base.hopLatencyCycles * scale;
            cfg.topology.linkOccupancyCycles =
                base.linkOccupancyCycles * scale;
            cfg.topology.linkDmaOccupancyCyclesPerKb =
                base.linkDmaOccupancyCyclesPerKb * scale;
            cfg.placement = d.placement;
            char label[64];
            std::snprintf(label, sizeof(label), "islands scale=%.2f %s",
                          scale, d.name);
            sims.push_back(plan.add(
                {label, cfg.warehouses, cfg.processors, [cfg]() {
                     return core::ExperimentRunner::run(cfg);
                 }}));
        }
    }
    return [sims, deps](Report &rep) {
        banner("Deployment sweep",
               "Hardware islands: shared-everything vs island vs "
               "shared-nothing");
        const std::size_t nscale = std::size(scales);
        const auto at = [&](std::size_t si, std::size_t di)
            -> const RunResult & {
            return rep.run(sims[si * deps.size() + di]);
        };
        rep.writeCsv("odbsim_islands_xeon-quad-mp.csv", [&](std::FILE *f) {
            std::fprintf(f, "penalty_scale,deployment,sockets,warehouses,"
                            "processors,clients,tps,cpi,mpi,"
                            "remote_miss_share,link_util,bus_util,"
                            "avg_latency_ms\n");
            for (std::size_t si = 0; si < nscale; ++si) {
                for (std::size_t di = 0; di < deps.size(); ++di) {
                    const RunResult &r = at(si, di);
                    std::fprintf(f,
                                 "%.17g,%s,%u,%u,%u,%u,%.17g,%.17g,%.17g,"
                                 "%.17g,%.17g,%.17g,%.17g\n",
                                 scales[si], deps[di].name, kSockets,
                                 r.warehouses, r.processors, r.clients,
                                 r.tps, r.cpi, r.mpi, r.remoteMissShare,
                                 r.linkUtil, r.busUtil, r.avgLatencyMs);
                }
            }
        });

        std::printf("%-14s", "penalty");
        for (const auto &d : deps)
            std::printf("  %18s", d.name);
        std::printf("\n");
        for (std::size_t si = 0; si < nscale; ++si) {
            std::printf("%-14.2f", scales[si]);
            for (std::size_t di = 0; di < deps.size(); ++di) {
                const RunResult &r = at(si, di);
                char cell[64];
                std::snprintf(cell, sizeof(cell), "%.0f tps (%2.0f%% rem)",
                              r.tps, r.remoteMissShare * 100.0);
                std::printf("  %18s", cell);
            }
            std::printf("\n");
        }
        paperNote(
            "with an expensive interconnect, shared-nothing's locality "
            "wins; as the remote penalty vanishes, the "
            "distributed-coordination tax dominates and "
            "shared-everything takes the lead (OLTP on Hardware "
            "Islands).");

        const std::size_t se = 0, sn = deps.size() - 1;
        const std::size_t failed = rep.failures().size();
        char what[200];
        if (!(at(nscale - 1, sn).tps > at(nscale - 1, se).tps)) {
            std::snprintf(what, sizeof(what),
                          "islands: shared-nothing (%.0f tps) should beat "
                          "shared-everything (%.0f tps) at the highest "
                          "remote penalty",
                          at(nscale - 1, sn).tps, at(nscale - 1, se).tps);
            rep.fail(what);
        }
        if (!(at(0, se).tps > at(0, sn).tps)) {
            std::snprintf(what, sizeof(what),
                          "islands: shared-everything (%.0f tps) should "
                          "beat shared-nothing (%.0f tps) with a free "
                          "interconnect",
                          at(0, se).tps, at(0, sn).tps);
            rep.fail(what);
        }
        if (rep.failures().size() == failed)
            std::printf("\ncrossover check: PASS (shared-nothing wins at "
                        "scale %.1f, shared-everything at 0)\n",
                        scales[nscale - 1]);
    };
}

/** One retry-discipline column of the faults study. */
struct Profile
{
    const char *name;
    double lockWaitTimeoutMs;
    double clientRetryBackoffMs;
};

const Profile kProfiles[] = {
    {"fast", 30.0, 0.5},
    {"patient", 120.0, 4.0},
};

/** Fault intensities; 0 is the inert baseline. */
const double kFaultScales[] = {0.0, 0.4, 1.0, 2.5};

/** Data drives on the Quad Xeon MP preset. */
constexpr unsigned kDataDisks = 24;

sim::FaultConfig
faultsFor(double s, const Profile &p)
{
    sim::FaultConfig fc;
    if (s <= 0.0)
        return fc; // Structurally inert baseline.
    fc.diskTransientProb = 0.08 * s;
    fc.txnAbortProb = 0.03 * s;
    fc.lockWaitTimeoutMs = p.lockWaitTimeoutMs;
    fc.clientRetryBackoffMs = p.clientRetryBackoffMs;
    // Aging drives: a scale-sized subset of the array serves slower
    // from t=0. Both the subset and the multiplier grow with s, so
    // the mean service time rises monotonically with the scale.
    const unsigned degraded = std::min(
        kDataDisks, static_cast<unsigned>(kDataDisks * 0.3 * s + 0.5));
    for (unsigned i = 0; i < degraded; ++i) {
        sim::DriveFaultEvent ev;
        ev.atMs = 1.0;
        ev.drive = i;
        ev.degradeFactor = 1.0 + 0.6 * s;
        fc.driveEvents.push_back(ev);
    }
    return fc;
}

sim::FaultConfig
crashFaults()
{
    sim::FaultConfig fc;
    // Mid-measurement kill: warm-up ends at ~784 ms (0.4 s base +
    // 96 * 4 ms dynamic), measurement runs 1.5 s more, so a 1200 ms
    // crash leaves a settled pre-crash window and room for recovery
    // plus the 500 ms post-recovery window before the run ends.
    fc.crashAtMs = 1200.0;
    fc.recoveryRedoCapMb = 8.0;
    return fc;
}

/**
 * Degradation study under deterministic fault injection: transaction
 * throughput, abort rate and response time as the fault intensity
 * scales, plus one mid-run instance crash measuring MTTR and the
 * recovery ramp. The grid is fault-scale x retry-profile:
 *
 *  - scale s multiplies the transient-disk-error and
 *    spontaneous-abort probabilities (s=0 is the fault-free baseline
 *    and must match a run without the subsystem);
 *  - profile "fast" times out lock waits quickly and retries almost
 *    immediately; "patient" waits longer on both knobs;
 *
 * plus one crash point: the instance is killed mid-measurement, redo
 * is replayed off the log drives, and the CSV records MTTR and the
 * throughput on both sides of the outage.
 *
 * Writes `odbsim_faults_xeon-quad-mp.csv` and self-checks the
 * degradation physics: throughput falls monotonically with the fault
 * scale in each profile, the top scale aborts and retries, and
 * post-recovery throughput returns to >= 95% of the pre-crash rate.
 */
Printer
faults(Plan &plan)
{
    const auto faultRun = [&](const std::string &label,
                              const sim::FaultConfig &fc) {
        core::OltpConfiguration cfg;
        cfg.warehouses = kSweepWarehouses;
        cfg.processors = kSweepProcessors;
        return plan.add({"faults " + label, cfg.warehouses,
                         cfg.processors, [cfg, fc]() {
                             core::RunKnobs knobs;
                             knobs.faults = fc;
                             return core::ExperimentRunner::run(cfg,
                                                                knobs);
                         }});
    };
    std::vector<std::size_t> grid;
    for (const double scale : kFaultScales) {
        for (const Profile &p : kProfiles) {
            char label[48];
            std::snprintf(label, sizeof(label), "scale=%.2f %s", scale,
                          p.name);
            grid.push_back(faultRun(label, faultsFor(scale, p)));
        }
    }
    const std::size_t crash = faultRun("crash", crashFaults());

    return [grid, crash](Report &rep) {
        banner("Degradation study",
               "Fault injection: disk faults, aborts/retries, and "
               "crash recovery");
        constexpr std::size_t nscale = std::size(kFaultScales);
        constexpr std::size_t nprof = std::size(kProfiles);
        const auto at = [&](std::size_t si, std::size_t pi)
            -> const RunResult & { return rep.run(grid[si * nprof + pi]); };
        const RunResult &c = rep.run(crash);

        rep.writeCsv("odbsim_faults_xeon-quad-mp.csv", [&](std::FILE *f) {
            std::fprintf(f,
                         "fault_scale,profile,warehouses,processors,"
                         "clients,tps,abort_rate,txn_aborts,txn_retries,"
                         "lock_timeouts,disk_transient_errors,"
                         "avg_latency_ms,p95_latency_ms,mttr_ms,"
                         "tps_pre_crash,tps_post_recovery,"
                         "redo_replayed_bytes\n");
            const auto row = [&](double scale, const char *profile,
                                 const RunResult &r) {
                const double abort_rate =
                    r.txnsCommitted > 0
                        ? static_cast<double>(r.txnAborts) /
                              static_cast<double>(r.txnsCommitted)
                        : 0.0;
                std::fprintf(f,
                             "%.17g,%s,%u,%u,%u,%.17g,%.17g,%" PRIu64
                             ",%" PRIu64 ",%" PRIu64 ",%" PRIu64
                             ",%.17g,%.17g,%.17g,%.17g,%.17g,%" PRIu64
                             "\n",
                             scale, profile, r.warehouses, r.processors,
                             r.clients, r.tps, abort_rate, r.txnAborts,
                             r.txnRetries, r.lockTimeouts,
                             r.diskTransientErrors, r.avgLatencyMs,
                             r.p95LatencyMs, r.mttrMs, r.tpsPreCrash,
                             r.tpsPostRecovery, r.redoReplayedBytes);
            };
            for (std::size_t si = 0; si < nscale; ++si) {
                for (std::size_t pi = 0; pi < nprof; ++pi)
                    row(kFaultScales[si], kProfiles[pi].name, at(si, pi));
            }
            row(0.0, "crash", c);
        });

        std::printf("%-8s", "scale");
        for (const auto &p : kProfiles)
            std::printf("  %24s", p.name);
        std::printf("\n");
        for (std::size_t si = 0; si < nscale; ++si) {
            std::printf("%-8.2f", kFaultScales[si]);
            for (std::size_t pi = 0; pi < nprof; ++pi) {
                const RunResult &r = at(si, pi);
                char cell[64];
                std::snprintf(cell, sizeof(cell),
                              "%.0f tps (%" PRIu64 " aborts)", r.tps,
                              r.txnAborts);
                std::printf("  %24s", cell);
            }
            std::printf("\n");
        }
        std::printf("\ncrash point: mttr %.1f ms, tps %.0f -> %.0f "
                    "across the outage (%.1f MB redo)\n",
                    c.mttrMs, c.tpsPreCrash, c.tpsPostRecovery,
                    static_cast<double>(c.redoReplayedBytes) / 1024.0 /
                        1024.0);
        paperNote(
            "throughput degrades smoothly as fault intensity rises "
            "(wasted replay work, retry backoff, disk retries), and an "
            "instance crash costs one redo-window of downtime before "
            "throughput ramps back to steady state.");

        const std::size_t failed = rep.failures().size();
        char what[200];
        for (std::size_t pi = 0; pi < nprof; ++pi) {
            for (std::size_t si = 1; si < nscale; ++si) {
                const double prev = at(si - 1, pi).tps;
                const double cur = at(si, pi).tps;
                if (!(cur < prev)) {
                    std::snprintf(what, sizeof(what),
                                  "faults %s: tps should fall with the "
                                  "fault scale (%.0f at %.1f vs %.0f at "
                                  "%.1f)",
                                  kProfiles[pi].name, cur,
                                  kFaultScales[si], prev,
                                  kFaultScales[si - 1]);
                    rep.fail(what);
                }
            }
            const RunResult &worst = at(nscale - 1, pi);
            if (worst.txnAborts == 0 || worst.txnRetries == 0)
                rep.fail(std::string("faults ") + kProfiles[pi].name +
                         ": the top fault scale should abort and retry "
                         "transactions");
        }
        if (!(c.mttrMs > 0.0))
            rep.fail("faults: the crash point measured no recovery time");
        if (!(c.tpsPostRecovery >= 0.95 * c.tpsPreCrash)) {
            std::snprintf(what, sizeof(what),
                          "faults: post-recovery tps %.0f below 95%% of "
                          "the pre-crash %.0f",
                          c.tpsPostRecovery, c.tpsPreCrash);
            rep.fail(what);
        }
        if (rep.failures().size() == failed)
            std::printf("\ndegradation check: PASS (monotonic tps decay, "
                        "recovery back to >= 95%% of steady state)\n");
    };
}

} // namespace

std::vector<Artifact>
extraArtifacts()
{
    return {
        {"ablation_l3_size", ablationL3Size},
        {"ablation_disks", ablationDisks},
        {"ablation_cmp", ablationCmp},
        {"ablation_smt", ablationSmt},
        {"ablation_sampling", ablationSampling},
        {"islands", islands},
        {"faults", faults},
    };
}

} // namespace odbsim::paper
