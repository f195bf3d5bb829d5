/**
 * @file
 * Deployment sweep on a multi-socket topology: shared-everything vs
 * hardware islands vs shared-nothing at fixed W and P, as the remote-
 * access penalty scales (docs/TOPOLOGY.md; the deployment axis of
 * *OLTP on Hardware Islands* replayed on the paper's workload).
 *
 * The machine is the study's Quad Xeon MP split into 4 sockets of one
 * CPU each. Every grid point runs the same W=96, P=4 workload; only
 * the placement policy and the interconnect cost change:
 *
 *  - shared-everything  — one instance, processes float everywhere;
 *  - island(2)          — two 2-socket instances, partitioned draws;
 *  - shared-nothing     — four 1-socket instances (island(1)).
 *
 * Writes `odbsim_islands_xeon-quad-mp.csv` (plus a `_profile.csv`
 * sidecar under --profile) into the --csv-dir/ODBSIM_CSV_DIR directory
 * like the study benches, honours --jobs/-j/ODBSIM_JOBS, and
 * self-checks the sweep's headline physics: shared-nothing wins under
 * an expensive interconnect, shared-everything wins when remote access
 * is free (exit code 3 if the crossover is absent).
 */

#include "support/bench_common.hh"

#include <cinttypes>
#include <cstdio>
#include <string>
#include <vector>

#include "core/experiment.hh"
#include "sim/parallel_for.hh"

namespace
{

using namespace odbsim;

/** Fixed workload scale: well past the cache knee, I/O-affected. */
constexpr unsigned kWarehouses = 96;
/** Total processors, split one per socket. */
constexpr unsigned kProcessors = 4;
constexpr unsigned kSockets = 4;

/** One deployment column of the sweep. */
struct Deployment
{
    const char *name;
    os::PlacementConfig placement;
};

std::vector<Deployment>
deployments()
{
    std::vector<Deployment> d;
    {
        Deployment se;
        se.name = "shared-everything";
        se.placement.policy = os::PlacementPolicy::Spread;
        d.push_back(se);
    }
    {
        Deployment is2;
        is2.name = "island-2";
        is2.placement.policy = os::PlacementPolicy::Island;
        is2.placement.islandSockets = 2;
        d.push_back(is2);
    }
    {
        Deployment sn;
        sn.name = "shared-nothing";
        sn.placement.policy = os::PlacementPolicy::Island;
        sn.placement.islandSockets = 1;
        d.push_back(sn);
    }
    return d;
}

/**
 * Remote-penalty scale factors applied to the default interconnect
 * (hop latency and link occupancies together). 0 models an ideal
 * machine where remote memory costs the same as local; the top end
 * models a loaded multi-hop fabric.
 */
const double kPenaltyScales[] = {0.0, 0.5, 1.0, 2.5};

mem::TopologyConfig
topologyFor(double scale)
{
    const mem::TopologyConfig base; // default knob values
    mem::TopologyConfig t;
    t.sockets = kSockets;
    t.hopLatencyCycles = base.hopLatencyCycles * scale;
    t.linkOccupancyCycles = base.linkOccupancyCycles * scale;
    t.linkDmaOccupancyCyclesPerKb =
        base.linkDmaOccupancyCyclesPerKb * scale;
    return t;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace odbsim;
    bench::parseArgs(argc, argv);
    bench::banner("Deployment sweep",
                  "Hardware islands: shared-everything vs island vs "
                  "shared-nothing");

    const std::vector<Deployment> deps = deployments();
    const std::size_t nscale =
        sizeof(kPenaltyScales) / sizeof(kPenaltyScales[0]);
    const std::size_t total = nscale * deps.size();

    // Results land in their grid slot, never in completion order, so
    // the CSV is bit-identical for any job count (same contract as
    // ScalingStudy::run).
    std::vector<core::RunResult> grid(total);
    const auto runPoint = [&](std::size_t k) {
        const std::size_t si = k / deps.size();
        const std::size_t di = k % deps.size();
        core::OltpConfiguration cfg;
        cfg.warehouses = kWarehouses;
        cfg.processors = kProcessors;
        cfg.machine = core::MachineKind::XeonQuadMp;
        cfg.topology = topologyFor(kPenaltyScales[si]);
        cfg.placement = deps[di].placement;
        grid[k] = core::ExperimentRunner::run(cfg);
        std::fprintf(stderr,
                     "[bench]   scale=%.2f %-17s done (tps %.0f, "
                     "remote %.0f%%)\n",
                     kPenaltyScales[si], deps[di].name, grid[k].tps,
                     grid[k].remoteMissShare * 100.0);
    };

    std::fprintf(stderr,
                 "[bench] measuring %zu deployment points (jobs=%u)...\n",
                 total, bench::studyJobs());
    parallelFor(bench::studyJobs(), total, runPoint);

    // --- CSV (deterministic; diffed serial-vs-parallel by the smoke
    // script) ---
    const std::string path =
        bench::csvDir() + "/odbsim_islands_xeon-quad-mp.csv";
    if (FILE *f = std::fopen(path.c_str(), "w")) {
        std::fprintf(f, "penalty_scale,deployment,sockets,warehouses,"
                        "processors,clients,tps,cpi,mpi,"
                        "remote_miss_share,link_util,bus_util,"
                        "avg_latency_ms\n");
        for (std::size_t k = 0; k < total; ++k) {
            const core::RunResult &r = grid[k];
            std::fprintf(f,
                         "%.17g,%s,%u,%u,%u,%u,%.17g,%.17g,%.17g,"
                         "%.17g,%.17g,%.17g,%.17g\n",
                         kPenaltyScales[k / deps.size()],
                         deps[k % deps.size()].name, kSockets,
                         r.warehouses, r.processors, r.clients, r.tps,
                         r.cpi, r.mpi, r.remoteMissShare, r.linkUtil,
                         r.busUtil, r.avgLatencyMs);
        }
        std::fclose(f);
        std::fprintf(stderr, "[bench] wrote %s\n", path.c_str());
    } else {
        std::fprintf(stderr, "[bench] cannot write %s\n", path.c_str());
        return 1;
    }
    if (bench::profileEnabled()) {
        const std::string ppath =
            path.substr(0, path.size() - 4) + "_profile.csv";
        if (FILE *f = std::fopen(ppath.c_str(), "w")) {
            std::fprintf(f, "penalty_scale,deployment,wall_seconds,"
                            "events_fired\n");
            for (std::size_t k = 0; k < total; ++k)
                std::fprintf(f, "%.17g,%s,%.6f,%" PRIu64 "\n",
                             kPenaltyScales[k / deps.size()],
                             deps[k % deps.size()].name,
                             grid[k].wallSeconds, grid[k].eventsFired);
            std::fclose(f);
            std::fprintf(stderr, "[bench] wrote per-point profile to "
                                 "%s\n",
                         ppath.c_str());
        }
    }

    // --- report ---
    std::printf("%-14s", "penalty");
    for (const auto &d : deps)
        std::printf("  %18s", d.name);
    std::printf("\n");
    for (std::size_t si = 0; si < nscale; ++si) {
        std::printf("%-14.2f", kPenaltyScales[si]);
        for (std::size_t di = 0; di < deps.size(); ++di) {
            const core::RunResult &r = grid[si * deps.size() + di];
            char cell[64];
            std::snprintf(cell, sizeof(cell), "%.0f tps (%2.0f%% rem)",
                          r.tps, r.remoteMissShare * 100.0);
            std::printf("  %18s", cell);
        }
        std::printf("\n");
    }
    bench::paperNote(
        "with an expensive interconnect, shared-nothing's locality wins; "
        "as the remote penalty vanishes, the distributed-coordination "
        "tax dominates and shared-everything takes the lead (OLTP on "
        "Hardware Islands).");

    // --- crossover self-check ---
    const auto tpsAt = [&](std::size_t si, std::size_t di) {
        return grid[si * deps.size() + di].tps;
    };
    const std::size_t se = 0, sn = deps.size() - 1;
    int rc = 0;
    if (!(tpsAt(nscale - 1, sn) > tpsAt(nscale - 1, se))) {
        std::fprintf(stderr,
                     "FAIL shared-nothing (%.0f tps) should beat "
                     "shared-everything (%.0f tps) at the highest "
                     "remote penalty\n",
                     tpsAt(nscale - 1, sn), tpsAt(nscale - 1, se));
        rc = 3;
    }
    if (!(tpsAt(0, se) > tpsAt(0, sn))) {
        std::fprintf(stderr,
                     "FAIL shared-everything (%.0f tps) should beat "
                     "shared-nothing (%.0f tps) with a free "
                     "interconnect\n",
                     tpsAt(0, se), tpsAt(0, sn));
        rc = 3;
    }
    if (rc == 0)
        std::printf("\ncrossover check: PASS (shared-nothing wins at "
                    "scale %.1f, shared-everything at 0)\n",
                    kPenaltyScales[nscale - 1]);
    return rc;
}
