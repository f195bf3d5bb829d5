/**
 * @file
 * Degradation study under deterministic fault injection: transaction
 * throughput, abort rate and response time as the fault intensity
 * scales, plus one mid-run instance crash measuring MTTR and the
 * recovery ramp (docs/FAULTS.md).
 *
 * The machine is the study's Quad Xeon MP at W=96, P=4 — the same
 * I/O-affected operating point as the islands sweep. The grid is
 * fault-scale x retry-profile:
 *
 *  - scale s in {0, 0.4, 1, 2.5} multiplies the transient-disk-error
 *    and spontaneous-abort probabilities (s=0 is the fault-free
 *    baseline and must match a run without the subsystem);
 *  - profile "fast" times out lock waits quickly and retries almost
 *    immediately; "patient" waits longer on both knobs;
 *
 * plus one crash point: the instance is killed mid-measurement, redo
 * is replayed off the log drives, and the CSV records MTTR and the
 * throughput on both sides of the outage.
 *
 * Writes `odbsim_faults_xeon-quad-mp.csv` into the
 * --csv-dir/ODBSIM_CSV_DIR directory, honours --jobs/-j/ODBSIM_JOBS
 * with a bit-identical CSV for any job count, and self-checks the
 * degradation physics (exit code 3):
 * throughput must fall monotonically with the fault scale in each
 * profile, and post-recovery throughput must return to >= 95% of the
 * pre-crash rate.
 */

#include "support/bench_common.hh"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <string>
#include <vector>

#include "core/experiment.hh"
#include "sim/parallel_for.hh"

namespace
{

using namespace odbsim;

/** Same I/O-affected operating point as the islands sweep. */
constexpr unsigned kWarehouses = 96;
constexpr unsigned kProcessors = 4;

/** Fault intensities; 0 is the inert baseline. */
const double kFaultScales[] = {0.0, 0.4, 1.0, 2.5};

/** One retry-discipline column of the sweep. */
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

constexpr std::size_t kNumScales =
    sizeof(kFaultScales) / sizeof(kFaultScales[0]);
constexpr std::size_t kNumProfiles =
    sizeof(kProfiles) / sizeof(kProfiles[0]);
/** Scale x profile grid plus the crash point. */
constexpr std::size_t kTotal = kNumScales * kNumProfiles + 1;
constexpr std::size_t kCrashIndex = kTotal - 1;

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
        kDataDisks,
        static_cast<unsigned>(kDataDisks * 0.3 * s + 0.5));
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

} // namespace

int
main(int argc, char **argv)
{
    using namespace odbsim;
    bench::parseArgs(argc, argv);
    bench::banner("Degradation study",
                  "Fault injection: disk faults, aborts/retries, and "
                  "crash recovery");

    // Results land in their grid slot, never in completion order, so
    // the CSV is bit-identical for any job count.
    std::vector<core::RunResult> grid(kTotal);
    const auto runPoint = [&](std::size_t k) {
        core::OltpConfiguration cfg;
        cfg.warehouses = kWarehouses;
        cfg.processors = kProcessors;
        cfg.machine = core::MachineKind::XeonQuadMp;
        core::RunKnobs knobs;
        const char *label;
        if (k == kCrashIndex) {
            knobs.faults = crashFaults();
            label = "crash";
        } else {
            const std::size_t si = k / kNumProfiles;
            const std::size_t pi = k % kNumProfiles;
            knobs.faults =
                faultsFor(kFaultScales[si], kProfiles[pi]);
            label = kProfiles[pi].name;
        }
        grid[k] = core::ExperimentRunner::run(cfg, knobs);
        std::fprintf(stderr,
                     "[bench]   point %zu (%s) done (tps %.0f, "
                     "aborts %" PRIu64 ", mttr %.1f ms)\n",
                     k, label, grid[k].tps, grid[k].txnAborts,
                     grid[k].mttrMs);
    };

    std::fprintf(stderr,
                 "[bench] measuring %zu fault points (jobs=%u)...\n",
                 kTotal, bench::studyJobs());
    parallelFor(bench::studyJobs(), kTotal, runPoint);

    // --- CSV (deterministic; diffed serial-vs-parallel by the smoke
    // script) ---
    const std::string path =
        bench::csvDir() + "/odbsim_faults_xeon-quad-mp.csv";
    if (FILE *f = std::fopen(path.c_str(), "w")) {
        std::fprintf(f,
                     "fault_scale,profile,warehouses,processors,"
                     "clients,tps,abort_rate,txn_aborts,txn_retries,"
                     "lock_timeouts,disk_transient_errors,"
                     "avg_latency_ms,p95_latency_ms,mttr_ms,"
                     "tps_pre_crash,tps_post_recovery,"
                     "redo_replayed_bytes\n");
        for (std::size_t k = 0; k < kTotal; ++k) {
            const core::RunResult &r = grid[k];
            const double scale =
                k == kCrashIndex ? 0.0
                                 : kFaultScales[k / kNumProfiles];
            const char *profile =
                k == kCrashIndex ? "crash"
                                 : kProfiles[k % kNumProfiles].name;
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
        }
        std::fclose(f);
        std::fprintf(stderr, "[bench] wrote %s\n", path.c_str());
    } else {
        std::fprintf(stderr, "[bench] cannot write %s\n", path.c_str());
        return 1;
    }

    // --- report ---
    std::printf("%-8s", "scale");
    for (const auto &p : kProfiles)
        std::printf("  %24s", p.name);
    std::printf("\n");
    for (std::size_t si = 0; si < kNumScales; ++si) {
        std::printf("%-8.2f", kFaultScales[si]);
        for (std::size_t pi = 0; pi < kNumProfiles; ++pi) {
            const core::RunResult &r = grid[si * kNumProfiles + pi];
            char cell[64];
            std::snprintf(cell, sizeof(cell),
                          "%.0f tps (%" PRIu64 " aborts)", r.tps,
                          r.txnAborts);
            std::printf("  %24s", cell);
        }
        std::printf("\n");
    }
    {
        const core::RunResult &c = grid[kCrashIndex];
        std::printf("\ncrash point: mttr %.1f ms, tps %.0f -> %.0f "
                    "across the outage (%.1f MB redo)\n",
                    c.mttrMs, c.tpsPreCrash, c.tpsPostRecovery,
                    static_cast<double>(c.redoReplayedBytes) / 1024.0 /
                        1024.0);
    }
    bench::paperNote(
        "throughput degrades smoothly as fault intensity rises (wasted "
        "replay work, retry backoff, disk retries), and an instance "
        "crash costs one redo-window of downtime before throughput "
        "ramps back to steady state.");

    // --- degradation self-checks ---
    int rc = 0;
    for (std::size_t pi = 0; pi < kNumProfiles; ++pi) {
        for (std::size_t si = 1; si < kNumScales; ++si) {
            const double prev =
                grid[(si - 1) * kNumProfiles + pi].tps;
            const double cur = grid[si * kNumProfiles + pi].tps;
            if (!(cur < prev)) {
                std::fprintf(stderr,
                             "FAIL %s: tps should fall with the fault "
                             "scale (%.0f at %.1f vs %.0f at %.1f)\n",
                             kProfiles[pi].name, cur, kFaultScales[si],
                             prev, kFaultScales[si - 1]);
                rc = 3;
            }
        }
        const core::RunResult &worst =
            grid[(kNumScales - 1) * kNumProfiles + pi];
        if (worst.txnAborts == 0 || worst.txnRetries == 0) {
            std::fprintf(stderr,
                         "FAIL %s: the top fault scale should abort "
                         "and retry transactions\n",
                         kProfiles[pi].name);
            rc = 3;
        }
    }
    {
        const core::RunResult &c = grid[kCrashIndex];
        if (!(c.mttrMs > 0.0)) {
            std::fprintf(stderr, "FAIL crash point measured no "
                                 "recovery time\n");
            rc = 3;
        }
        if (!(c.tpsPostRecovery >= 0.95 * c.tpsPreCrash)) {
            std::fprintf(stderr,
                         "FAIL post-recovery tps %.0f below 95%% of "
                         "the pre-crash %.0f\n",
                         c.tpsPostRecovery, c.tpsPreCrash);
            rc = 3;
        }
    }
    if (rc == 0)
        std::printf("\ndegradation check: PASS (monotonic tps decay, "
                    "recovery back to >= 95%% of steady state)\n");
    return rc;
}
