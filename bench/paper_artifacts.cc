/**
 * @file
 * The paper's own artifacts: Table 1, Figures 2-19 and Table 5. All of
 * them but Table 1 read the figure study of the Quad Xeon MP (and
 * Figure 19 that of the Quad Itanium2 as well), which the plan runs
 * once for all of them.
 */

#include <cstdio>
#include <string>

#include "analysis/piecewise.hh"
#include "analysis/table.hh"
#include "core/client_table.hh"
#include "core/client_tuner.hh"
#include "core/representative.hh"
#include "paper.hh"

namespace odbsim::paper
{

namespace
{

using analysis::TextTable;
using core::MachineKind;
using core::RunResult;

constexpr MachineKind kXeon = MachineKind::XeonQuadMp;

Printer
table1(Plan &plan)
{
    static const unsigned warehouses[] = {10, 50, 100, 500, 800};
    static const unsigned procs[] = {1, 2, 4};
    constexpr double kTargetUtil = 0.90;
    std::vector<std::size_t> cells;
    for (const unsigned w : warehouses) {
        for (const unsigned p : procs) {
            core::OltpConfiguration cfg;
            cfg.warehouses = w;
            cfg.processors = p;
            cells.push_back(plan.add(
                {"table1 tune W=" + std::to_string(w) +
                     " P=" + std::to_string(p),
                 w, p, [cfg] {
                     return core::ClientTuner::tune(cfg, kTargetUtil);
                 }}));
        }
    }
    return [cells](Report &r) {
        banner("Table 1", "Number of clients at 90% CPU utilization");
        TextTable t({"W", "1P meas", "1P paper", "2P meas", "2P paper",
                     "4P meas", "4P paper"});
        std::size_t cell = 0;
        for (const unsigned w : warehouses) {
            std::vector<std::string> row = {
                TextTable::num(std::uint64_t(w))};
            for (const unsigned p : procs) {
                // The search's last trial: it stopped I/O bound exactly
                // when that trial missed the target.
                const RunResult &tuned = r.run(cells[cell++]);
                std::string text =
                    TextTable::num(std::uint64_t(tuned.clients));
                if (tuned.cpuUtil < kTargetUtil) {
                    char buf[48];
                    std::snprintf(buf, sizeof(buf), "%s (io,%.0f%%)",
                                  text.c_str(), tuned.cpuUtil * 100);
                    text = buf;
                }
                row.push_back(text);
                row.push_back(TextTable::num(
                    std::uint64_t(core::paperClients(w, p))));
            }
            t.addRow(std::move(row));
        }
        t.print();
        paperNote(
            "clients range 8-64, growing with W (to mask disk I/O) and "
            "with P; (io,..%) marks configurations our disk model could "
            "not drive to 90%.");
    };
}

/** Figure 2's region of a measured point (Section 4.1). */
const char *
classify(const RunResult &r)
{
    if (r.diskReadKbPerTxn < 8.0)
        return "CPU-bound (cached)";
    if (r.cpuUtil >= 0.70)
        return "balanced";
    return "I/O-bound";
}

Printer
fig02(Plan &plan)
{
    const StudyHandle xeon = plan.study(kXeon);
    // The 1200 W point the paper excludes from later figures: the 26
    // disks saturate and CPU utilization cannot reach 90%.
    core::OltpConfiguration cfg;
    cfg.warehouses = 1200;
    cfg.processors = 4;
    const std::size_t w1200 = plan.point(cfg);
    return [xeon, w1200](Report &rep) {
        banner("Figure 2", "Variance of ODB TPS with P and W scaling");
        const core::StudyResult study = rep.study(xeon);
        printMetricByW(
            study, "transactions per second",
            [](const RunResult &r) { return r.tps; }, 0);

        std::printf(
            "\n1200-warehouse I/O-bound check (4P, max clients):\n");
        const RunResult &r = rep.run(w1200);
        std::printf("  clients %u  tps %.0f  cpuUtil %.2f  disk util "
                    "%.2f  reads %.1f KB/txn\n",
                    r.clients, r.tps, r.cpuUtil, r.avgDiskUtil,
                    r.diskReadKbPerTxn);

        std::printf("\nregion classification (4P):\n");
        for (const auto &p : study.forProcessors(4).points) {
            std::printf("  %4uW  util %.2f  reads %6.1f KB/txn  -> %s\n",
                        p.warehouses, p.cpuUtil, p.diskReadKbPerTxn,
                        classify(p));
        }
        std::printf("  1200W  util %.2f  reads %6.1f KB/txn  -> %s\n",
                    r.cpuUtil, r.diskReadKbPerTxn, classify(r));

        paperNote(
            "maximum TPS at ~10 W for all P; TPS decreases as W grows; "
            "4P > 2P > 1P; at 1200 W the I/O subsystem saturates and 4P "
            "utilization stays well below 90% (paper: 63%).");
    };
}

/** A figure that is one Xeon-study metric as a W-by-P table. */
struct MetricFigure
{
    const char *name;
    const char *artifact;
    const char *caption;
    const char *metric;
    double (*get)(const RunResult &);
    int decimals;
    const char *note;
};

Artifact
metricFigure(const MetricFigure &f)
{
    return {f.name, [f](Plan &plan) -> Printer {
                const StudyHandle xeon = plan.study(kXeon);
                return [f, xeon](Report &r) {
                    banner(f.artifact, f.caption);
                    printMetricByW(r.study(xeon), f.metric, f.get,
                                   f.decimals);
                    paperNote(f.note);
                };
            }};
}

const MetricFigure kFig03 = {
    "fig03_cpu_split", "Figure 3", "CPU utilization split: OS and user",
    "OS share of busy cycles (%)",
    [](const RunResult &r) { return r.osCycleShare * 100.0; }, 1,
    "OS share of CPU time grows from under 10% at small W to about 20% "
    "at 800 W, driven by disk I/O servicing and context switches."};

const MetricFigure kFig04 = {
    "fig04_ipx", "Figure 4", "Millions of instructions per ODB transaction",
    "IPX (millions of instructions per txn)",
    [](const RunResult &r) { return r.ipx / 1e6; }, 3,
    "IPX increases roughly linearly with W (its OS component grows with "
    "the I/O rate while the user component stays flat)."};

const MetricFigure kFig05 = {
    "fig05_ipx_user", "Figure 5", "User-space IPX", "user IPX (millions)",
    [](const RunResult &r) { return r.ipxUser / 1e6; }, 3,
    "the user-space path length is flat: the database executes the same "
    "work per transaction regardless of W."};

const MetricFigure kFig06 = {
    "fig06_ipx_os", "Figure 6", "OS-space IPX", "OS IPX (millions)",
    [](const RunResult &r) { return r.ipxOs / 1e6; }, 3,
    "the OS-space path length grows with W, from the increasing disk I/O "
    "service and scheduler/context-switch work."};

const MetricFigure kFig08 = {
    "fig08_ctx_switches", "Figure 8",
    "Context switches per ODB transaction", "context switches per txn",
    [](const RunResult &r) { return r.ctxPerTxn; }, 2,
    "elevated at 10 W (data contention on the tiny shared working set), "
    "dips, then grows in step with disk reads per transaction."};

const MetricFigure kFig09 = {
    "fig09_cpi", "Figure 9", "Overall CPI trends", "cycles per instruction",
    [](const RunResult &r) { return r.cpi; }, 3,
    "CPI rises steeply from 10 to ~100 W then levels off; higher P means "
    "higher CPI (bus queueing inflates the L3 miss penalty)."};

const MetricFigure kFig10 = {
    "fig10_cpi_user", "Figure 10", "User-space CPI", "user CPI",
    [](const RunResult &r) { return r.cpiUser; }, 3,
    "user CPI tracks the overall CPI closely, since user code is 70-80% "
    "of all instructions."};

const MetricFigure kFig11 = {
    "fig11_cpi_os", "Figure 11", "OS-space CPI", "OS CPI",
    [](const RunResult &r) { return r.cpiOs; }, 3,
    "OS CPI slightly DECREASES with W: the more kernel code runs, the "
    "better its cache locality (plus sampling noise at small W)."};

const MetricFigure kFig13 = {
    "fig13_mpi", "Figure 13", "L3 misses per instruction", "L3 MPI (x1000)",
    [](const RunResult &r) { return r.mpi * 1e3; }, 3,
    "MPI rises sharply until ~100 W as the working set defeats the 1 MB "
    "L3, then grows only slowly; MPI does NOT grow with P (coherence "
    "misses are negligible)."};

const MetricFigure kFig14 = {
    "fig14_mpi_user", "Figure 14", "User-space L3 misses per instruction",
    "user L3 MPI (x1000)",
    [](const RunResult &r) { return r.mpiUser * 1e3; }, 3,
    "the user-space MPI component correlates with the overall MPI."};

const MetricFigure kFig15 = {
    "fig15_mpi_os", "Figure 15", "OS-space L3 misses per instruction",
    "OS L3 MPI (x1000)",
    [](const RunResult &r) { return r.mpiOs * 1e3; }, 3,
    "the OS-space MPI decreases with the workload size: more time in "
    "kernel code means better temporal locality of kernel structures."};

Printer
fig07(Plan &plan)
{
    const StudyHandle xeon = plan.study(kXeon);
    return [xeon](Report &rep) {
        banner("Figure 7",
               "Disk I/Os per transaction (reads and writes), in KB");
        const core::StudyResult study = rep.study(xeon);
        std::printf("4P series:\n");
        std::printf("%-12s %10s %10s %10s %10s %10s\n", "warehouses",
                    "read KB", "write KB", "log KB", "total KB",
                    "bufHit");
        for (const auto &r : study.forProcessors(4).points) {
            std::printf("%-12u %10.2f %10.2f %10.2f %10.2f %10.3f\n",
                        r.warehouses, r.diskReadKbPerTxn,
                        r.diskWriteKbPerTxn, r.logKbPerTxn,
                        r.diskReadKbPerTxn + r.diskWriteKbPerTxn +
                            r.logKbPerTxn,
                        r.bufferHitRatio);
        }
        std::printf("\nread KB/txn across processor counts:\n");
        printMetricByW(
            study, "disk reads KB per txn",
            [](const RunResult &r) { return r.diskReadKbPerTxn; }, 2);
        paperNote(
            "reads ~0 below ~25-35 W (working set fits the buffer "
            "cache), growing beyond; log traffic ~6 KB/txn independent "
            "of W and P; write-back appears only once evictions begin "
            "and grows with W.");
    };
}

Printer
fig12(Plan &plan)
{
    const StudyHandle xeon = plan.study(kXeon);
    return [xeon](Report &rep) {
        banner("Figure 12", "CPI breakdown by event (Tables 3 & 4)");
        for (const auto &series : rep.study(xeon).series) {
            std::printf("%uP:\n", series.processors);
            std::printf("%-8s %6s %7s %6s %6s %6s %7s %7s %7s %6s\n",
                        "W", "Inst", "Branch", "TLB", "TC", "L2", "L3",
                        "Other", "total", "L3%");
            for (const auto &r : series.points) {
                const auto &b = r.breakdown;
                std::printf("%-8u %6.2f %7.3f %6.3f %6.3f %6.3f %7.3f "
                            "%7.3f %7.3f %5.0f%%\n",
                            r.warehouses, b.inst, b.branch, b.tlb, b.tc,
                            b.l2, b.l3, b.other, b.total(),
                            b.l3Share() * 100.0);
            }
            std::printf("\n");
        }
        paperNote(
            "L3 misses are the single largest component (~60% of CPI); "
            "the compute (Inst) and Branch components barely change "
            "across W; the L3 component grows with W and with P (bus "
            "queueing adds to the 300-cycle miss penalty).");
    };
}

Printer
fig16(Plan &plan)
{
    const StudyHandle xeon = plan.study(kXeon);
    return [xeon](Report &rep) {
        banner("Figure 16", "Bus-transaction time (in the IOQ)");
        const core::StudyResult study = rep.study(xeon);
        printMetricByW(
            study, "IOQ residency (CPU cycles)",
            [](const RunResult &r) { return r.ioqCycles; }, 1);
        std::printf("\nbus utilization (%%):\n");
        printMetricByW(
            study, "bus utilization (%)",
            [](const RunResult &r) { return r.busUtil * 100.0; }, 1);
        paperNote(
            "the IOQ latency stays near the unloaded 102 cycles at 1P "
            "for every W, but grows with utilization on 4P; bus "
            "utilization approaches 45% at 4P and stays below 30% at "
            "2P.");
    };
}

Printer
fig17(Plan &plan)
{
    const StudyHandle xeon = plan.study(kXeon);
    return [xeon](Report &rep) {
        banner("Figure 17",
               "Linear approximation models for the 4P CPI trend");
        const core::StudyResult study = rep.study(xeon);
        const auto &series = study.forProcessors(4);
        const analysis::PiecewiseFit fit = series.cpiFit();
        std::printf("cached region:  CPI = %.6f * W + %.4f  (r2 %.3f)\n",
                    fit.cached.slope, fit.cached.intercept,
                    fit.cached.r2);
        std::printf("scaled region:  CPI = %.6f * W + %.4f  (r2 %.3f)\n",
                    fit.scaled.slope, fit.scaled.intercept,
                    fit.scaled.r2);
        std::printf("pivot point:    %.0f warehouses (CPI %.3f)\n\n",
                    fit.pivotX, fit.pivotY);
        std::printf("%-12s %10s %10s %10s\n", "warehouses", "measured",
                    "model", "resid");
        for (const auto &r : series.points) {
            const double model = fit.predict(r.warehouses);
            std::printf("%-12u %10.3f %10.3f %+10.3f\n", r.warehouses,
                        r.cpi, model, r.cpi - model);
        }
        paperNote(
            "two linear regions describe the CPI trend accurately; "
            "their intersection — the pivot point — is 130 W for 4P in "
            "the paper's Table 5, the smallest configuration that "
            "behaves like a scaled setup.");
    };
}

Printer
fig18(Plan &plan)
{
    const StudyHandle xeon = plan.study(kXeon);
    return [xeon](Report &rep) {
        banner("Figure 18",
               "Linear approximation models for the 4P L3 MPI trend");
        const core::StudyResult study = rep.study(xeon);
        const auto &series = study.forProcessors(4);
        const analysis::PiecewiseFit fit = series.mpiFit();
        std::printf("cached region:  MPI = %.3e * W + %.5f  (r2 %.3f)\n",
                    fit.cached.slope, fit.cached.intercept,
                    fit.cached.r2);
        std::printf("scaled region:  MPI = %.3e * W + %.5f  (r2 %.3f)\n",
                    fit.scaled.slope, fit.scaled.intercept,
                    fit.scaled.r2);
        std::printf("pivot point:    %.0f warehouses (MPI %.5f)\n\n",
                    fit.pivotX, fit.pivotY);
        std::printf("%-12s %12s %12s %12s\n", "warehouses",
                    "measured(mK)", "model(mK)", "resid(mK)");
        for (const auto &r : series.points) {
            const double model = fit.predict(r.warehouses);
            std::printf("%-12u %12.3f %12.3f %+12.3f\n", r.warehouses,
                        r.mpi * 1e3, model * 1e3, (r.mpi - model) * 1e3);
        }
        paperNote(
            "the MPI trend splits into the same cached/scaled regions; "
            "the paper's 4P MPI pivot is 144 W, slightly above its CPI "
            "pivot because CPI also captures the bus-latency growth.");
    };
}

Printer
table5(Plan &plan)
{
    const StudyHandle xeon = plan.study(kXeon);
    return [xeon](Report &rep) {
        banner("Table 5", "Number of warehouses for pivot points");
        const core::Recommendation rec =
            core::RepresentativeConfigSelector::select(rep.study(xeon));
        const double paper_cpi[] = {119, 142, 130};
        const double paper_mpi[] = {102, 147, 144};
        TextTable t({"config", "CPI meas", "CPI paper", "MPI meas",
                     "MPI paper"});
        std::size_t i = 0;
        for (const auto &row : rec.pivots) {
            t.addRow({std::to_string(row.processors) + "P",
                      TextTable::num(row.cpiPivotW, 0),
                      TextTable::num(paper_cpi[i], 0),
                      TextTable::num(row.mpiPivotW, 0),
                      TextTable::num(paper_mpi[i], 0)});
            ++i;
        }
        t.print();
        std::printf("\nlargest pivot: %.0f W\n", rec.maxPivotW);
        std::printf("recommended minimal representative configuration: "
                    "%u warehouses\n",
                    rec.recommendedW);
        paperNote(
            "all pivot points fall below 150 warehouses; the paper "
            "proposes the 200 W setup as a representative scaled "
            "configuration from which larger setups extrapolate along "
            "the scaled-region line.");
    };
}

Printer
fig19(Plan &plan)
{
    const StudyHandle itanium2 = plan.study(MachineKind::Itanium2Quad);
    const StudyHandle xeon = plan.study(kXeon);
    return [itanium2, xeon](Report &rep) {
        banner("Figure 19", "CPI scaling on an Itanium2 quad server");
        const core::StudyResult i2 = rep.study(itanium2);
        const core::StudyResult x = rep.study(xeon);
        const auto &i2s = i2.forProcessors(4);
        const auto &xs = x.forProcessors(4);
        std::printf("%-12s %14s %14s\n", "warehouses", "Itanium2 CPI",
                    "Xeon MP CPI");
        for (std::size_t i = 0; i < i2s.points.size(); ++i) {
            std::printf("%-12u %14.3f %14.3f\n",
                        i2s.points[i].warehouses, i2s.points[i].cpi,
                        xs.points[i].cpi);
        }
        const analysis::PiecewiseFit fi2 = i2s.cpiFit();
        const analysis::PiecewiseFit fx = xs.cpiFit();
        std::printf(
            "\ncached-region slope:  Itanium2 %.6f  vs  Xeon %.6f\n",
            fi2.cached.slope, fx.cached.slope);
        std::printf("scaled-region slope:  Itanium2 %.6f  vs  Xeon %.6f\n",
                    fi2.scaled.slope, fx.scaled.slope);
        std::printf(
            "CPI pivot:            Itanium2 %.0f W  vs  Xeon %.0f W\n",
            fi2.pivotX, fx.pivotX);
        paperNote(
            "the 3 MB L3 flattens the cached-region slope and the extra "
            "bus/disk bandwidth softens the scaled region; the resulting "
            "Itanium2 CPI pivot (118 W in the paper) lands close to the "
            "Xeon's (130 W), validating the Section 6.3 conjectures.");
    };
}

} // namespace

std::vector<Artifact>
paperArtifacts()
{
    return {
        {"table1_clients", table1},
        {"fig02_tps", fig02},
        metricFigure(kFig03),
        metricFigure(kFig04),
        metricFigure(kFig05),
        metricFigure(kFig06),
        {"fig07_disk_io", fig07},
        metricFigure(kFig08),
        metricFigure(kFig09),
        metricFigure(kFig10),
        metricFigure(kFig11),
        {"fig12_cpi_breakdown", fig12},
        metricFigure(kFig13),
        metricFigure(kFig14),
        metricFigure(kFig15),
        {"fig16_ioq", fig16},
        {"fig17_cpi_pivot", fig17},
        {"fig18_mpi_pivot", fig18},
        {"table5_pivots", table5},
        {"fig19_itanium2", fig19},
    };
}

} // namespace odbsim::paper
