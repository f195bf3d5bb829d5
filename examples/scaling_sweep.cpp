/**
 * @file
 * Scaling sweep: run the full W x P characterization grid and print
 * the headline metrics of the study — the quickest way to see the
 * cached/balanced/scaled structure of the configuration space.
 *
 *   ./scaling_sweep [machine]   (machine: xeon | itanium2)
 *
 * The independent grid points run on one host thread per hardware
 * thread; the results are the same at any thread count.
 */

#include <cstdio>
#include <cstring>

#include "analysis/table.hh"
#include "core/scaling_study.hh"

int
main(int argc, char **argv)
{
    using namespace odbsim;
    using analysis::TextTable;

    core::StudyConfig cfg;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "itanium2") == 0)
            cfg.machine = core::MachineKind::Itanium2Quad;
    }
    cfg.jobs = 0;
    cfg.onPoint = [](const core::RunResult &r) {
        std::fprintf(stderr, "  measured W=%u P=%u C=%u\n", r.warehouses,
                     r.processors, r.clients);
    };

    const core::StudyResult study = core::ScalingStudy::run(cfg);

    for (const auto &s : study.series) {
        std::printf("\n== %uP (%s) ==\n", s.processors,
                    core::toString(cfg.machine));
        TextTable t({"W", "C", "tps", "util", "os%", "ipxM", "cpi",
                     "cpiU", "cpiO", "mpiK", "rdKB", "wrKB", "logKB",
                     "ctx", "ioq", "bus%", "hit"});
        for (const auto &p : s.points) {
            t.addRow({TextTable::num(std::uint64_t(p.warehouses)),
                      TextTable::num(std::uint64_t(p.clients)),
                      TextTable::num(p.tps, 0),
                      TextTable::num(p.cpuUtil, 2),
                      TextTable::num(p.osCycleShare * 100, 1),
                      TextTable::num(p.ipx / 1e6, 2),
                      TextTable::num(p.cpi, 2),
                      TextTable::num(p.cpiUser, 2),
                      TextTable::num(p.cpiOs, 2),
                      TextTable::num(p.mpi * 1e3, 2),
                      TextTable::num(p.diskReadKbPerTxn, 1),
                      TextTable::num(p.diskWriteKbPerTxn, 1),
                      TextTable::num(p.logKbPerTxn, 1),
                      TextTable::num(p.ctxPerTxn, 1),
                      TextTable::num(p.ioqCycles, 0),
                      TextTable::num(p.busUtil * 100, 1),
                      TextTable::num(p.bufferHitRatio, 3)});
        }
        t.print();
        const auto cpi_fit = s.cpiFit();
        const auto mpi_fit = s.mpiFit();
        std::printf("CPI pivot: %.0f W   MPI pivot: %.0f W\n",
                    cpi_fit.pivotX, mpi_fit.pivotX);
    }
    return 0;
}
