/**
 * @file
 * Pivot study: the paper's headline methodology end to end — sweep
 * the configuration space, fit the two-region linear models, extract
 * the pivot points, and recommend the minimal representative workload
 * configuration (Sections 6.1-6.2).
 *
 *   ./pivot_study [machine]   (machine: xeon | itanium2)
 *
 * The independent grid points run on one host thread per hardware
 * thread; the fitted pivots are the same at any thread count.
 */

#include <cstdio>
#include <cstring>

#include "analysis/table.hh"
#include "core/representative.hh"
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
        std::fprintf(stderr, "  measured W=%u P=%u: cpi %.2f mpi %.4f\n",
                     r.warehouses, r.processors, r.cpi, r.mpi * 1e3);
    };

    std::printf("Running the %s characterization study...\n",
                core::toString(cfg.machine));
    const core::StudyResult study = core::ScalingStudy::run(cfg);
    const core::Recommendation rec =
        core::RepresentativeConfigSelector::select(study);

    std::printf("\nPivot points (per processor count):\n");
    TextTable t({"config", "CPI pivot (W)", "MPI pivot (W)",
                 "cached slope", "scaled slope"});
    for (const auto &row : rec.pivots) {
        t.addRow({std::to_string(row.processors) + "P",
                  TextTable::num(row.cpiPivotW, 0),
                  TextTable::num(row.mpiPivotW, 0),
                  TextTable::num(row.cpiFit.cached.slope * 1e3, 3),
                  TextTable::num(row.cpiFit.scaled.slope * 1e3, 3)});
    }
    t.print();

    std::printf("\nLargest pivot: %.0f warehouses.\n", rec.maxPivotW);
    std::printf("Recommended minimal representative configuration: "
                "%u warehouses.\n\n",
                rec.recommendedW);

    // Demonstrate the payoff: predict the largest measured setup from
    // the scaled-region line and compare.
    for (const auto &series : study.series) {
        const auto fit = series.cpiFit();
        const auto &largest = series.points.back();
        const double predicted =
            analysis::extrapolateScaled(fit, largest.warehouses);
        std::printf("%uP: scaled-line prediction of CPI at %u W: %.3f "
                    "(measured %.3f, error %+.1f%%)\n",
                    series.processors, largest.warehouses, predicted,
                    largest.cpi,
                    (predicted / largest.cpi - 1.0) * 100.0);
    }
    std::printf("\nSimulating configurations beyond the pivot adds "
                "little information: their behaviour follows the "
                "scaled-region line.\n");
    return 0;
}
