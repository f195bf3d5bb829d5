/**
 * @file
 * ScalingStudy: the paper's full characterization sweep — measure a
 * grid of (warehouses × processors) configurations and derive the
 * Section 6 piecewise-linear models and pivot points.
 *
 * Grid points are independent simulations (each derives every RNG
 * stream from its own seed), so the sweep runs them on several host
 * threads; see StudyConfig::jobs. The StudyResult is bit-identical for
 * any jobs value.
 */

#ifndef ODBSIM_CORE_SCALING_STUDY_HH
#define ODBSIM_CORE_SCALING_STUDY_HH

#include <functional>
#include <vector>

#include "analysis/piecewise.hh"
#include "core/experiment.hh"
#include "core/metrics.hh"

namespace odbsim::core
{

/**
 * @brief Sweep definition: the (warehouses × processors) grid, the
 * machine preset, the per-run simulation knobs, and the host-side
 * execution policy.
 */
struct StudyConfig
{
    /** Warehouse axis (workload scale), ascending. */
    std::vector<unsigned> warehouses = {10,  25,  35,  50,  75,  100,
                                        150, 200, 300, 400, 600, 800};
    /** Processor-count axis; one StudySeries per entry. */
    std::vector<unsigned> processors = {1, 2, 4};
    /** Machine preset every point is measured on. */
    MachineKind machine = MachineKind::XeonQuadMp;
    /** Socket topology applied to every point (default: one socket,
     *  the legacy machine; see docs/TOPOLOGY.md). */
    mem::TopologyConfig topology;
    /** Server placement on that topology (default: legacy). */
    os::PlacementConfig placement;
    /** Simulation-control knobs shared by every point (seed included;
     *  per-point streams are derived from it plus the configuration). */
    RunKnobs knobs;
    /**
     * Host worker threads used to execute grid points concurrently.
     *
     * 0 = one worker per hardware thread; N = up to N workers, never
     * more than the grid has points. Points run longest-first by
     * warehouses × processors; at 1 they run in that order on the
     * calling thread. The StudyResult is bit-identical for every
     * value: points are independent and are collected by grid index,
     * not completion order. Only the invocation order of onPoint
     * changes.
     */
    unsigned jobs = 1;
    /**
     * Optional progress callback (per finished configuration).
     *
     * Invoked in completion order, not grid order (at jobs = 1 that
     * is the longest-first run order); with more than one worker it
     * runs on worker threads, serialized by an internal mutex, so
     * plain stdio printing is safe.
     */
    std::function<void(const RunResult &)> onPoint;
};

/** @brief All measurements for one processor count. */
struct StudySeries
{
    /** Processor count this series was measured at. */
    unsigned processors = 0;
    std::vector<RunResult> points; ///< Ordered by warehouses.

    /**
     * @brief Extract one metric across the warehouse axis.
     * @param get Projection from a measured point to the metric value.
     * @return One value per point, in warehouse order.
     */
    std::vector<double>
    metric(const std::function<double(const RunResult &)> &get) const
    {
        std::vector<double> out;
        out.reserve(points.size());
        for (const auto &p : points)
            out.push_back(get(p));
        return out;
    }

    /** @brief The warehouse axis as doubles (for the fitters). */
    std::vector<double> warehouseAxis() const;

    /** @brief Two-segment fit of CPI over warehouses (Figure 17). */
    analysis::PiecewiseFit cpiFit() const;

    /** @brief Two-segment fit of L3 MPI over warehouses (Figure 18). */
    analysis::PiecewiseFit mpiFit() const;
};

/** @brief Full study output: one series per processor count. */
struct StudyResult
{
    std::vector<StudySeries> series; ///< One per processor count.

    /**
     * @brief The series measured with @p p processors.
     * Fatal if the study holds no such series.
     */
    const StudySeries &forProcessors(unsigned p) const;
};

/**
 * @brief Runs the sweep described by a StudyConfig.
 */
class ScalingStudy
{
  public:
    /**
     * @brief The grid points of @p cfg, in grid order: processors
     * outer, warehouses inner, so point g has warehouses[g % W] and
     * processors[g / W] for W = cfg.warehouses.size().
     *
     * An empty grid, or any point with inputs
     * ExperimentRunner::checkInputs rejects under cfg.knobs, stops
     * the process with a one-line fatal message.
     */
    static std::vector<OltpConfiguration> grid(const StudyConfig &cfg);

    /**
     * @brief Arrange @p results, measured for grid(cfg) and indexed
     * the same way, into one series per processor count.
     */
    static StudyResult assemble(const StudyConfig &cfg,
                                std::vector<RunResult> results);

    /**
     * @brief Measure every (warehouses, processors) grid point.
     *
     * The independent points of grid(cfg) run on
     * parallelForLargestFirst with cfg.jobs workers, largest
     * warehouses × processors first; results land in their grid
     * slot regardless of completion order, so the returned
     * StudyResult is the same at every job count. Bad inputs stop the
     * process as grid() does, before any point runs. A failure
     * (fatal/panic) inside a point terminates the process.
     */
    static StudyResult run(const StudyConfig &cfg);
};

} // namespace odbsim::core

#endif // ODBSIM_CORE_SCALING_STUDY_HH
