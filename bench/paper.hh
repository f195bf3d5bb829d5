/**
 * @file
 * The paper as one plan. Each artifact (a table, a figure, an ablation
 * or a sweep) declares the simulations it needs and returns a printer
 * over their results. The plan holds each distinct simulation once, so
 * the Xeon study that Figures 2-19 and Table 5 all read runs once per
 * process, and every simulation of every selected artifact runs on one
 * flat parallelFor.
 */

#ifndef ODBSIM_BENCH_PAPER_HH
#define ODBSIM_BENCH_PAPER_HH

#include <cstddef>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "core/scaling_study.hh"

namespace odbsim::paper
{

/** One independent simulation of the plan: one seed of one
 *  configuration, or one whole client search. */
struct Simulation
{
    /** Identity and progress label: equal keys are one simulation. */
    std::string key;
    /** The simulated scale; the plan runs the largest
     *  warehouses × processors first. */
    unsigned warehouses = 0;
    unsigned processors = 0;
    std::function<core::RunResult()> run;
};

/** A planned study: its configuration and the plan index of each of
 *  its points, in ScalingStudy::grid order. */
struct StudyHandle
{
    core::StudyConfig cfg;
    std::vector<std::size_t> points;
};

/** Every simulation the planned artifacts need, each held once. */
class Plan
{
  public:
    /**
     * Add @p sim unless a simulation with the same key is already
     * planned.
     * @return The plan index of the simulation with that key.
     */
    std::size_t add(Simulation sim);

    /** Plan ExperimentRunner::run of @p cfg at default knobs, keyed
     *  by its machine, warehouses and processors alone. */
    std::size_t point(const core::OltpConfiguration &cfg);

    /** Plan every point of @p machine's study on the default
     *  StudyConfig grid, the W×P grid of the paper's figures. */
    StudyHandle study(core::MachineKind machine);

    const std::vector<Simulation> &
    simulations() const
    {
        return sims_;
    }

    /** The studies planned, in the order first planned. */
    const std::vector<StudyHandle> &
    studies() const
    {
        return studies_;
    }

  private:
    std::vector<Simulation> sims_;
    std::vector<StudyHandle> studies_;
};

/** The results of a plan, read by the artifacts' printers. */
class Report
{
  public:
    Report(std::vector<core::RunResult> results, std::string csv_dir);

    const core::RunResult &run(std::size_t sim) const;
    core::StudyResult study(const StudyHandle &h) const;

    /**
     * Write CSV file @p name into the CSV directory with @p write.
     * A file that cannot be written stops the process with exit code 1.
     */
    void writeCsv(const std::string &name,
                  const std::function<void(std::FILE *)> &write) const;

    /** Record a failed self-check; the run exits 3 after printing. */
    void
    fail(std::string what)
    {
        failures_.push_back(std::move(what));
    }

    const std::vector<std::string> &
    failures() const
    {
        return failures_;
    }

  private:
    std::vector<core::RunResult> results_;
    std::string csvDir_;
    std::vector<std::string> failures_;
};

/** Prints one artifact to stdout from the plan's results. */
using Printer = std::function<void(Report &)>;

/** One artifact of the paper: plans its simulations, returns its
 *  printer. */
struct Artifact
{
    const char *name;
    std::function<Printer(Plan &)> plan;
};

/** Every artifact, in paper order. */
const std::vector<Artifact> &artifacts();

/** Table 1, Figures 2-19 and Table 5, in paper order. */
std::vector<Artifact> paperArtifacts();

/** The ablations, the islands sweep and the faults study. */
std::vector<Artifact> extraArtifacts();

/**
 * Run every simulation of @p plan on parallelForLargestFirst with
 * @p jobs workers (0 = one per hardware thread), largest warehouses ×
 * processors first and stable in plan order, and collect the results
 * by plan index. Prints one progress line per finished simulation to
 * stderr with its wall seconds and eventsFired, and adds those seconds
 * to @p sim_seconds.
 */
std::vector<core::RunResult> runPlan(const Plan &plan, unsigned jobs,
                                     double &sim_seconds);

/** @name Shared printing helpers @{ */
/** Print the standard artifact banner. */
void banner(const char *artifact, const char *caption);

/** Print one metric as a W-by-P table (the shape of the paper's
 *  line-chart figures). */
void printMetricByW(const core::StudyResult &study, const char *metric,
                    const std::function<double(const core::RunResult &)>
                        &get,
                    int decimals = 2);

/** Print the paper's qualitative expectation for an artifact. */
void paperNote(const char *note);
/** @} */

} // namespace odbsim::paper

#endif // ODBSIM_BENCH_PAPER_HH
