/**
 * @file
 * Repeated measurements: the paper repeated every counter measurement
 * six times; RepeatRunner does the same across seeds and reports
 * means with confidence intervals, so downstream comparisons can tell
 * signal from simulation noise.
 */

#ifndef ODBSIM_CORE_REPEAT_HH
#define ODBSIM_CORE_REPEAT_HH

#include <cmath>
#include <functional>
#include <vector>

#include "core/experiment.hh"
#include "sim/stats.hh"

namespace odbsim::core
{

/** Mean / spread of one metric over repeated runs. */
struct MetricStats
{
    double mean = 0.0;
    double stddev = 0.0;
    double min = 0.0;
    double max = 0.0;
    std::size_t n = 0;

    /** Half-width of the ~95% confidence interval of the mean. */
    double
    ci95() const
    {
        return n > 1 ? 1.96 * stddev /
                           std::sqrt(static_cast<double>(n))
                     : 0.0;
    }
};

/** One configuration measured across seeds. */
struct RepeatedResult
{
    std::vector<RunResult> runs;

    /** Aggregate any metric over the runs. */
    MetricStats stats(
        const std::function<double(const RunResult &)> &get) const;

    MetricStats tps() const;
    MetricStats cpi() const;
    MetricStats mpi() const;
    MetricStats ipx() const;
    MetricStats cpuUtil() const;
};

/**
 * Measure @p cfg @p repeats times with derived seeds (the paper's
 * six-repeat methodology), one replica after another on the calling
 * thread. Replica i runs with seed base_knobs.seed + 0x9e3779b9 ×
 * (i + 1) and lands in runs[i]. Zero @p repeats stops with a one-line
 * fatal message.
 */
RepeatedResult repeatRun(const OltpConfiguration &cfg,
                         const RunKnobs &base_knobs = {},
                         unsigned repeats = 6);

} // namespace odbsim::core

#endif // ODBSIM_CORE_REPEAT_HH
