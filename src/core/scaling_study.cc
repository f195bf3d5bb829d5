#include "core/scaling_study.hh"

#include <algorithm>
#include <mutex>
#include <numeric>
#include <thread>
#include <vector>

#include "core/repeat.hh"
#include "sim/logging.hh"
#include "sim/thread_pool.hh"

namespace odbsim::core
{

std::vector<double>
StudySeries::warehouseAxis() const
{
    std::vector<double> xs;
    xs.reserve(points.size());
    for (const auto &p : points)
        xs.push_back(static_cast<double>(p.warehouses));
    return xs;
}

analysis::PiecewiseFit
StudySeries::cpiFit() const
{
    const auto xs = warehouseAxis();
    const auto ys = metric([](const RunResult &r) { return r.cpi; });
    return analysis::fitTwoSegment(xs, ys);
}

analysis::PiecewiseFit
StudySeries::mpiFit() const
{
    const auto xs = warehouseAxis();
    const auto ys = metric([](const RunResult &r) { return r.mpi; });
    return analysis::fitTwoSegment(xs, ys);
}

const StudySeries &
StudyResult::forProcessors(unsigned p) const
{
    for (const auto &s : series) {
        if (s.processors == p)
            return s;
    }
    odbsim_fatal("no series for ", p, " processors in study result");
}

namespace
{

/** Map the jobs knob to a worker count for a grid of @p points. */
unsigned
resolveJobs(unsigned jobs, std::size_t points)
{
    if (jobs == 0) {
        jobs = std::thread::hardware_concurrency();
        if (jobs == 0)
            jobs = 1;
    }
    if (points < static_cast<std::size_t>(jobs))
        jobs = static_cast<unsigned>(points);
    return jobs;
}

} // namespace

StudyResult
ScalingStudy::run(const StudyConfig &cfg)
{
    odbsim_assert(!cfg.warehouses.empty() && !cfg.processors.empty(),
                  "empty study grid");
    for (const unsigned p : cfg.processors) {
        for (const unsigned w : cfg.warehouses) {
            OltpConfiguration point;
            point.warehouses = w;
            point.processors = p;
            point.machine = cfg.machine;
            ExperimentRunner::checkInputs(point, cfg.knobs);
        }
    }

    const std::size_t nw = cfg.warehouses.size();
    const std::size_t total = cfg.processors.size() * nw;

    // Pre-size the grid so every point has a fixed slot: results are
    // collected by grid index, never by completion order, which is
    // what keeps the parallel path bit-identical to the serial one.
    StudyResult out;
    out.series.resize(cfg.processors.size());
    for (std::size_t pi = 0; pi < cfg.processors.size(); ++pi) {
        out.series[pi].processors = cfg.processors[pi];
        out.series[pi].points.resize(nw);
    }

    const unsigned jobs = resolveJobs(cfg.jobs, total);

    std::mutex progress_mutex;
    const auto runPoint = [&](std::size_t pi, std::size_t wi) {
        OltpConfiguration point;
        point.warehouses = cfg.warehouses[wi];
        point.processors = cfg.processors[pi];
        point.machine = cfg.machine;
        point.topology = cfg.topology;
        point.placement = cfg.placement;
        RunResult r;
        if (cfg.repeats <= 1) {
            r = ExperimentRunner::run(point, cfg.knobs);
        } else {
            // Hierarchical decomposition: the point fans its seed
            // replicas out as nested tasks on the worker pool it is
            // already running on (hostParallelFor detects the pool);
            // on the serial path the replicas run serially too.
            const unsigned inner = jobs > 1 ? jobs : 1;
            RepeatedResult rep =
                repeatRun(point, cfg.knobs, cfg.repeats, inner);
            r = aggregateRuns(rep.runs);
        }
        if (cfg.onPoint) {
            std::lock_guard<std::mutex> lock(progress_mutex);
            cfg.onPoint(r);
        }
        out.series[pi].points[wi] = std::move(r);
    };
    if (jobs <= 1) {
        // Legacy serial path: grid order, no worker threads.
        for (std::size_t pi = 0; pi < cfg.processors.size(); ++pi)
            for (std::size_t wi = 0; wi < nw; ++wi)
                runPoint(pi, wi);
    } else {
        // Dispatch the independent points longest-first (LPT): the
        // most expensive simulations start earliest so no worker is
        // left finishing a huge point alone at the end. Cost is the
        // caller's hint when given (e.g. a previous run's profile
        // sidecar), else the warehouses × processors proxy. Pure
        // makespan optimization — results land in their grid slot, so
        // the StudyResult is bit-identical to any other order.
        std::vector<double> cost(total);
        for (std::size_t k = 0; k < total; ++k) {
            const unsigned w = cfg.warehouses[k % nw];
            const unsigned p = cfg.processors[k / nw];
            cost[k] = cfg.costHint
                          ? cfg.costHint(w, p)
                          : static_cast<double>(w) * p;
        }
        std::vector<std::size_t> order(total);
        std::iota(order.begin(), order.end(), std::size_t{0});
        // Stable: equal-cost points keep grid order, so the dispatch
        // sequence is deterministic for a given config.
        std::stable_sort(order.begin(), order.end(),
                         [&](std::size_t a, std::size_t b) {
                             return cost[a] > cost[b];
                         });
        ThreadPool pool(jobs);
        pool.parallelFor(total, [&](std::size_t k) {
            const std::size_t g = order[k];
            runPoint(g / nw, g % nw);
        });
    }
    return out;
}

} // namespace odbsim::core
