#include "core/scaling_study.hh"

#include <algorithm>
#include <cstdint>
#include <mutex>
#include <numeric>
#include <vector>

#include "sim/logging.hh"
#include "sim/parallel_for.hh"

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

StudyResult
ScalingStudy::run(const StudyConfig &cfg)
{
    if (cfg.warehouses.empty() || cfg.processors.empty())
        odbsim_fatal("a study needs at least 1 warehouse count and 1 "
                     "processor count, got ", cfg.warehouses.size(),
                     " and ", cfg.processors.size());
    for (const unsigned p : cfg.processors) {
        for (const unsigned w : cfg.warehouses) {
            OltpConfiguration point;
            point.warehouses = w;
            point.processors = p;
            point.machine = cfg.machine;
            point.topology = cfg.topology;
            point.placement = cfg.placement;
            ExperimentRunner::checkInputs(point, cfg.knobs);
        }
    }

    const std::size_t nw = cfg.warehouses.size();
    const std::size_t total = cfg.processors.size() * nw;

    // Pre-size the grid so every point has a fixed slot: results are
    // collected by grid index, never by completion order, which is
    // what keeps the study bit-identical at every job count.
    StudyResult out;
    out.series.resize(cfg.processors.size());
    for (std::size_t pi = 0; pi < cfg.processors.size(); ++pi) {
        out.series[pi].processors = cfg.processors[pi];
        out.series[pi].points.resize(nw);
    }

    // Run the points longest-first by warehouses × processors, which
    // tracks simulated work: the most expensive simulations start
    // earliest, so no worker is left finishing a large point alone at
    // the end. The sort is stable, so equal-cost points keep grid
    // order and the dispatch sequence is fixed for a given config.
    const auto cost = [&](std::size_t g) {
        return std::uint64_t{cfg.warehouses[g % nw]} *
               cfg.processors[g / nw];
    };
    std::vector<std::size_t> order(total);
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                         return cost(a) > cost(b);
                     });

    std::mutex progress_mutex;
    parallelFor(cfg.jobs, total, [&](std::size_t k) {
        const std::size_t pi = order[k] / nw;
        const std::size_t wi = order[k] % nw;
        OltpConfiguration point;
        point.warehouses = cfg.warehouses[wi];
        point.processors = cfg.processors[pi];
        point.machine = cfg.machine;
        point.topology = cfg.topology;
        point.placement = cfg.placement;
        RunResult r = ExperimentRunner::run(point, cfg.knobs);
        if (cfg.onPoint) {
            std::lock_guard<std::mutex> lock(progress_mutex);
            cfg.onPoint(r);
        }
        out.series[pi].points[wi] = std::move(r);
    });
    return out;
}

} // namespace odbsim::core
