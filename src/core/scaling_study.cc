#include "core/scaling_study.hh"

#include <cstdint>
#include <iterator>
#include <mutex>
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

std::vector<OltpConfiguration>
ScalingStudy::grid(const StudyConfig &cfg)
{
    if (cfg.warehouses.empty() || cfg.processors.empty())
        odbsim_fatal("a study needs at least 1 warehouse count and 1 "
                     "processor count, got ", cfg.warehouses.size(),
                     " and ", cfg.processors.size());
    std::vector<OltpConfiguration> points;
    points.reserve(cfg.processors.size() * cfg.warehouses.size());
    for (const unsigned p : cfg.processors) {
        for (const unsigned w : cfg.warehouses) {
            OltpConfiguration point;
            point.warehouses = w;
            point.processors = p;
            point.machine = cfg.machine;
            point.topology = cfg.topology;
            point.placement = cfg.placement;
            ExperimentRunner::checkInputs(point, cfg.knobs);
            points.push_back(point);
        }
    }
    return points;
}

StudyResult
ScalingStudy::assemble(const StudyConfig &cfg,
                       std::vector<RunResult> results)
{
    const std::size_t nw = cfg.warehouses.size();
    odbsim_assert(results.size() == cfg.processors.size() * nw,
                  "a study of ", cfg.processors.size() * nw,
                  " points got ", results.size(), " results");
    StudyResult out;
    out.series.resize(cfg.processors.size());
    for (std::size_t pi = 0; pi < cfg.processors.size(); ++pi) {
        out.series[pi].processors = cfg.processors[pi];
        out.series[pi].points.assign(
            std::make_move_iterator(results.begin() + pi * nw),
            std::make_move_iterator(results.begin() + (pi + 1) * nw));
    }
    return out;
}

StudyResult
ScalingStudy::run(const StudyConfig &cfg)
{
    const std::vector<OltpConfiguration> points = grid(cfg);

    // Warehouses × processors tracks a point's simulated work, so the
    // most expensive points start first. Every point has a fixed slot:
    // results are collected by grid index, never by completion order,
    // which is what keeps the study bit-identical at every job count.
    std::vector<RunResult> results(points.size());
    std::mutex progress_mutex;
    parallelForLargestFirst(
        cfg.jobs, points.size(),
        [&](std::size_t g) {
            return std::uint64_t{points[g].warehouses} * points[g].processors;
        },
        [&](std::size_t g) {
            RunResult r = ExperimentRunner::run(points[g], cfg.knobs);
            if (cfg.onPoint) {
                std::lock_guard<std::mutex> lock(progress_mutex);
                cfg.onPoint(r);
            }
            results[g] = std::move(r);
        });
    return assemble(cfg, std::move(results));
}

} // namespace odbsim::core
