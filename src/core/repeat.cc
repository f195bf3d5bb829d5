#include "core/repeat.hh"

#include <cmath>

#include "sim/logging.hh"

namespace odbsim::core
{

MetricStats
RepeatedResult::stats(
    const std::function<double(const RunResult &)> &get) const
{
    RunningStat acc;
    for (const auto &r : runs)
        acc.add(get(r));
    MetricStats out;
    out.mean = acc.mean();
    out.stddev = acc.stddev();
    out.min = acc.min();
    out.max = acc.max();
    out.n = acc.count();
    return out;
}

MetricStats
RepeatedResult::tps() const
{
    return stats([](const RunResult &r) { return r.tps; });
}

MetricStats
RepeatedResult::cpi() const
{
    return stats([](const RunResult &r) { return r.cpi; });
}

MetricStats
RepeatedResult::mpi() const
{
    return stats([](const RunResult &r) { return r.mpi; });
}

MetricStats
RepeatedResult::ipx() const
{
    return stats([](const RunResult &r) { return r.ipx; });
}

MetricStats
RepeatedResult::cpuUtil() const
{
    return stats([](const RunResult &r) { return r.cpuUtil; });
}

RepeatedResult
repeatRun(const OltpConfiguration &cfg, const RunKnobs &base_knobs,
          unsigned repeats)
{
    if (repeats == 0)
        odbsim_fatal("repeatRun needs at least 1 repeat, got 0");
    RepeatedResult out;
    out.runs.reserve(repeats);
    for (unsigned i = 0; i < repeats; ++i) {
        RunKnobs knobs = base_knobs;
        knobs.seed = base_knobs.seed + 0x9e3779b9ULL * (i + 1);
        out.runs.push_back(ExperimentRunner::run(cfg, knobs));
    }
    return out;
}

} // namespace odbsim::core
