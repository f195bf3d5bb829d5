#include "paper.hh"

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdint>
#include <cstdlib>
#include <iterator>
#include <mutex>

#include "sim/parallel_for.hh"

namespace odbsim::paper
{

std::size_t
Plan::add(Simulation sim)
{
    const auto same = std::find_if(
        sims_.begin(), sims_.end(),
        [&](const Simulation &s) { return s.key == sim.key; });
    if (same != sims_.end())
        return static_cast<std::size_t>(same - sims_.begin());
    sims_.push_back(std::move(sim));
    return sims_.size() - 1;
}

std::size_t
Plan::point(const core::OltpConfiguration &cfg)
{
    std::string key = core::toString(cfg.machine);
    key += " W=" + std::to_string(cfg.warehouses);
    key += " P=" + std::to_string(cfg.processors);
    return add({std::move(key), cfg.warehouses, cfg.processors,
                [cfg] { return core::ExperimentRunner::run(cfg); }});
}

StudyHandle
Plan::study(core::MachineKind machine)
{
    StudyHandle h;
    h.cfg.machine = machine;
    for (const core::OltpConfiguration &cfg : core::ScalingStudy::grid(h.cfg))
        h.points.push_back(point(cfg));
    const bool planned = std::any_of(
        studies_.begin(), studies_.end(),
        [&](const StudyHandle &s) { return s.cfg.machine == machine; });
    if (!planned)
        studies_.push_back(h);
    return h;
}

Report::Report(std::vector<core::RunResult> results, std::string csv_dir)
    : results_(std::move(results)), csvDir_(std::move(csv_dir))
{}

const core::RunResult &
Report::run(std::size_t sim) const
{
    return results_.at(sim);
}

core::StudyResult
Report::study(const StudyHandle &h) const
{
    std::vector<core::RunResult> results;
    results.reserve(h.points.size());
    for (const std::size_t sim : h.points)
        results.push_back(run(sim));
    return core::ScalingStudy::assemble(h.cfg, std::move(results));
}

void
Report::writeCsv(const std::string &name,
                 const std::function<void(std::FILE *)> &write) const
{
    const std::string path = csvDir_ + "/" + name;
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f)
        write(f);
    if (!f || std::fclose(f) != 0) {
        std::fprintf(stderr, "[paper] cannot write %s\n", path.c_str());
        std::exit(1);
    }
    std::fprintf(stderr, "[paper] wrote %s\n", path.c_str());
}

const std::vector<Artifact> &
artifacts()
{
    static const std::vector<Artifact> all = [] {
        std::vector<Artifact> a = paperArtifacts();
        std::vector<Artifact> extra = extraArtifacts();
        a.insert(a.end(), std::make_move_iterator(extra.begin()),
                 std::make_move_iterator(extra.end()));
        return a;
    }();
    return all;
}

std::vector<core::RunResult>
runPlan(const Plan &plan, unsigned jobs, double &sim_seconds)
{
    const std::vector<Simulation> &sims = plan.simulations();
    std::vector<core::RunResult> results(sims.size());
    int key_width = 0;
    for (const Simulation &sim : sims)
        key_width = std::max(key_width, static_cast<int>(sim.key.size()));
    std::mutex progress_mutex;
    std::size_t done = 0;
    parallelForLargestFirst(
        jobs, sims.size(),
        [&](std::size_t i) {
            return std::uint64_t{sims[i].warehouses} * sims[i].processors;
        },
        [&](std::size_t i) {
            const auto t0 = std::chrono::steady_clock::now();
            core::RunResult r = sims[i].run();
            const double wall = std::chrono::duration<double>(
                                    std::chrono::steady_clock::now() - t0)
                                    .count();
            {
                std::lock_guard<std::mutex> lock(progress_mutex);
                sim_seconds += wall;
                std::fprintf(stderr,
                             "[paper] %3zu/%zu %-*s %7.3f s %12" PRIu64
                             " events\n",
                             ++done, sims.size(), key_width,
                             sims[i].key.c_str(), wall, r.eventsFired);
            }
            results[i] = std::move(r);
        });
    return results;
}

void
banner(const char *artifact, const char *caption)
{
    std::printf("\n================================================"
                "=============================\n");
    std::printf("%s — %s\n", artifact, caption);
    std::printf("Hankins et al., \"Scaling and Characterizing Database "
                "Workloads\", MICRO 2003\n");
    std::printf("=================================================="
                "===========================\n\n");
}

void
printMetricByW(const core::StudyResult &study, const char *metric,
               const std::function<double(const core::RunResult &)> &get,
               int decimals)
{
    std::printf("%-14s", "warehouses");
    for (const auto &s : study.series)
        std::printf("  %8uP", s.processors);
    std::printf("\n");
    const std::size_t rows = study.series.front().points.size();
    for (std::size_t i = 0; i < rows; ++i) {
        std::printf("%-14u",
                    study.series.front().points[i].warehouses);
        for (const auto &s : study.series)
            std::printf("  %9.*f", decimals, get(s.points[i]));
        std::printf("\n");
    }
    std::printf("(metric: %s)\n", metric);
}

void
paperNote(const char *note)
{
    std::printf("\npaper: %s\n", note);
}

} // namespace odbsim::paper
