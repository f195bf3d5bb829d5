#include "core/client_tuner.hh"

#include <algorithm>
#include <cmath>
#include <cstdint>

namespace odbsim::core
{

RunResult
ClientTuner::tune(OltpConfiguration cfg, double target_util,
                  unsigned max_clients, RunKnobs knobs)
{
    // Start from one runnable process per CPU; grow until the target
    // utilization is met or adding clients stops helping (I/O bound).
    unsigned c =
        std::min(max_clients, std::max(2u, 2 * cfg.processors));
    double prev_util = 0.0;
    std::uint64_t events = 0;
    double wall = 0.0;

    for (unsigned trials = 1;; ++trials) {
        cfg.clients = c;
        RunResult r = ExperimentRunner::run(cfg, knobs);
        events += r.eventsFired;
        wall += r.wallSeconds;

        // More clients no longer raising utilization means the storage
        // subsystem is the bottleneck.
        if (r.cpuUtil >= target_util || c >= max_clients ||
            (trials > 2 && r.cpuUtil < prev_util + 0.005)) {
            r.eventsFired = events;
            r.wallSeconds = wall;
            return r;
        }
        prev_util = r.cpuUtil;

        // Grow proportionally to the utilization shortfall, at least
        // by 2 clients.
        const double factor =
            std::min(2.0, std::max(1.15, target_util / r.cpuUtil));
        const unsigned next = static_cast<unsigned>(
            std::ceil(static_cast<double>(c) * factor));
        c = std::min(max_clients, std::max(next, c + 2));
    }
}

} // namespace odbsim::core
