#include "core/client_tuner.hh"

#include <algorithm>
#include <cmath>

namespace odbsim::core
{

TunedClients
ClientTuner::tune(OltpConfiguration cfg, double target_util,
                  unsigned max_clients, RunKnobs knobs)
{
    TunedClients out;
    // Start from one runnable process per CPU; grow until the target
    // utilization is met or adding clients stops helping (I/O bound).
    unsigned c =
        std::min(max_clients, std::max(2u, 2 * cfg.processors));
    double prev_util = 0.0;

    while (true) {
        cfg.clients = c;
        const RunResult r = ExperimentRunner::run(cfg, knobs);
        ++out.trials;
        out.eventsFired += r.eventsFired;
        out.clients = c;
        out.achievedUtil = r.cpuUtil;

        if (r.cpuUtil >= target_util)
            return out;
        if (c >= max_clients) {
            out.ioBound = true;
            return out;
        }
        if (out.trials > 2 && r.cpuUtil < prev_util + 0.005) {
            // More clients no longer raise utilization: the storage
            // subsystem is the bottleneck.
            out.ioBound = true;
            return out;
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
