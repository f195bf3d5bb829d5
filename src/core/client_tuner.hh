/**
 * @file
 * ClientTuner: reproduce how the paper's Table 1 was obtained — find
 * the smallest client population that keeps CPU utilization above the
 * target (90%) at a given (W, P), or detect that the configuration is
 * I/O bound and cannot reach it (their 1200 W case, which peaked at
 * 63% on 4P).
 */

#ifndef ODBSIM_CORE_CLIENT_TUNER_HH
#define ODBSIM_CORE_CLIENT_TUNER_HH

#include <cstdint>

#include "core/experiment.hh"

namespace odbsim::core
{

/** Tuning outcome for one configuration. */
struct TunedClients
{
    unsigned clients = 0;
    double achievedUtil = 0.0;
    /** Utilization stopped improving before the target was met. */
    bool ioBound = false;
    unsigned trials = 0;
    /** Simulation events fired over all trials (host-side profiling). */
    std::uint64_t eventsFired = 0;
};

/**
 * Searches the client count for a utilization target.
 */
class ClientTuner
{
  public:
    /**
     * @param cfg Configuration to tune (its clients field is ignored).
     * @param target_util Utilization goal (the paper's 0.90).
     * @param max_clients Search ceiling.
     * @param knobs Per-trial simulation knobs (short runs suffice).
     */
    static TunedClients tune(OltpConfiguration cfg,
                             double target_util = 0.90,
                             unsigned max_clients = 128,
                             RunKnobs knobs = shortKnobs());

    /** Abbreviated knobs for tuning trials. */
    static RunKnobs
    shortKnobs()
    {
        RunKnobs k;
        k.warmup = ticksFromSeconds(0.25);
        k.measure = ticksFromSeconds(0.6);
        return k;
    }
};

} // namespace odbsim::core

#endif // ODBSIM_CORE_CLIENT_TUNER_HH
