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

#include "core/experiment.hh"

namespace odbsim::core
{

/**
 * Searches the client count for a utilization target.
 */
class ClientTuner
{
  public:
    /**
     * Run trials at a growing client count until one reaches
     * @p target_util, the count reaches @p max_clients, or, after the
     * third trial, utilization stops rising (I/O bound).
     *
     * @param cfg Configuration to tune (its clients field is ignored).
     * @param target_util Utilization goal (the paper's 0.90).
     * @param max_clients Search ceiling.
     * @param knobs Per-trial simulation knobs (short runs suffice).
     * @return The last trial: its clients are the tuned count, and its
     *         cpuUtil is below @p target_util exactly when the search
     *         stopped I/O bound. eventsFired and wallSeconds are summed
     *         over every trial.
     */
    static RunResult tune(OltpConfiguration cfg, double target_util = 0.90,
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
