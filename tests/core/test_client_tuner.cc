/**
 * @file
 * Tests for the client auto-tuner (the Table 1 methodology).
 */

#include <gtest/gtest.h>

#include "core/client_tuner.hh"

namespace
{

using namespace odbsim;
using namespace odbsim::core;

RunKnobs
trialKnobs()
{
    RunKnobs k;
    k.warmup = ticksFromSeconds(0.08);
    k.measure = ticksFromSeconds(0.25);
    return k;
}

TEST(ClientTuner, ReachesTargetOnCachedSetup)
{
    OltpConfiguration cfg;
    cfg.warehouses = 10;
    cfg.processors = 1;
    const RunResult t = ClientTuner::tune(cfg, 0.90, 64, trialKnobs());
    EXPECT_GE(t.cpuUtil, 0.90);
    // Paper found 8 clients at (10 W, 1P); small machines saturate
    // with a handful of clients.
    EXPECT_LE(t.clients, 16u);
}

TEST(ClientTuner, MoreProcessorsNeedMoreClients)
{
    OltpConfiguration one, four;
    one.warehouses = 10;
    one.processors = 1;
    four.warehouses = 10;
    four.processors = 4;
    const RunResult t1 = ClientTuner::tune(one, 0.90, 64, trialKnobs());
    const RunResult t4 = ClientTuner::tune(four, 0.90, 64, trialKnobs());
    EXPECT_GE(t4.clients, t1.clients);
}

TEST(ClientTuner, CeilingMarksIoBound)
{
    OltpConfiguration cfg;
    cfg.warehouses = 100;
    cfg.processors = 4;
    // The ceiling of 4 caps 4P's first trial (2 clients per CPU) and
    // ends the search there.
    const RunResult t = ClientTuner::tune(cfg, 0.90, 4, trialKnobs());
    EXPECT_EQ(t.clients, 4u);
}

TEST(ClientTuner, TrivialTargetSatisfiedImmediately)
{
    OltpConfiguration cfg;
    cfg.warehouses = 10;
    cfg.processors = 1;
    const RunResult t = ClientTuner::tune(cfg, 0.10, 64, trialKnobs());
    // The first trial's count on 1P.
    EXPECT_EQ(t.clients, 2u);
    EXPECT_GE(t.cpuUtil, 0.10);
}

} // namespace
