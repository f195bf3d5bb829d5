/**
 * @file
 * Tests for repeated-measurement statistics (the paper's six-repeat
 * methodology).
 */

#include <gtest/gtest.h>

#include "core/repeat.hh"

namespace
{

using namespace odbsim;
using namespace odbsim::core;

RunKnobs
fastKnobs()
{
    RunKnobs k;
    k.warmup = ticksFromSeconds(0.08);
    k.measure = ticksFromSeconds(0.25);
    return k;
}

TEST(RepeatRun, ProducesRequestedRepeats)
{
    OltpConfiguration cfg;
    cfg.warehouses = 10;
    cfg.processors = 1;
    const RepeatedResult rep = repeatRun(cfg, fastKnobs(), 3);
    ASSERT_EQ(rep.runs.size(), 3u);
    EXPECT_EQ(rep.tps().n, 3u);
}

TEST(RepeatRun, SeedsDifferAcrossRepeats)
{
    OltpConfiguration cfg;
    cfg.warehouses = 10;
    cfg.processors = 1;
    const RepeatedResult rep = repeatRun(cfg, fastKnobs(), 3);
    // Different seeds perturb throughput at least slightly.
    EXPECT_GT(rep.tps().max, rep.tps().min);
}

TEST(RepeatRun, MeanWithinRunEnvelope)
{
    OltpConfiguration cfg;
    cfg.warehouses = 10;
    cfg.processors = 2;
    const RepeatedResult rep = repeatRun(cfg, fastKnobs(), 4);
    const MetricStats cpi = rep.cpi();
    EXPECT_GE(cpi.mean, cpi.min);
    EXPECT_LE(cpi.mean, cpi.max);
    EXPECT_GE(cpi.stddev, 0.0);
    // Simulation noise on CPI is small relative to the mean.
    EXPECT_LT(cpi.stddev, 0.15 * cpi.mean);
}

TEST(RepeatRun, Ci95ShrinksWithMoreRepeats)
{
    MetricStats few, many;
    few.stddev = many.stddev = 1.0;
    few.n = 3;
    many.n = 12;
    EXPECT_GT(few.ci95(), many.ci95());
}

TEST(RepeatRun, SingleRunHasNoInterval)
{
    MetricStats one;
    one.stddev = 1.0;
    one.n = 1;
    EXPECT_DOUBLE_EQ(one.ci95(), 0.0);
}

TEST(RepeatRun, CustomMetricExtractor)
{
    OltpConfiguration cfg;
    cfg.warehouses = 10;
    cfg.processors = 1;
    const RepeatedResult rep = repeatRun(cfg, fastKnobs(), 2);
    const MetricStats log_kb = rep.stats(
        [](const RunResult &r) { return r.logKbPerTxn; });
    EXPECT_GT(log_kb.mean, 3.0);
    EXPECT_LT(log_kb.mean, 10.0);
}

} // namespace
