/**
 * @file
 * End-to-end topology contract tests: an S=1 run is bit-identical to
 * the legacy model no matter how the other topology/placement knobs
 * are set, multi-socket runs actually exercise the interconnect, and
 * island deployments stay bit-deterministic across study job counts.
 */

#include <gtest/gtest.h>

#include "core/experiment.hh"
#include "core/scaling_study.hh"

namespace
{

using namespace odbsim;
using namespace odbsim::core;

RunKnobs
quickKnobs()
{
    RunKnobs knobs;
    knobs.warmup = ticksFromSeconds(0.05);
    knobs.measure = ticksFromSeconds(0.2);
    return knobs;
}

void
expectBitIdentical(const RunResult &a, const RunResult &b)
{
    EXPECT_EQ(a.txnsCommitted, b.txnsCommitted);
    EXPECT_EQ(a.tps, b.tps);
    EXPECT_EQ(a.cpuUtil, b.cpuUtil);
    EXPECT_EQ(a.ipx, b.ipx);
    EXPECT_EQ(a.cpi, b.cpi);
    EXPECT_EQ(a.mpi, b.mpi);
    EXPECT_EQ(a.ctxPerTxn, b.ctxPerTxn);
    EXPECT_EQ(a.avgLatencyMs, b.avgLatencyMs);
    EXPECT_EQ(a.p95LatencyMs, b.p95LatencyMs);
    EXPECT_EQ(a.bufferHitRatio, b.bufferHitRatio);
    EXPECT_EQ(a.busUtil, b.busUtil);
    EXPECT_EQ(a.ioqCycles, b.ioqCycles);
    EXPECT_EQ(a.coherenceShareOfL3, b.coherenceShareOfL3);
    EXPECT_EQ(a.remoteMissShare, b.remoteMissShare);
    EXPECT_EQ(a.linkUtil, b.linkUtil);
}

TEST(Islands, SingleSocketRunIsBitIdenticalToLegacy)
{
    // The docs/TOPOLOGY.md S=1 contract, end to end: with one socket
    // and absurd interconnect knobs, a full run must be bit-identical
    // to the untouched default configuration.
    OltpConfiguration legacy;
    legacy.warehouses = 10;
    legacy.processors = 2;

    OltpConfiguration knobbed = legacy;
    knobbed.topology.sockets = 1;
    knobbed.topology.hopLatencyCycles = 1e6;
    knobbed.topology.linkOccupancyCycles = 1e6;

    const RunResult a = ExperimentRunner::run(legacy, quickKnobs());
    const RunResult b = ExperimentRunner::run(knobbed, quickKnobs());
    expectBitIdentical(a, b);
    EXPECT_EQ(a.remoteMissShare, 0.0);
    EXPECT_EQ(a.linkUtil, 0.0);
}

TEST(Islands, MultiSocketRunPaysRemoteMisses)
{
    OltpConfiguration cfg;
    cfg.warehouses = 10;
    cfg.processors = 2;
    cfg.topology.sockets = 2;
    const RunResult r = ExperimentRunner::run(cfg, quickKnobs());
    EXPECT_GT(r.remoteMissShare, 0.0);
    EXPECT_LT(r.remoteMissShare, 1.0);
    EXPECT_GT(r.linkUtil, 0.0);
    EXPECT_GT(r.tps, 0.0);
}

TEST(Islands, ShardedDeploymentIsDeterministicAcrossJobs)
{
    // An island sweep measured serially and on a 4-worker pool must
    // agree bit for bit — placement pinning and partitioned draws
    // derive from the per-run seed alone.
    StudyConfig cfg;
    cfg.warehouses = {10, 16};
    cfg.processors = {2};
    cfg.knobs = quickKnobs();
    cfg.topology.sockets = 2;
    cfg.placement.policy = os::PlacementPolicy::Island;
    cfg.placement.islandSockets = 1;

    StudyConfig serial = cfg;
    serial.jobs = 1;
    StudyConfig parallel = cfg;
    parallel.jobs = 4;

    const StudyResult a = ScalingStudy::run(serial);
    const StudyResult b = ScalingStudy::run(parallel);
    ASSERT_EQ(a.series.size(), 1u);
    ASSERT_EQ(b.series.size(), 1u);
    ASSERT_EQ(a.series[0].points.size(), b.series[0].points.size());
    for (std::size_t i = 0; i < a.series[0].points.size(); ++i) {
        SCOPED_TRACE("point " + std::to_string(i));
        expectBitIdentical(a.series[0].points[i],
                           b.series[0].points[i]);
    }
}

} // namespace
