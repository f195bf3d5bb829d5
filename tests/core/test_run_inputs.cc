/**
 * @file
 * Input checks at the core API boundary: a study with no warehouse
 * count or no processor count, a run or study with zero
 * warehouses, a processor count outside [1, maxProcessors], or a
 * sample period that is not a power of two leaving at least 2 sets in
 * every scaled L2 and L3 stops with a one-line fatal message (exit
 * code 1) on entry, instead of tripping an engine assert (abort) deep
 * inside the machine presets, memory hierarchy, schema or buffer
 * cache. So does a warm-up or measurement window that would otherwise
 * hang the run (a NaN per-warehouse warm-up), silently change it (a
 * negative one wraps the unsigned warm-up; one past a Tick overflows)
 * or measure nothing (a zero measure window, or one whose end wraps
 * past the last Tick). A topology the memory system cannot build (a
 * shared-L3 CMP on two sockets, more sockets than the directories'
 * sharer masks hold, a page shift outside [6, 30]) stops likewise, as
 * do an Island placement whose sockets per island do not divide the
 * socket count or that has more islands than warehouses.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "core/experiment.hh"
#include "core/machine.hh"
#include "core/scaling_study.hh"

namespace
{

using namespace odbsim;
using namespace odbsim::core;

RunKnobs
fastKnobs()
{
    RunKnobs k;
    k.warmup = ticksFromSeconds(0.02);
    k.measure = ticksFromSeconds(0.05);
    return k;
}

OltpConfiguration
point(unsigned warehouses, unsigned processors = 1)
{
    OltpConfiguration cfg;
    cfg.warehouses = warehouses;
    cfg.processors = processors;
    return cfg;
}

RunKnobs
sampledKnobs(std::uint32_t sample_period)
{
    RunKnobs k = fastKnobs();
    k.samplePeriod = sample_period;
    return k;
}

/**
 * A serial study over @p warehouses whose first finished point exits
 * with code 3: a study that dies with code 1 was stopped before any
 * point ran.
 */
StudyConfig
tripwireStudy(std::vector<unsigned> warehouses)
{
    StudyConfig cfg;
    cfg.warehouses = std::move(warehouses);
    cfg.processors = {1};
    cfg.knobs = fastKnobs();
    cfg.onPoint = [](const RunResult &) { std::_Exit(3); };
    return cfg;
}

TEST(RunInputsDeathTest, RunRejectsZeroWarehouses)
{
    EXPECT_EXIT(ExperimentRunner::run(point(0), fastKnobs()),
                testing::ExitedWithCode(1),
                "fatal: a run needs at least 1 warehouse, got 0");
}

TEST(RunInputsDeathTest, RunWithPresetRejectsZeroWarehouses)
{
    const MachinePreset preset =
        makeMachine(MachineKind::XeonQuadMp, 1, 16, 42);
    EXPECT_EXIT(ExperimentRunner::runWithPreset(preset, 0, 0, fastKnobs()),
                testing::ExitedWithCode(1),
                "fatal: a run needs at least 1 warehouse, got 0");
}

TEST(RunInputsDeathTest, StudyRejectsZeroWarehousesBeforeAnyPoint)
{
    EXPECT_EXIT(ScalingStudy::run(tripwireStudy({10, 0})),
                testing::ExitedWithCode(1),
                "fatal: a run needs at least 1 warehouse, got 0");
}

TEST(RunInputsDeathTest, StudyRejectsAnEmptyGrid)
{
    EXPECT_EXIT(ScalingStudy::run(tripwireStudy({})),
                testing::ExitedWithCode(1),
                "fatal: a study needs at least 1 warehouse count and 1 "
                "processor count, got 0 and 1");
    StudyConfig cfg = tripwireStudy({10});
    cfg.processors = {};
    EXPECT_EXIT(ScalingStudy::run(cfg), testing::ExitedWithCode(1),
                "fatal: a study needs at least 1 warehouse count and 1 "
                "processor count, got 1 and 0");
}

TEST(RunInputsDeathTest, RunRejectsBadProcessorCounts)
{
    for (const unsigned p : {0u, 9u}) {
        SCOPED_TRACE(p);
        EXPECT_EXIT(ExperimentRunner::run(point(10, p), fastKnobs()),
                    testing::ExitedWithCode(1),
                    "fatal: a run needs 1 to 8 processors, got " +
                        std::to_string(p));
    }
}

TEST(RunInputsDeathTest, RunRejectsSamplePeriodsThatAreNotPowersOfTwo)
{
    for (const std::uint32_t s : {0u, 3u}) {
        SCOPED_TRACE(s);
        EXPECT_EXIT(ExperimentRunner::run(point(10), sampledKnobs(s)),
                    testing::ExitedWithCode(1),
                    "fatal: the sample period must be a power of two, "
                    "got " + std::to_string(s));
    }
}

TEST(RunInputsDeathTest, RunRejectsSamplePeriodsThatLeaveTooFewSets)
{
    // Every preset's 256 KB 8-way L2 has 512 sets, so 256 is the
    // largest period that leaves 2.
    for (const std::uint32_t s : {512u, 1024u}) {
        SCOPED_TRACE(s);
        EXPECT_EXIT(ExperimentRunner::run(point(10), sampledKnobs(s)),
                    testing::ExitedWithCode(1),
                    "fatal: sample period " + std::to_string(s) +
                        " leaves [01] sets in the L2 of xeon-quad-mp; it "
                        "needs at least 2");
    }
}

TEST(RunInputsDeathTest, RunWithPresetRejectsTheSamplePeriodOfItsPreset)
{
    for (const std::uint32_t s : {3u, 512u}) {
        SCOPED_TRACE(s);
        const MachinePreset preset =
            makeMachine(MachineKind::XeonQuadMp, 1, s, 42);
        EXPECT_EXIT(
            ExperimentRunner::runWithPreset(preset, 10, 0, fastKnobs()),
            testing::ExitedWithCode(1), "fatal: .*sample period");
    }
}

TEST(RunInputsDeathTest, StudyRejectsBadProcessorCountBeforeAnyPoint)
{
    StudyConfig cfg = tripwireStudy({10});
    cfg.processors = {1, 16};
    cfg.jobs = 2;
    EXPECT_EXIT(ScalingStudy::run(cfg), testing::ExitedWithCode(1),
                "fatal: a run needs 1 to 8 processors, got 16");
}

TEST(RunInputsDeathTest, StudyRejectsBadSamplePeriodBeforeAnyPoint)
{
    StudyConfig cfg = tripwireStudy({10});
    cfg.knobs.samplePeriod = 1024;
    cfg.jobs = 2;
    EXPECT_EXIT(ScalingStudy::run(cfg), testing::ExitedWithCode(1),
                "fatal: sample period 1024 leaves 0 sets");
}

TEST(RunInputsDeathTest, RunRejectsAZeroMeasureWindow)
{
    RunKnobs k = fastKnobs();
    k.measure = 0;
    EXPECT_EXIT(ExperimentRunner::run(point(10), k),
                testing::ExitedWithCode(1),
                "fatal: RunKnobs::measure must be positive, got 0");
}

TEST(RunInputsDeathTest, RunRejectsNonFiniteOrNegativeWarmupPerWarehouse)
{
    const std::pair<double, const char *> cases[] = {
        {std::numeric_limits<double>::quiet_NaN(), "-?nan"},
        {std::numeric_limits<double>::infinity(), "inf"},
        {-1.0, "-1"},
    };
    for (const auto &[ms, shown] : cases) {
        SCOPED_TRACE(shown);
        RunKnobs k = fastKnobs();
        k.warmupPerWarehouseMs = ms;
        EXPECT_EXIT(ExperimentRunner::run(point(10), k),
                    testing::ExitedWithCode(1),
                    std::string("fatal: RunKnobs::warmupPerWarehouseMs "
                                "must be finite and at least 0, got ") +
                        shown);
    }
}

TEST(RunInputsDeathTest, RunRejectsAWarmupThatOverflowsATick)
{
    // 10 x 1e12 ms is past the cast's 2^64-tick range; 10 x 1 ms on
    // top of an almost-full warmup wraps the sum.
    RunKnobs past_cast = fastKnobs();
    past_cast.warmupPerWarehouseMs = 1e12;
    RunKnobs wraps = fastKnobs();
    wraps.warmupPerWarehouseMs = 1.0;
    wraps.warmup = std::numeric_limits<Tick>::max() - tickPerMs;
    for (const RunKnobs &k : {past_cast, wraps}) {
        EXPECT_EXIT(ExperimentRunner::run(point(10), k),
                    testing::ExitedWithCode(1),
                    "fatal: the warm-up of RunKnobs::warmup plus 10 x "
                    "warmupPerWarehouseMs = .* ms does not fit in a Tick");
    }
}

TEST(RunInputsDeathTest, RunWithPresetRejectsBadWindows)
{
    const MachinePreset preset =
        makeMachine(MachineKind::XeonQuadMp, 1, 16, 42);
    RunKnobs k = fastKnobs();
    k.warmupPerWarehouseMs = std::numeric_limits<double>::quiet_NaN();
    EXPECT_EXIT(ExperimentRunner::runWithPreset(preset, 10, 0, k),
                testing::ExitedWithCode(1),
                "fatal: RunKnobs::warmupPerWarehouseMs");
}

TEST(RunInputsDeathTest, StudyRejectsAZeroMeasureWindowBeforeAnyPoint)
{
    StudyConfig cfg = tripwireStudy({10});
    cfg.knobs.measure = 0;
    cfg.jobs = 2;
    EXPECT_EXIT(ScalingStudy::run(cfg), testing::ExitedWithCode(1),
                "fatal: RunKnobs::measure must be positive");
}

/**
 * Knobs whose measure window ends past the last Tick: 5 ms of warm-up
 * and a window 1 ms short of the whole Tick range. Unchecked, the end
 * tick wraps below the warm-up's end and the run measures nothing.
 */
RunKnobs
wrappingMeasureKnobs()
{
    RunKnobs k = fastKnobs();
    k.warmup = ticksFromMs(5.0);
    k.warmupPerWarehouseMs = 0.0;
    k.measure = std::numeric_limits<Tick>::max() - tickPerMs;
    return k;
}

const char *const measureOverflow =
    "fatal: RunKnobs::measure = [0-9]+ ticks does not fit in a Tick "
    "after the warm-up of [0-9]+ ticks";

TEST(RunInputsDeathTest, RunRejectsAMeasureWindowThatOverflowsATick)
{
    EXPECT_EXIT(ExperimentRunner::run(point(1), wrappingMeasureKnobs()),
                testing::ExitedWithCode(1), measureOverflow);
}

TEST(RunInputsDeathTest, RunWithPresetRejectsAMeasureWindowThatOverflows)
{
    const MachinePreset preset =
        makeMachine(MachineKind::XeonQuadMp, 1, 16, 42);
    EXPECT_EXIT(ExperimentRunner::runWithPreset(preset, 1, 0,
                                                wrappingMeasureKnobs()),
                testing::ExitedWithCode(1), measureOverflow);
}

TEST(RunInputsDeathTest, StudyRejectsAnOverflowingMeasureBeforeAnyPoint)
{
    StudyConfig cfg = tripwireStudy({1});
    cfg.knobs = wrappingMeasureKnobs();
    cfg.jobs = 2;
    EXPECT_EXIT(ScalingStudy::run(cfg), testing::ExitedWithCode(1),
                measureOverflow);
}

/** A topology the memory system cannot build, and its message. */
struct BadTopology
{
    MachineKind machine;
    unsigned sockets;
    unsigned pageShift;
    const char *message;
};

const BadTopology badTopologies[] = {
    {MachineKind::CmpQuad, 2, 12,
     "fatal: cmp-quad shares one on-die L3 and cannot span 2 sockets"},
    {MachineKind::XeonQuadMp, 64, 12,
     "fatal: a topology has at most 32 sockets, got 64"},
    {MachineKind::XeonQuadMp, 1, 3,
     "fatal: the topology page shift must be 6 to 30, got 3"},
};

OltpConfiguration
onTopology(const BadTopology &bad)
{
    OltpConfiguration cfg = point(10, 4);
    cfg.machine = bad.machine;
    cfg.topology.sockets = bad.sockets;
    cfg.topology.pageShift = bad.pageShift;
    return cfg;
}

TEST(RunInputsDeathTest, RunRejectsTopologiesTheMemorySystemCannotBuild)
{
    for (const BadTopology &bad : badTopologies) {
        SCOPED_TRACE(bad.message);
        EXPECT_EXIT(ExperimentRunner::run(onTopology(bad), fastKnobs()),
                    testing::ExitedWithCode(1), bad.message);
    }
}

TEST(RunInputsDeathTest, StudyRejectsABadTopologyBeforeAnyPoint)
{
    for (const BadTopology &bad : badTopologies) {
        SCOPED_TRACE(bad.message);
        StudyConfig cfg = tripwireStudy({10});
        cfg.machine = bad.machine;
        cfg.processors = {1, 4};
        cfg.topology.sockets = bad.sockets;
        cfg.topology.pageShift = bad.pageShift;
        cfg.jobs = 2;
        EXPECT_EXIT(ScalingStudy::run(cfg), testing::ExitedWithCode(1),
                    bad.message);
    }
}

/** An Island placement the workload cannot lay out, and its message. */
struct BadPlacement
{
    unsigned warehouses;
    unsigned processors;
    unsigned sockets;
    unsigned islandSockets;
    const char *message;
};

const BadPlacement badPlacements[] = {
    {10, 4, 4, 3,
     "fatal: an Island placement of 3 sockets per island does not "
     "divide the 4 sockets"},
    {1, 2, 2, 1,
     "fatal: an Island placement of 2 islands needs at least as many "
     "warehouses, got 1"},
};

OltpConfiguration
onIslands(const BadPlacement &bad)
{
    OltpConfiguration cfg = point(bad.warehouses, bad.processors);
    cfg.topology.sockets = bad.sockets;
    cfg.placement.policy = os::PlacementPolicy::Island;
    cfg.placement.islandSockets = bad.islandSockets;
    return cfg;
}

TEST(RunInputsDeathTest, RunRejectsIslandPlacementsTheWorkloadCannotLayOut)
{
    for (const BadPlacement &bad : badPlacements) {
        SCOPED_TRACE(bad.message);
        EXPECT_EXIT(ExperimentRunner::run(onIslands(bad), fastKnobs()),
                    testing::ExitedWithCode(1), bad.message);
    }
}

TEST(RunInputsDeathTest, RunWithPresetRejectsBadIslandPlacements)
{
    for (const BadPlacement &bad : badPlacements) {
        SCOPED_TRACE(bad.message);
        const OltpConfiguration cfg = onIslands(bad);
        MachinePreset preset =
            makeMachine(cfg.machine, cfg.processors, 16, 42);
        preset.sys.topology = cfg.topology;
        EXPECT_EXIT(ExperimentRunner::runWithPreset(
                        preset, cfg.warehouses, 0, fastKnobs(),
                        cfg.placement),
                    testing::ExitedWithCode(1), bad.message);
    }
}

TEST(RunInputsDeathTest, StudyRejectsABadIslandPlacementBeforeAnyPoint)
{
    for (const BadPlacement &bad : badPlacements) {
        SCOPED_TRACE(bad.message);
        // In the second case only the W=1 point, which a good one
        // precedes, is bad.
        StudyConfig cfg = tripwireStudy({10, bad.warehouses});
        cfg.processors = {bad.processors};
        cfg.topology.sockets = bad.sockets;
        cfg.placement = onIslands(bad).placement;
        cfg.jobs = 2;
        EXPECT_EXIT(ScalingStudy::run(cfg), testing::ExitedWithCode(1),
                    bad.message);
    }
}

} // namespace
