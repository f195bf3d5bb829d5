/**
 * @file
 * Input checks at the core API boundary: a run or study with zero
 * warehouses or a RunKnobs::dbShards that is not a power of two in
 * [1, db::maxShards] stops with a one-line fatal message (exit code 1)
 * on entry, instead of tripping an engine assert (abort) deep inside
 * the schema, buffer cache or lock manager.
 */

#include <gtest/gtest.h>

#include <cstdlib>
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
fastKnobs(unsigned shards = 1)
{
    RunKnobs k;
    k.warmup = ticksFromSeconds(0.02);
    k.measure = ticksFromSeconds(0.05);
    k.dbShards = shards;
    return k;
}

OltpConfiguration
point(unsigned warehouses)
{
    OltpConfiguration cfg;
    cfg.warehouses = warehouses;
    cfg.processors = 1;
    return cfg;
}

/**
 * A serial study over @p warehouses whose first finished point exits
 * with code 3: a study that dies with code 1 was stopped before any
 * point ran.
 */
StudyConfig
tripwireStudy(std::vector<unsigned> warehouses, unsigned shards = 1)
{
    StudyConfig cfg;
    cfg.warehouses = std::move(warehouses);
    cfg.processors = {1};
    cfg.knobs = fastKnobs(shards);
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

TEST(RunInputsDeathTest, RunRejectsBadShardCounts)
{
    for (const unsigned shards : {0u, 3u, 512u}) {
        SCOPED_TRACE(shards);
        EXPECT_EXIT(
            ExperimentRunner::run(point(10), fastKnobs(shards)),
            testing::ExitedWithCode(1),
            "fatal: RunKnobs::dbShards must be a power of two in "
            "\\[1, 256\\], got " +
                std::to_string(shards));
    }
}

TEST(RunInputsDeathTest, StudyRejectsZeroWarehousesBeforeAnyPoint)
{
    EXPECT_EXIT(ScalingStudy::run(tripwireStudy({10, 0})),
                testing::ExitedWithCode(1),
                "fatal: a run needs at least 1 warehouse, got 0");
}

TEST(RunInputsDeathTest, StudyRejectsBadShardCountBeforeAnyPoint)
{
    StudyConfig cfg = tripwireStudy({10}, 3);
    cfg.jobs = 2;
    EXPECT_EXIT(ScalingStudy::run(cfg), testing::ExitedWithCode(1),
                "fatal: RunKnobs::dbShards must be a power of two");
}

} // namespace
