/**
 * @file
 * Tests for the paper's plan: which simulations each artifact needs,
 * and that the plan holds each distinct one once. Planning runs no
 * simulation, so these are cheap.
 */

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <vector>

#include "paper.hh"

namespace
{

using namespace odbsim;
using namespace odbsim::paper;

/** Plan the artifacts called @p names into @p plan. */
void
planAll(Plan &plan, const std::vector<std::string> &names)
{
    for (const std::string &name : names) {
        bool found = false;
        for (const Artifact &a : artifacts()) {
            if (name == a.name) {
                a.plan(plan);
                found = true;
            }
        }
        ASSERT_TRUE(found) << name;
    }
}

std::vector<std::string>
allNames()
{
    std::vector<std::string> names;
    for (const Artifact &a : artifacts())
        names.push_back(a.name);
    return names;
}

TEST(PaperPlan, ListsTwentySevenArtifactsInPaperOrder)
{
    const std::vector<std::string> names = allNames();
    ASSERT_EQ(names.size(), 27u);
    EXPECT_EQ(names.front(), "table1_clients");
    EXPECT_EQ(names[1], "fig02_tps");
    EXPECT_EQ(names[18], "table5_pivots");
    EXPECT_EQ(names[19], "fig19_itanium2");
    EXPECT_EQ(names.back(), "faults");
    EXPECT_EQ(std::set<std::string>(names.begin(), names.end()).size(),
              names.size());
}

TEST(PaperPlan, XeonStudyArtifactsShareOneStudy)
{
    // Figures 2-18 and Table 5 read the Xeon study; Figure 2 adds its
    // 1200 W point.
    std::vector<std::string> names;
    for (const std::string &n : allNames()) {
        if (n.rfind("fig", 0) == 0 && n != "fig19_itanium2")
            names.push_back(n);
    }
    names.push_back("table5_pivots");
    ASSERT_EQ(names.size(), 18u);
    Plan plan;
    planAll(plan, names);
    EXPECT_EQ(plan.simulations().size(), 37u);
    ASSERT_EQ(plan.studies().size(), 1u);
    EXPECT_EQ(plan.studies()[0].cfg.machine, core::MachineKind::XeonQuadMp);
    EXPECT_EQ(plan.studies()[0].points.size(), 36u);
}

TEST(PaperPlan, Fig19PlansBothStudies)
{
    Plan plan;
    planAll(plan, {"fig19_itanium2"});
    EXPECT_EQ(plan.simulations().size(), 72u);
    ASSERT_EQ(plan.studies().size(), 2u);
    EXPECT_EQ(plan.studies()[0].cfg.machine,
              core::MachineKind::Itanium2Quad);
    EXPECT_EQ(plan.studies()[1].cfg.machine, core::MachineKind::XeonQuadMp);
}

TEST(PaperPlan, WholePaperPlansEachDistinctSimulationOnce)
{
    // 72 study points, 15 tuner cells, 44 ablation runs, Figure 2's
    // 1200 W point, 12 islands points and 9 faults points.
    Plan plan;
    planAll(plan, allNames());
    EXPECT_EQ(plan.simulations().size(), 153u);
    std::set<std::string> keys;
    for (const Simulation &s : plan.simulations()) {
        EXPECT_TRUE(keys.insert(s.key).second) << s.key;
        EXPECT_GT(s.warehouses * s.processors, 0u) << s.key;
    }
    EXPECT_EQ(plan.studies().size(), 2u);
}

TEST(PaperPlan, PlanningAnArtifactTwiceAddsNothing)
{
    Plan plan;
    planAll(plan, {"table1_clients", "ablation_cmp"});
    EXPECT_EQ(plan.simulations().size(), 21u);
    planAll(plan, {"ablation_cmp", "table1_clients"});
    EXPECT_EQ(plan.simulations().size(), 21u);
}

TEST(PaperPlan, AblationCmpPlansThreeSeedsPerMachine)
{
    // Each seed of each machine is its own simulation, keyed
    // "ablation_cmp <machine> W=200 seed=<seed>".
    Plan plan;
    planAll(plan, {"ablation_cmp"});
    ASSERT_EQ(plan.simulations().size(), 6u);
    std::map<std::string, std::set<std::string>> seeds;
    for (const Simulation &s : plan.simulations()) {
        const std::size_t at = s.key.find(" seed=");
        ASSERT_NE(at, std::string::npos) << s.key;
        seeds[s.key.substr(0, at)].insert(s.key.substr(at + 6));
    }
    ASSERT_EQ(seeds.size(), 2u);
    for (const auto &[machine, distinct] : seeds)
        EXPECT_EQ(distinct.size(), 3u) << machine;
    EXPECT_EQ(seeds.begin()->second, seeds.rbegin()->second);
}

TEST(PaperPlan, StudyPointsFollowTheStudyGrid)
{
    Plan plan;
    const StudyHandle h = plan.study(core::MachineKind::XeonQuadMp);
    const std::vector<core::OltpConfiguration> grid =
        core::ScalingStudy::grid(h.cfg);
    ASSERT_EQ(h.points.size(), grid.size());
    for (std::size_t g = 0; g < grid.size(); ++g) {
        const Simulation &s = plan.simulations()[h.points[g]];
        EXPECT_EQ(s.warehouses, grid[g].warehouses);
        EXPECT_EQ(s.processors, grid[g].processors);
    }
}

} // namespace
