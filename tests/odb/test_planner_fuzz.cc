/**
 * @file
 * Fuzz-style property tests over the planners: for thousands of random
 * transactions across seeds and warehouse counts, every generated
 * trace must satisfy the replay engine's structural invariants.
 */

#include <gtest/gtest.h>

#include <map>

#include "../support/mini_odb.hh"
#include "odb/planner.hh"

namespace
{

using namespace odbsim;
using namespace odbsim::odb;
using db::Action;
using db::ActionKind;

class PlannerFuzz
    : public ::testing::TestWithParam<std::tuple<unsigned, int>>
{
  protected:
    void
    SetUp() override
    {
        const auto [warehouses, seed] = GetParam();
        sys_ = std::make_unique<os::System>(test::miniSystemConfig(1));
        db_ = std::make_unique<db::Database>(
            *sys_, test::miniDbConfig(warehouses));
        planner_ = std::make_unique<TxnPlanner>(*db_, TxnMix{});
        rng_ = std::make_unique<Rng>(seed);
    }

    std::unique_ptr<os::System> sys_;
    std::unique_ptr<db::Database> db_;
    std::unique_ptr<TxnPlanner> planner_;
    std::unique_ptr<Rng> rng_;
};

TEST_P(PlannerFuzz, TracesSatisfyReplayInvariants)
{
    const unsigned warehouses = std::get<0>(GetParam());
    for (int i = 0; i < 800; ++i) {
        const std::uint32_t w =
            static_cast<std::uint32_t>(rng_->below(warehouses));
        const db::ActionTrace t = planner_->planRandom(*rng_, w);

        ASSERT_FALSE(t.actions.empty());
        // Exactly one commit, and it is last.
        EXPECT_EQ(t.actions.back().kind(), ActionKind::Commit);

        std::map<db::LockKey, int> held;
        db::LockKey last_lock = 0;
        bool saw_unlock = false;
        for (std::size_t a = 0; a < t.actions.size(); ++a) {
            const Action &act = t.actions[a];
            switch (act.kind()) {
              case ActionKind::Lock:
                // Locks are acquired in nondecreasing global order
                // (the deadlock-freedom invariant) until the first
                // early release.
                if (!saw_unlock) {
                    EXPECT_GE(act.target, last_lock);
                }
                last_lock = act.target;
                ++held[act.target];
                EXPECT_LE(held[act.target], 1) << "double lock";
                break;
              case ActionKind::Unlock:
                saw_unlock = true;
                ASSERT_EQ(held[act.target], 1) << "unlock not held";
                --held[act.target];
                break;
              case ActionKind::Touch:
                EXPECT_LT(act.target, db_->schema().totalBlocks());
                EXPECT_LT(act.offset(), db::blockBytes);
                EXPECT_GT(act.bytes(), 0u);
                break;
              case ActionKind::Compute:
                EXPECT_LE(act.instr, 1000000u);
                break;
              case ActionKind::Commit:
                EXPECT_EQ(a, t.actions.size() - 1);
                break;
            }
        }
        // Read-only transactions carry no redo.
        if (t.type == db::TxnType::OrderStatus ||
            t.type == db::TxnType::StockLevel) {
            EXPECT_EQ(t.logBytes, 0u);
        }
        EXPECT_LE(t.logBytes, 32768u);
        // Everything not early-released is released at commit; the
        // held map may contain entries with count 1 (commit-released).
        for (const auto &[key, n] : held)
            EXPECT_GE(n, 0);
    }
}

TEST_P(PlannerFuzz, OrderCountersNeverRegress)
{
    const unsigned warehouses = std::get<0>(GetParam());
    std::vector<std::uint32_t> before;
    for (unsigned w = 0; w < warehouses; ++w) {
        for (std::uint32_t d = 0; d < 10; ++d)
            before.push_back(db_->schema().nextOid(w, d));
    }
    for (int i = 0; i < 500; ++i) {
        planner_->planRandom(
            *rng_,
            static_cast<std::uint32_t>(rng_->below(warehouses)));
    }
    std::size_t idx = 0;
    for (unsigned w = 0; w < warehouses; ++w) {
        for (std::uint32_t d = 0; d < 10; ++d)
            EXPECT_GE(db_->schema().nextOid(w, d), before[idx++]);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, PlannerFuzz,
    ::testing::Combine(::testing::Values(1u, 2u, 8u),
                       ::testing::Values(11, 22, 33)));

} // namespace
