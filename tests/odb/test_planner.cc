/**
 * @file
 * Tests for the transaction planners: trace structure, lock ordering,
 * log volumes, functional side effects.
 */

#include <gtest/gtest.h>

#include "../support/mini_odb.hh"
#include "odb/planner.hh"

namespace
{

using namespace odbsim;
using namespace odbsim::odb;
using db::Action;
using db::ActionKind;
using db::TxnType;

struct Rig
{
    os::System sys;
    db::Database db;
    TxnPlanner planner;
    Rng rng;

    Rig()
        : sys(test::miniSystemConfig(1)), db(sys, test::miniDbConfig(2)),
          planner(db, TxnMix{}), rng(123)
    {}
};

unsigned
countKind(const db::ActionTrace &t, ActionKind k)
{
    unsigned n = 0;
    for (const auto &a : t.actions)
        n += a.kind() == k;
    return n;
}

TEST(TxnPlanner, EveryTraceEndsWithCommit)
{
    Rig rig;
    for (unsigned i = 0; i < static_cast<unsigned>(TxnType::NumTypes);
         ++i) {
        const auto t =
            rig.planner.plan(static_cast<TxnType>(i), rig.rng, 0);
        ASSERT_FALSE(t.actions.empty());
        EXPECT_EQ(t.actions.back().kind(), ActionKind::Commit);
        EXPECT_EQ(countKind(t, ActionKind::Commit), 1u);
    }
}

TEST(TxnPlanner, NewOrderShape)
{
    Rig rig;
    const auto t = rig.planner.plan(TxnType::NewOrder, rig.rng, 0);
    // Locks: warehouse contention lock + district; one early unlock.
    EXPECT_EQ(countKind(t, ActionKind::Lock), 2u);
    EXPECT_EQ(countKind(t, ActionKind::Unlock), 1u);
    // 5..15 order lines, each with item+stock+insert touches.
    const unsigned touches = countKind(t, ActionKind::Touch);
    EXPECT_GE(touches, 30u);
    EXPECT_LE(touches, 160u);
    // Redo volume: 4000 + 450 per line.
    EXPECT_GE(t.logBytes, 4000u + 450u * 5);
    EXPECT_LE(t.logBytes, 4000u + 450u * 15);
}

TEST(TxnPlanner, NewOrderAdvancesOrderCounter)
{
    Rig rig;
    const auto before = rig.db.schema().nextOid(0, 0);
    // Plan enough NewOrders that district 0 is hit w.h.p.
    for (int i = 0; i < 40; ++i)
        rig.planner.plan(TxnType::NewOrder, rig.rng, 0);
    std::uint32_t total_after = 0, total_before = 0;
    for (std::uint32_t d = 0; d < 10; ++d) {
        total_after += rig.db.schema().nextOid(0, d);
        total_before += d == 0 ? before : 100;
    }
    EXPECT_EQ(total_after, total_before + 40);
}

TEST(TxnPlanner, PaymentLocksInGlobalOrder)
{
    Rig rig;
    const auto t = rig.planner.plan(TxnType::Payment, rig.rng, 1);
    std::vector<db::LockKey> locks;
    for (const auto &a : t.actions) {
        if (a.kind() == ActionKind::Lock)
            locks.push_back(a.target);
    }
    ASSERT_EQ(locks.size(), 3u); // Warehouse, district, customer.
    EXPECT_TRUE(std::is_sorted(locks.begin(), locks.end()));
    EXPECT_GT(t.logBytes, 0u);
}

TEST(TxnPlanner, ReadOnlyTransactionsHaveNoRedo)
{
    Rig rig;
    EXPECT_EQ(rig.planner.plan(TxnType::OrderStatus, rig.rng, 0).logBytes,
              0u);
    EXPECT_EQ(rig.planner.plan(TxnType::StockLevel, rig.rng, 0).logBytes,
              0u);
}

TEST(TxnPlanner, ReadOnlyTransactionsDoNotModify)
{
    Rig rig;
    for (const TxnType type : {TxnType::OrderStatus, TxnType::StockLevel}) {
        const auto t = rig.planner.plan(type, rig.rng, 0);
        for (const auto &a : t.actions) {
            if (a.kind() == ActionKind::Touch) {
                EXPECT_NE(a.touch(), db::TouchKind::HeapModify)
                    << toString(type);
            }
        }
        EXPECT_EQ(countKind(t, ActionKind::Lock), 0u);
    }
}

TEST(TxnPlanner, DeliveryConsumesPendingOrders)
{
    Rig rig;
    auto &schema = rig.db.schema();
    const auto t = rig.planner.plan(TxnType::Delivery, rig.rng, 0);
    EXPECT_GT(countKind(t, ActionKind::Touch), 20u);
    EXPECT_EQ(t.logBytes, 12000u);
    // Ten districts each advanced their delivery frontier.
    std::uint32_t frontier_sum = 0;
    for (std::uint32_t d = 0; d < 10; ++d)
        frontier_sum += *schema.popDeliveryOrder(0, d);
    EXPECT_EQ(frontier_sum, 71u * 10); // 70 consumed by the plan.
}

TEST(TxnPlanner, UndoWritesAreFreshTouches)
{
    Rig rig;
    const auto t = rig.planner.plan(TxnType::Payment, rig.rng, 0);
    unsigned fresh = 0;
    for (const auto &a : t.actions)
        fresh += a.kind() == ActionKind::Touch && a.fresh();
    EXPECT_GE(fresh, 3u); // Three undo records + history insert.
}

TEST(TxnPlanner, TouchOffsetsStayInBlock)
{
    Rig rig;
    for (int i = 0; i < 20; ++i) {
        const auto t = rig.planner.planRandom(rig.rng, 1);
        for (const auto &a : t.actions) {
            if (a.kind() != ActionKind::Touch)
                continue;
            EXPECT_LT(a.offset(), db::blockBytes);
            EXPECT_LE(static_cast<std::uint32_t>(a.offset()) + a.bytes(),
                      db::blockBytes + 512);
            EXPECT_LT(a.target, rig.db.schema().totalBlocks());
        }
    }
}

TEST(TxnPlanner, MixMatchesConfiguredShares)
{
    Rig rig;
    unsigned counts[db::numTxnTypes] = {};
    const int n = 4000;
    for (int i = 0; i < n; ++i) {
        const auto t = rig.planner.planRandom(rig.rng, 0);
        ++counts[static_cast<unsigned>(t.type)];
    }
    EXPECT_NEAR(counts[0] / double(n), 0.45, 0.03); // NewOrder.
    EXPECT_NEAR(counts[1] / double(n), 0.43, 0.03); // Payment.
    EXPECT_NEAR(counts[2] / double(n), 0.04, 0.02);
    EXPECT_NEAR(counts[3] / double(n), 0.04, 0.02);
    EXPECT_NEAR(counts[4] / double(n), 0.04, 0.02);
}

TEST(TxnPlanner, InvalidMixRejected)
{
    Rig rig;
    TxnMix bad;
    bad.newOrderPct = 50;
    bad.paymentPct = 50;
    bad.orderStatusPct = 50;
    bad.deliveryPct = 0;
    bad.stockLevelPct = 0;
    EXPECT_DEATH({ TxnPlanner p(rig.db, bad); }, "sum to 100");
}

TEST(TxnPlanner, UserInstructionsPerTxnInPaperBand)
{
    // The mix-average user-space path length should be around a
    // million instructions (paper Figure 5).
    Rig rig;
    double instr = 0.0;
    const int n = 500;
    for (int i = 0; i < n; ++i) {
        const auto t = rig.planner.planRandom(rig.rng, 0);
        for (const auto &a : t.actions) {
            if (a.kind() == ActionKind::Compute)
                instr += a.instr;
        }
    }
    const double per_txn = instr / n;
    EXPECT_GT(per_txn, 3e5);
    EXPECT_LT(per_txn, 3e6);
}

} // namespace
