/**
 * @file
 * Tests for the implicit B-tree: geometry, path determinism, extent
 * layout, hot-prefix property of internal levels, closed-form leaves.
 */

#include <gtest/gtest.h>

#include <set>

#include "db/btree.hh"
#include "sim/rng.hh"

namespace
{

using namespace odbsim;
using namespace odbsim::db;

TEST(ImplicitBTree, SingleLeafTree)
{
    ImplicitBTree t(100, 50, 300, 250);
    EXPECT_EQ(t.height(), 1u);
    EXPECT_EQ(t.blocksUsed(), 1u);
    const IndexPath p = t.lookup(49);
    EXPECT_EQ(p.height, 1u);
    EXPECT_EQ(p.node[0], 100u);
    EXPECT_EQ(p.leaf(), 100u);
    EXPECT_EQ(p.leafSlot, 49u);
}

TEST(ImplicitBTree, TwoLevelTree)
{
    // 1000 keys, 100 per leaf -> 10 leaves -> 1 root.
    ImplicitBTree t(0, 1000, 100, 250);
    EXPECT_EQ(t.height(), 2u);
    EXPECT_EQ(t.blocksUsed(), 11u);
    const IndexPath p = t.lookup(550);
    EXPECT_EQ(p.height, 2u);
    EXPECT_EQ(p.node[0], 0u);       // Root first (extent prefix).
    EXPECT_EQ(p.node[1], 1u + 5u);  // Sixth leaf.
    EXPECT_EQ(p.leafSlot, 50u);
}

TEST(ImplicitBTree, ThreeLevelTree)
{
    // 100000 keys, 100/leaf -> 1000 leaves, fanout 50 -> 20 -> 1.
    ImplicitBTree t(0, 100000, 100, 50);
    EXPECT_EQ(t.height(), 3u);
    EXPECT_EQ(t.levelNodes(0), 1000u);
    EXPECT_EQ(t.levelNodes(1), 20u);
    EXPECT_EQ(t.levelNodes(2), 1u);
    EXPECT_EQ(t.blocksUsed(), 1021u);
    // Root at extent start; level 1 follows; leaves last.
    EXPECT_EQ(t.levelBase(2), 0u);
    EXPECT_EQ(t.levelBase(1), 1u);
    EXPECT_EQ(t.levelBase(0), 21u);
}

TEST(ImplicitBTree, PathIsDeterministic)
{
    ImplicitBTree t(7, 100000, 100, 50);
    const IndexPath a = t.lookup(4242);
    const IndexPath b = t.lookup(4242);
    ASSERT_EQ(a.height, b.height);
    for (unsigned l = 0; l < a.height; ++l)
        EXPECT_EQ(a.node[l], b.node[l]);
    EXPECT_EQ(a.leafSlot, b.leafSlot);
}

TEST(ImplicitBTree, AdjacentKeysShareLeaf)
{
    ImplicitBTree t(0, 100000, 100, 50);
    EXPECT_EQ(t.lookup(100).leaf(), t.lookup(199).leaf());
    EXPECT_NE(t.lookup(199).leaf(), t.lookup(200).leaf());
}

TEST(ImplicitBTree, PathNodesDescendLevels)
{
    ImplicitBTree t(0, 100000, 100, 50);
    const IndexPath p = t.lookup(99999);
    // node[0] is root, node[height-1] the leaf; each lies in its
    // level's extent.
    EXPECT_EQ(p.node[0], t.levelBase(2));
    EXPECT_GE(p.node[1], t.levelBase(1));
    EXPECT_LT(p.node[1], t.levelBase(1) + t.levelNodes(1));
    EXPECT_GE(p.node[2], t.levelBase(0));
    EXPECT_LT(p.node[2], t.levelBase(0) + t.levelNodes(0));
}

TEST(ImplicitBTree, OutOfRangeKeyPanics)
{
    ImplicitBTree t(0, 100, 10, 10);
    EXPECT_DEATH({ t.lookup(100); }, "out of range");
    EXPECT_DEATH({ t.leafOf(100); }, "out of range");
}

/**
 * leafOf() agrees with lookup()'s leaf, and lookup()'s path holds, at
 * each level l, leaf index / fanout^l (the definition of an implicit
 * tree whose nodes each take fanout children). Heights 1 to 5, at the
 * first and last key, each leaf boundary and its neighbours, and
 * 10,000 seeded keys.
 */
TEST(ImplicitBTree, LeafOfMatchesLookup)
{
    struct Geometry
    {
        std::uint64_t capacity;
        std::uint32_t perLeaf;
        std::uint32_t fanout;
        unsigned height;
    };
    const Geometry geometries[] = {
        {50, 300, 250, 1},     {1000, 100, 250, 2}, {100000, 100, 50, 3},
        {24000000, 300, 250, 4}, {69993, 7, 10, 5}, {100, 2, 3, 5},
    };
    for (const Geometry &g : geometries) {
        SCOPED_TRACE(::testing::Message()
                     << g.capacity << " keys, " << g.perLeaf
                     << " per leaf, fanout " << g.fanout);
        const ImplicitBTree t(77, g.capacity, g.perLeaf, g.fanout);
        ASSERT_EQ(t.height(), g.height);
        const auto check = [&](std::uint64_t key) {
            const IndexPath p = t.lookup(key);
            ASSERT_EQ(t.leafOf(key), p.leaf()) << "key " << key;
            const std::uint64_t leaf = key / g.perLeaf;
            std::uint64_t per_node = 1;
            for (unsigned l = 0; l < t.height(); ++l) {
                ASSERT_EQ(p.node[t.height() - 1 - l],
                          t.levelBase(l) + leaf / per_node)
                    << "key " << key << ", level " << l;
                per_node *= g.fanout;
            }
        };
        ASSERT_NO_FATAL_FAILURE(check(0));
        ASSERT_NO_FATAL_FAILURE(check(g.capacity - 1));
        for (std::uint64_t k = g.perLeaf; k < g.capacity; k += g.perLeaf) {
            ASSERT_NO_FATAL_FAILURE(check(k - 1));
            ASSERT_NO_FATAL_FAILURE(check(k));
            if (k + 1 < g.capacity) {
                ASSERT_NO_FATAL_FAILURE(check(k + 1));
            }
        }
        Rng rng(g.capacity * 31 + g.fanout);
        for (int i = 0; i < 10'000; ++i)
            ASSERT_NO_FATAL_FAILURE(check(rng.below(g.capacity)));
    }
}

/**
 * Property: across geometries, every key maps to a valid path whose
 * leaf extent covers all leaves, and sequential key ranges partition
 * cleanly into leaves.
 */
class BTreeGeomProperty
    : public ::testing::TestWithParam<
          std::tuple<std::uint64_t, std::uint32_t, std::uint32_t>>
{
};

TEST_P(BTreeGeomProperty, AllKeysResolveAndCoverLeaves)
{
    const auto [cap, per_leaf, fanout] = GetParam();
    ImplicitBTree t(1000, cap, per_leaf, fanout);
    std::set<BlockId> leaves;
    const std::uint64_t step = std::max<std::uint64_t>(1, cap / 997);
    for (std::uint64_t k = 0; k < cap; k += step) {
        const IndexPath p = t.lookup(k);
        ASSERT_GE(p.height, 1u);
        ASSERT_LE(p.height, maxBtreeHeight);
        ASSERT_EQ(p.node[0], t.levelBase(t.height() - 1));
        ASSERT_LT(p.leafSlot, per_leaf);
        leaves.insert(p.leaf());
        // Every node lies inside the extent.
        for (unsigned l = 0; l < p.height; ++l) {
            ASSERT_GE(p.node[l], 1000u);
            ASSERT_LT(p.node[l], 1000u + t.blocksUsed());
        }
    }
    // Sampled keys must reach a large share of the leaf level.
    EXPECT_GE(leaves.size(),
              std::min<std::uint64_t>(t.levelNodes(0), 997) / 2);
}

TEST_P(BTreeGeomProperty, LevelNodeCountsShrinkByFanout)
{
    const auto [cap, per_leaf, fanout] = GetParam();
    ImplicitBTree t(0, cap, per_leaf, fanout);
    for (unsigned l = 1; l < t.height(); ++l) {
        const std::uint64_t expected =
            (t.levelNodes(l - 1) + fanout - 1) / fanout;
        EXPECT_EQ(t.levelNodes(l), expected);
    }
    EXPECT_EQ(t.levelNodes(t.height() - 1), 1u);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, BTreeGeomProperty,
    ::testing::Values(std::make_tuple(1ull, 300u, 250u),
                      std::make_tuple(299ull, 300u, 250u),
                      std::make_tuple(30000ull, 300u, 250u),
                      std::make_tuple(1000000ull, 400u, 250u),
                      std::make_tuple(24000000ull, 300u, 250u),
                      std::make_tuple(12345ull, 70u, 30u)));

} // namespace
