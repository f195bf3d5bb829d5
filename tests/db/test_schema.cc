/**
 * @file
 * Tests for the schema: extent disjointness, row addressing, order
 * allocation, delivery queue, deterministic derivations, warm
 * enumeration.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <span>
#include <unordered_set>
#include <vector>

#include "db/schema.hh"

namespace
{

using namespace odbsim;
using namespace odbsim::db;

SchemaConfig
tinyCfg(unsigned w = 2)
{
    SchemaConfig cfg;
    cfg.warehouses = w;
    cfg.customersPerDistrict = 300;
    cfg.itemCount = 2000;
    cfg.stockPerWarehouse = 2000;
    cfg.initialOrdersPerDistrict = 100;
    cfg.ordersPerDistrictCap = 300;
    cfg.olPerDistrictCap = 3000;
    cfg.newOrderCap = 200;
    cfg.historyCap = 1800;
    cfg.undoBlocks = 64;
    return cfg;
}

TEST(Schema, RowsStayInsideTheirBlocks)
{
    Schema s(tinyCfg());
    for (const RowLoc loc :
         {s.warehouseRow(1), s.districtRow(1, 9), s.customerRow(1, 9, 299),
          s.itemRow(1999), s.stockRow(1, 1999), s.orderRow(1, 9, 299),
          s.orderLineRow(1, 9, 2999), s.newOrderRow(1, 9, 199),
          s.historyRow(1, 1799)}) {
        EXPECT_LT(loc.block, s.totalBlocks());
        EXPECT_LT((loc.slot + 1) * static_cast<std::uint64_t>(loc.rowBytes),
                  blockBytes + 1);
    }
}

TEST(Schema, DistinctRowsDistinctLocations)
{
    Schema s(tinyCfg());
    std::set<std::pair<BlockId, std::uint32_t>> seen;
    for (std::uint32_t c = 0; c < 300; ++c) {
        const RowLoc loc = s.customerRow(0, 0, c);
        EXPECT_TRUE(seen.insert({loc.block, loc.slot}).second);
    }
}

TEST(Schema, TableExtentsDisjoint)
{
    Schema s(tinyCfg());
    // Sample one block from each table and the indexes; all distinct.
    std::set<BlockId> blocks = {
        s.warehouseRow(0).block,
        s.districtRow(0, 0).block,
        s.customerRow(0, 0, 0).block,
        s.itemRow(0).block,
        s.stockRow(0, 0).block,
        s.orderRow(0, 0, 0).block,
        s.orderLineRow(0, 0, 0).block,
        s.newOrderRow(0, 0, 0).block,
        s.historyRow(0, 0).block,
        s.customerIndex().lookup(0).leaf(),
        s.customerNameIndex().lookup(0).leaf(),
        s.itemIndex().lookup(0).leaf(),
        s.stockIndex().lookup(0).leaf(),
        s.ordersIndex().lookup(0).leaf(),
        s.newOrderIndex().lookup(0).leaf(),
        s.undoBlockAt(0),
    };
    EXPECT_EQ(blocks.size(), 16u);
    for (const BlockId b : blocks)
        EXPECT_LT(b, s.totalBlocks());
}

TEST(Schema, DistrictsOfAWarehouseShareOneBlock)
{
    Schema s(tinyCfg());
    const BlockId b0 = s.districtRow(1, 0).block;
    for (std::uint32_t d = 1; d < 10; ++d)
        EXPECT_EQ(s.districtRow(1, d).block, b0);
    EXPECT_NE(s.districtRow(0, 0).block, b0);
}

TEST(Schema, AllocateOrderAdvancesCounters)
{
    Schema s(tinyCfg());
    const std::uint32_t o0 = s.nextOid(0, 0);
    EXPECT_EQ(o0, 100u);
    const std::uint32_t oid = s.allocateOrder(0, 0, 42, 7);
    EXPECT_EQ(oid, o0);
    EXPECT_EQ(s.nextOid(0, 0), o0 + 1);
    const OrderInfo info = s.orderInfo(0, 0, oid);
    EXPECT_EQ(info.customer, 42u);
    EXPECT_EQ(info.olCnt, 7u);
    EXPECT_EQ(info.olSeqStart, 1000u); // 100 initial orders x 10 lines.
}

TEST(Schema, ConsecutiveOrdersGetConsecutiveLineRanges)
{
    Schema s(tinyCfg());
    const std::uint32_t a = s.allocateOrder(0, 1, 1, 5);
    const std::uint32_t b = s.allocateOrder(0, 1, 2, 9);
    EXPECT_EQ(s.orderInfo(0, 1, b).olSeqStart,
              s.orderInfo(0, 1, a).olSeqStart + 5);
}

TEST(Schema, PreloadedOrderInfoIsDeterministic)
{
    Schema s(tinyCfg());
    const OrderInfo a = s.orderInfo(1, 3, 50);
    const OrderInfo b = s.orderInfo(1, 3, 50);
    EXPECT_EQ(a.customer, b.customer);
    EXPECT_EQ(a.olCnt, b.olCnt);
    EXPECT_EQ(a.olSeqStart, 500u);
    EXPECT_GE(a.olCnt, 5u);
    EXPECT_LE(a.olCnt, 15u);
}

TEST(Schema, DeliveryQueueDrainsOldestFirst)
{
    Schema s(tinyCfg());
    // 100 initial orders, 70% delivered: 70..99 are pending.
    const auto first = s.popDeliveryOrder(0, 0);
    ASSERT_TRUE(first.has_value());
    EXPECT_EQ(*first, 70u);
    EXPECT_EQ(*s.popDeliveryOrder(0, 0), 71u);
    // Drain the remaining 28 and verify exhaustion.
    for (int i = 0; i < 28; ++i)
        EXPECT_TRUE(s.popDeliveryOrder(0, 0).has_value());
    EXPECT_FALSE(s.popDeliveryOrder(0, 0).has_value());
    // A new order replenishes the queue.
    s.allocateOrder(0, 0, 1, 5);
    EXPECT_TRUE(s.popDeliveryOrder(0, 0).has_value());
}

TEST(Schema, UndoCursorWrapsRing)
{
    Schema s(tinyCfg());
    const BlockId first = s.undoBlockAt(s.allocateUndo(100));
    std::uint64_t cur = 0;
    for (int i = 0; i < 10000; ++i)
        cur = s.allocateUndo(100);
    const BlockId later = s.undoBlockAt(cur);
    EXPECT_NE(first, later);
    // The ring wraps within its extent.
    EXPECT_LT(later, s.totalBlocks());
    const BlockId wrapped = s.undoBlockAt(
        static_cast<std::uint64_t>(tinyCfg().undoBlocks) * blockBytes);
    EXPECT_EQ(wrapped, s.undoBlockAt(0));
}

TEST(Schema, StockAdjustRestocksBelowTen)
{
    Schema s(tinyCfg());
    // Drive quantity down until the restock rule triggers.
    std::int32_t q = s.adjustStock(0, 5, 0);
    for (int i = 0; i < 50; ++i) {
        const std::int32_t prev = q;
        q = s.adjustStock(0, 5, -10);
        if (prev - 10 < 10) {
            EXPECT_EQ(q, prev - 10 + 91);
            return;
        }
        EXPECT_EQ(q, prev - 10);
    }
    FAIL() << "restock rule never triggered";
}

TEST(Schema, BalancesAccumulate)
{
    Schema s(tinyCfg());
    const double b1 = s.adjustCustomerBalance(0, 0, 1, -50.0);
    EXPECT_DOUBLE_EQ(b1, -60.0); // Initial balance -10.
    EXPECT_DOUBLE_EQ(s.adjustCustomerBalance(0, 0, 1, 10.0), -50.0);
    EXPECT_GT(s.addWarehouseYtd(0, 100.0), 100.0);
    EXPECT_GT(s.addDistrictYtd(0, 0, 100.0), 100.0);
}

TEST(Schema, HistoryRingAdvances)
{
    Schema s(tinyCfg());
    const std::uint32_t a = s.allocateHistory(1);
    const std::uint32_t b = s.allocateHistory(1);
    EXPECT_EQ(b, a + 1);
    EXPECT_EQ(s.allocateHistory(0), 0u); // Per-warehouse counters.
}

TEST(Schema, WarmEnumerationUniqueInPrefixAndBounded)
{
    Schema s(tinyCfg());
    std::vector<BlockId> order;
    std::unordered_set<BlockId> seen;
    s.enumerateWarm([&](std::span<const BlockId> chunk) {
        for (const BlockId b : chunk) {
            EXPECT_LT(b, s.totalBlocks());
            if (seen.insert(b).second)
                order.push_back(b);
            if (order.size() == 500)
                return false;
        }
        return true;
    });
    ASSERT_GE(order.size(), 100u);
    // The hottest prefix must contain the index roots and the
    // district blocks.
    std::unordered_set<BlockId> prefix(order.begin(), order.begin() + 100);
    EXPECT_TRUE(prefix.count(
        s.customerIndex().lookup(0).node[0])); // Root.
    EXPECT_TRUE(seen.count(s.districtRow(0, 0).block));
}

TEST(Schema, WarmEnumerationStopsAfterTheSinkSaysSo)
{
    // The whole stream, a chunk at a time: every chunk but the last is
    // full.
    Schema s(tinyCfg());
    std::vector<BlockId> all;
    std::vector<std::size_t> sizes;
    s.enumerateWarm([&](std::span<const BlockId> chunk) {
        all.insert(all.end(), chunk.begin(), chunk.end());
        sizes.push_back(chunk.size());
        return true;
    });
    ASSERT_GE(sizes.size(), 4u);
    for (std::size_t i = 0; i + 1 < sizes.size(); ++i)
        EXPECT_EQ(sizes[i], Schema::warmChunk) << "chunk " << i;
    EXPECT_GE(sizes.back(), 1u);
    EXPECT_LE(sizes.back(), Schema::warmChunk);

    // A sink that stops partway through its third chunk gets no
    // later chunk, and the chunks it got are the stream's prefix.
    std::vector<BlockId> got;
    std::size_t calls = 0;
    s.enumerateWarm([&](std::span<const BlockId> chunk) {
        ++calls;
        for (std::size_t i = 0; i < chunk.size(); ++i) {
            got.push_back(chunk[i]);
            if (calls == 3 && i == chunk.size() / 2)
                return false;
        }
        return true;
    });
    EXPECT_EQ(calls, 3u);
    ASSERT_EQ(got.size(), 2 * Schema::warmChunk + Schema::warmChunk / 2 + 1);
    EXPECT_TRUE(std::equal(got.begin(), got.end(), all.begin()));
}

/** Length and 64-bit fold of a warm stream's first @p limit blocks. */
struct WarmDigest
{
    std::uint64_t length = 0;
    std::uint64_t fold = 0xcbf29ce484222325ULL;
};

WarmDigest
warmDigest(const Schema &s, std::uint64_t limit)
{
    WarmDigest d;
    s.enumerateWarm([&](std::span<const BlockId> chunk) {
        for (const BlockId b : chunk) {
            d.fold = (d.fold ^ b) * 0x100000001b3ULL;
            if (++d.length == limit)
                return false;
        }
        return true;
    });
    return d;
}

TEST(Schema, WarmStreamMatchesRecordedDigests)
{
    // The warm stream decides every frame of an instantly warmed
    // cache. The InstantWarm tests build their reference from the
    // same stream, so only pinned values catch a change to it. The
    // whole stream at W = 1, 10 and 64 runs through every stage; at
    // W=4096 the first 2^18 blocks cover the 100x point's cache.
    // Recorded from the chunked enumeration with full index lookups.
    const auto sized = [](unsigned w) {
        SchemaConfig cfg;
        cfg.warehouses = w;
        return cfg;
    };
    const std::uint64_t all = ~std::uint64_t{0};
    struct Case
    {
        SchemaConfig cfg;
        std::uint64_t limit;
        std::uint64_t length;
        std::uint64_t fold;
    };
    const Case cases[] = {
        {tinyCfg(), all, 1178, 0xd6ea5fc5eee4b9eaULL},
        {sized(1), all, 8668, 0x517f5358eb812416ULL},
        {sized(10), all, 75029, 0x2ed590f1bd22aedfULL},
        {sized(64), all, 473169, 0x456c05d5fd37ca53ULL},
        {sized(4096), std::uint64_t{1} << 18, 262144,
         0x07090dc8f61d0c3bULL},
    };
    for (const Case &c : cases) {
        SCOPED_TRACE(::testing::Message() << "W=" << c.cfg.warehouses);
        const WarmDigest d = warmDigest(Schema(c.cfg), c.limit);
        EXPECT_EQ(d.length, c.length);
        EXPECT_EQ(d.fold, c.fold);
    }
}

TEST(Schema, MixIsDeterministicAndSpread)
{
    EXPECT_EQ(Schema::mix(1, 2, 3), Schema::mix(1, 2, 3));
    EXPECT_NE(Schema::mix(1, 2, 3), Schema::mix(1, 2, 4));
    EXPECT_NE(Schema::mix(1, 2, 3), Schema::mix(2, 1, 3));
}

TEST(Schema, ReadableBlocksScaleRoughlyLinearly)
{
    Schema s2(tinyCfg(2)), s8(tinyCfg(8));
    EXPECT_NEAR(s2.readableBlocksPerWarehouse(),
                s8.readableBlocksPerWarehouse(),
                0.35 * s2.readableBlocksPerWarehouse());
}

/** Property: row addressing round-trips for random keys across W. */
class SchemaAddressProperty : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(SchemaAddressProperty, CustomerAddressingInjective)
{
    Schema s(tinyCfg(GetParam()));
    std::set<std::pair<BlockId, std::uint32_t>> seen;
    for (unsigned w = 0; w < GetParam(); ++w) {
        for (std::uint32_t d = 0; d < 10; d += 3) {
            for (std::uint32_t c = 0; c < 300; c += 37) {
                const RowLoc loc = s.customerRow(w, d, c);
                EXPECT_TRUE(seen.insert({loc.block, loc.slot}).second);
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Warehouses, SchemaAddressProperty,
                         ::testing::Values(1u, 2u, 5u, 16u));

} // namespace
