#include "db/schema.hh"

#include <algorithm>
#include <memory>

#include "sim/logging.hh"

namespace odbsim::db
{

namespace
{

/** @name Fixed row geometry (bytes per row / rows per 8 KB block) @{ */
constexpr std::uint32_t whRowBytes = 96;
constexpr std::uint32_t whRowsPerBlock = 1;
constexpr std::uint32_t distRowBytes = 106;
constexpr std::uint32_t distRowsPerBlock = 10;
constexpr std::uint32_t custRowBytes = 656;
constexpr std::uint32_t custRowsPerBlock = 12;
constexpr std::uint32_t histRowBytes = 46;
constexpr std::uint32_t histRowsPerBlock = 150;
constexpr std::uint32_t noRowBytes = 8;
constexpr std::uint32_t noRowsPerBlock = 1000;
constexpr std::uint32_t ordRowBytes = 32;
constexpr std::uint32_t ordRowsPerBlock = 250;
constexpr std::uint32_t olRowBytes = 54;
constexpr std::uint32_t olRowsPerBlock = 150;
constexpr std::uint32_t itemRowBytes = 82;
constexpr std::uint32_t itemRowsPerBlock = 96;
constexpr std::uint32_t stockRowBytes = 306;
constexpr std::uint32_t stockRowsPerBlock = 25;
/** @} */

/** @name Index occupancy @{ */
constexpr std::uint32_t custIdxKeysPerLeaf = 300;
constexpr std::uint32_t nameIdxKeysPerLeaf = 250;
constexpr std::uint32_t itemIdxKeysPerLeaf = 400;
constexpr std::uint32_t stockIdxKeysPerLeaf = 400;
constexpr std::uint32_t ordIdxKeysPerLeaf = 350;
constexpr std::uint32_t noIdxKeysPerLeaf = 500;
constexpr std::uint32_t idxFanout = 250;
/** @} */

std::uint64_t
heapBlocks(std::uint64_t rows, std::uint32_t rows_per_block)
{
    return (rows + rows_per_block - 1) / rows_per_block;
}

} // namespace

Schema::Schema(const SchemaConfig &cfg)
    : cfg_(cfg)
{
    odbsim_assert(cfg.warehouses >= 1, "schema needs >= 1 warehouse");
    const std::uint64_t w = cfg.warehouses;
    const std::uint64_t dd = w * cfg.districtsPerWarehouse;

    BlockId cursor = 0;
    auto extent = [&cursor](std::uint64_t blocks) {
        const BlockId base = cursor;
        cursor += blocks;
        return base;
    };

    itemBase_ = extent(heapBlocks(cfg.itemCount, itemRowsPerBlock));
    whBase_ = extent(heapBlocks(w, whRowsPerBlock));
    distBase_ = extent(heapBlocks(dd, distRowsPerBlock));
    custBase_ = extent(heapBlocks(dd * cfg.customersPerDistrict,
                                  custRowsPerBlock));
    histBase_ =
        extent(heapBlocks(w * cfg.historyCap, histRowsPerBlock));
    noBase_ = extent(heapBlocks(dd * cfg.newOrderCap, noRowsPerBlock));
    ordBase_ =
        extent(heapBlocks(dd * cfg.ordersPerDistrictCap, ordRowsPerBlock));
    olBase_ = extent(heapBlocks(dd * cfg.olPerDistrictCap, olRowsPerBlock));
    stockBase_ = extent(
        heapBlocks(w * cfg.stockPerWarehouse, stockRowsPerBlock));

    auto make_index = [&](std::uint64_t keys, std::uint32_t per_leaf) {
        auto t = std::make_unique<ImplicitBTree>(cursor, keys, per_leaf,
                                                 idxFanout);
        cursor += t->blocksUsed();
        return t;
    };
    custIdx_ = make_index(dd * cfg.customersPerDistrict,
                          custIdxKeysPerLeaf);
    nameIdx_ = make_index(dd * cfg.customersPerDistrict,
                          nameIdxKeysPerLeaf);
    itemIdx_ = make_index(cfg.itemCount, itemIdxKeysPerLeaf);
    stockIdx_ = make_index(w * cfg.stockPerWarehouse,
                           stockIdxKeysPerLeaf);
    ordersIdx_ = make_index(dd * cfg.ordersPerDistrictCap,
                            ordIdxKeysPerLeaf);
    noIdx_ = make_index(dd * cfg.newOrderCap, noIdxKeysPerLeaf);

    undoBase_ = extent(cfg.undoBlocks);
    totalBlocks_ = cursor;

    nextOid_.assign(dd, cfg.initialOrdersPerDistrict);
    // 30% of the pre-loaded orders are undelivered, as in TPC-C.
    nextDelivery_.assign(dd, cfg.initialOrdersPerDistrict * 7 / 10);
    nextOlSeq_.assign(dd, cfg.initialOrdersPerDistrict * 10);
    districtYtd_.assign(dd, 30000.0);
    warehouseYtd_.assign(w, 300000.0);
    historySeq_.assign(w, 0);
}

double
Schema::readableBlocksPerWarehouse() const
{
    // Blocks a transaction mix actually reads, per warehouse: customer
    // and stock heaps, their indexes, plus the order/order-line region
    // near the append frontier. Used to size buffer caches with the
    // same working-set ratio as the paper's 100 MB/warehouse setup.
    const double w = static_cast<double>(cfg_.warehouses);
    const double cust = static_cast<double>(heapBlocks(
        static_cast<std::uint64_t>(w) * cfg_.districtsPerWarehouse *
            cfg_.customersPerDistrict,
        custRowsPerBlock));
    const double stock = static_cast<double>(
        heapBlocks(static_cast<std::uint64_t>(w) * cfg_.stockPerWarehouse,
                   stockRowsPerBlock));
    const double idx = static_cast<double>(
        custIdx_->blocksUsed() + nameIdx_->blocksUsed() +
        stockIdx_->blocksUsed() + ordersIdx_->blocksUsed());
    // Recent orders/order lines: ~15% of the order extents are warm.
    const double recent =
        0.15 * static_cast<double>(
                   heapBlocks(static_cast<std::uint64_t>(w) *
                                  cfg_.districtsPerWarehouse *
                                  cfg_.olPerDistrictCap,
                              olRowsPerBlock));
    return (cust + stock + idx + recent) / w;
}

RowLoc
Schema::warehouseRow(std::uint32_t w) const
{
    return RowLoc{whBase_ + w / whRowsPerBlock, w % whRowsPerBlock,
                  whRowBytes};
}

RowLoc
Schema::districtRow(std::uint32_t w, std::uint32_t d) const
{
    const std::uint64_t key = district(w, d);
    return RowLoc{distBase_ + key / distRowsPerBlock,
                  static_cast<std::uint32_t>(key % distRowsPerBlock),
                  distRowBytes};
}

RowLoc
Schema::customerRow(std::uint32_t w, std::uint32_t d,
                    std::uint32_t c) const
{
    const std::uint64_t key = customerKey(w, d, c);
    return RowLoc{custBase_ + key / custRowsPerBlock,
                  static_cast<std::uint32_t>(key % custRowsPerBlock),
                  custRowBytes};
}

RowLoc
Schema::itemRow(std::uint32_t i) const
{
    return RowLoc{itemBase_ + i / itemRowsPerBlock, i % itemRowsPerBlock,
                  itemRowBytes};
}

RowLoc
Schema::stockRow(std::uint32_t w, std::uint32_t i) const
{
    const std::uint64_t key = stockKey(w, i);
    return RowLoc{stockBase_ + key / stockRowsPerBlock,
                  static_cast<std::uint32_t>(key % stockRowsPerBlock),
                  stockRowBytes};
}

RowLoc
Schema::orderRow(std::uint32_t w, std::uint32_t d, std::uint32_t o) const
{
    const std::uint64_t key = orderKey(w, d, o);
    return RowLoc{ordBase_ + key / ordRowsPerBlock,
                  static_cast<std::uint32_t>(key % ordRowsPerBlock),
                  ordRowBytes};
}

RowLoc
Schema::orderLineRow(std::uint32_t w, std::uint32_t d,
                     std::uint32_t seq) const
{
    const std::uint64_t key =
        district(w, d) * cfg_.olPerDistrictCap + seq % cfg_.olPerDistrictCap;
    return RowLoc{olBase_ + key / olRowsPerBlock,
                  static_cast<std::uint32_t>(key % olRowsPerBlock),
                  olRowBytes};
}

RowLoc
Schema::newOrderRow(std::uint32_t w, std::uint32_t d,
                    std::uint32_t o) const
{
    const std::uint64_t key = newOrderKey(w, d, o);
    return RowLoc{noBase_ + key / noRowsPerBlock,
                  static_cast<std::uint32_t>(key % noRowsPerBlock),
                  noRowBytes};
}

RowLoc
Schema::historyRow(std::uint32_t w, std::uint32_t seq) const
{
    const std::uint64_t key = static_cast<std::uint64_t>(w) *
                                  cfg_.historyCap +
                              seq % cfg_.historyCap;
    return RowLoc{histBase_ + key / histRowsPerBlock,
                  static_cast<std::uint32_t>(key % histRowsPerBlock),
                  histRowBytes};
}

BlockId
Schema::undoBlockAt(std::uint64_t cursor) const
{
    return undoBase_ + (cursor / blockBytes) % cfg_.undoBlocks;
}

std::uint32_t
Schema::nextOid(std::uint32_t w, std::uint32_t d) const
{
    return nextOid_[district(w, d)];
}

std::uint32_t
Schema::allocateOrder(std::uint32_t w, std::uint32_t d,
                      std::uint32_t customer, std::uint8_t ol_cnt)
{
    const std::uint64_t dd = district(w, d);
    const std::uint32_t oid = nextOid_[dd]++;
    OrderInfo info;
    info.olSeqStart = nextOlSeq_[dd];
    info.customer = customer;
    info.olCnt = ol_cnt;
    nextOlSeq_[dd] += ol_cnt;
    liveOrders_.findOrInsert((dd << 32) | oid) = info;
    return oid;
}

OrderInfo
Schema::orderInfo(std::uint32_t w, std::uint32_t d, std::uint32_t o) const
{
    const std::uint64_t dd = district(w, d);
    if (const OrderInfo *live = liveOrders_.find((dd << 32) | o))
        return *live;
    // Pre-loaded order: derive deterministically. Initial orders are
    // laid out with 10 line slots each.
    OrderInfo info;
    info.olSeqStart = o * 10;
    info.customer = static_cast<std::uint32_t>(
        mix(dd, o, 0xc0ffee) % cfg_.customersPerDistrict);
    info.olCnt = initialOlCnt(w, d, o);
    return info;
}

std::optional<std::uint32_t>
Schema::popDeliveryOrder(std::uint32_t w, std::uint32_t d)
{
    const std::uint64_t dd = district(w, d);
    if (nextDelivery_[dd] >= nextOid_[dd])
        return std::nullopt;
    return nextDelivery_[dd]++;
}

std::uint64_t
Schema::allocateUndo(std::uint32_t bytes)
{
    const std::uint64_t at = undoCursor_;
    undoCursor_ += bytes;
    return at;
}

std::uint32_t
Schema::allocateHistory(std::uint32_t w)
{
    return historySeq_[w]++;
}

std::int32_t
Schema::adjustStock(std::uint32_t w, std::uint32_t i, std::int32_t delta,
                    std::int32_t *net_applied)
{
    const std::uint64_t key = stockKey(w, i);
    bool inserted;
    std::int32_t &slot = stockQty_.findOrInsert(key, inserted);
    const std::int32_t before =
        inserted ? static_cast<std::int32_t>(50 + mix(w, i, 0x57) % 50)
                 : slot;
    std::int32_t qty = before + delta;
    if (qty < 10)
        qty += 91; // TPC-C restock rule.
    slot = qty;
    if (net_applied)
        *net_applied = qty - before;
    return qty;
}

double
Schema::adjustCustomerBalance(std::uint32_t w, std::uint32_t d,
                              std::uint32_t c, double delta)
{
    const std::uint64_t key = customerKey(w, d, c);
    bool inserted;
    double &slot = custBalance_.findOrInsert(key, inserted);
    double bal = (inserted ? -10.0 : slot) + delta;
    slot = bal;
    return bal;
}

double
Schema::addWarehouseYtd(std::uint32_t w, double amt)
{
    warehouseYtd_[w] += amt;
    return warehouseYtd_[w];
}

double
Schema::addDistrictYtd(std::uint32_t w, std::uint32_t d, double amt)
{
    districtYtd_[district(w, d)] += amt;
    return districtYtd_[district(w, d)];
}

void
Schema::applyPlanUndo(const PlanUndo &u)
{
    switch (u.kind) {
      case PlanUndo::Kind::StockDelta: {
        // Raw reversal of the recorded net delta — the restock rule
        // must not re-fire while undoing its own effect.
        const std::uint64_t key = stockKey(u.w, u.a);
        bool inserted;
        std::int32_t &slot = stockQty_.findOrInsert(key, inserted);
        if (inserted)
            slot = static_cast<std::int32_t>(50 + mix(u.w, u.a, 0x57) % 50);
        slot -= static_cast<std::int32_t>(u.amount);
        break;
      }
      case PlanUndo::Kind::CustomerBalance: {
        const std::uint64_t key = customerKey(u.w, u.d, u.a);
        bool inserted;
        double &slot = custBalance_.findOrInsert(key, inserted);
        if (inserted)
            slot = -10.0;
        slot -= u.amount;
        break;
      }
      case PlanUndo::Kind::WarehouseYtd:
        warehouseYtd_[u.w] -= u.amount;
        break;
      case PlanUndo::Kind::DistrictYtd:
        districtYtd_[district(u.w, u.d)] -= u.amount;
        break;
      case PlanUndo::Kind::EraseOrder: {
        const std::uint64_t dd = district(u.w, u.d);
        const std::size_t i =
            liveOrders_.findIndex((dd << 32) | u.a);
        if (i != decltype(liveOrders_)::npos)
            liveOrders_.eraseAt(i);
        break;
      }
      case PlanUndo::Kind::DeliveryCursor: {
        const std::uint64_t dd = district(u.w, u.d);
        // Guarded restore: only step the cursor back if no later
        // delivery advanced past this order in the meantime.
        if (nextDelivery_[dd] == u.a + 1)
            nextDelivery_[dd] = u.a;
        break;
      }
    }
}

std::uint8_t
Schema::initialOlCnt(std::uint32_t w, std::uint32_t d,
                     std::uint32_t o) const
{
    return static_cast<std::uint8_t>(
        5 + mix(district(w, d), o, 0x01) % 11);
}

void
Schema::enumerateWarm(const WarmSink &sink) const
{
    // The stages below emit one block at a time through cb, which
    // fills a stack chunk and hands it to the sink when full. cb
    // returns false once the sink has, and every stage then returns
    // at once, so only the natural end flushes a part chunk.
    BlockId chunk[warmChunk] = {};
    std::size_t fill = 0;
    const auto cb = [&](BlockId b) {
        chunk[fill++] = b;
        if (fill < warmChunk)
            return true;
        fill = 0;
        return sink(std::span<const BlockId>(chunk, warmChunk));
    };

    const std::uint32_t w_cnt = cfg_.warehouses;
    const std::uint32_t d_cnt = cfg_.districtsPerWarehouse;

    // Stage 1: index internals (root first) — the hottest blocks.
    const ImplicitBTree *indexes[] = {custIdx_.get(), nameIdx_.get(),
                                      stockIdx_.get(), itemIdx_.get(),
                                      ordersIdx_.get(), noIdx_.get()};
    for (const auto *idx : indexes) {
        for (unsigned l = idx->height(); l-- > 1;) {
            for (std::uint64_t n = 0; n < idx->levelNodes(l); ++n) {
                if (!cb(idx->levelBase(l) + n))
                    return;
            }
        }
    }

    // Stage 2: warehouse + district rows, per-district append frontier.
    for (std::uint32_t w = 0; w < w_cnt; ++w) {
        if (!cb(warehouseRow(w).block))
            return;
        if (!cb(districtRow(w, 0).block))
            return;
    }
    for (std::uint32_t w = 0; w < w_cnt; ++w) {
        for (std::uint32_t d = 0; d < d_cnt; ++d) {
            const std::uint64_t dd = district(w, d);
            if (!cb(orderRow(w, d, nextOid_[dd]).block))
                return;
            if (!cb(orderLineRow(w, d, nextOlSeq_[dd]).block))
                return;
            if (!cb(newOrderRow(w, d, nextOid_[dd]).block))
                return;
        }
        if (!cb(historyRow(w, historySeq_[w]).block))
            return;
    }

    // Stage 3: the (shared) item heap and item index leaves, hot
    // prefix first.
    const std::uint64_t item_blocks =
        heapBlocks(cfg_.itemCount, itemRowsPerBlock);
    const std::uint64_t hot_item_blocks =
        heapBlocks(cfg_.hotItems(), itemRowsPerBlock);
    for (std::uint64_t b = 0; b < hot_item_blocks; ++b) {
        if (!cb(itemBase_ + b))
            return;
    }
    for (std::uint64_t n = 0; n < itemIdx_->levelNodes(0); ++n) {
        if (!cb(itemIdx_->levelBase(0) + n))
            return;
    }
    for (std::uint64_t b = hot_item_blocks; b < item_blocks; ++b) {
        if (!cb(itemBase_ + b))
            return;
    }

    // Stage 4: the hot tier — the skew-favoured customer and stock
    // rows and their index leaves, interleaved across warehouses so
    // every warehouse's hot rows are covered before any cold block.
    const std::uint32_t hot_cust = cfg_.hotCustomersPerDistrict();
    const std::uint64_t hot_cust_blocks_per_d =
        heapBlocks(hot_cust, custRowsPerBlock);
    const std::uint64_t cust_blocks_per_d =
        heapBlocks(cfg_.customersPerDistrict, custRowsPerBlock);
    const std::uint64_t hot_stock_blocks =
        heapBlocks(cfg_.hotItems(), stockRowsPerBlock);
    const std::uint64_t stock_per_w =
        heapBlocks(cfg_.stockPerWarehouse, stockRowsPerBlock);
    const std::uint64_t hot_stock_leaves =
        (cfg_.hotItems() + stockIdxKeysPerLeaf - 1) / stockIdxKeysPerLeaf;
    const std::uint64_t hot_rounds =
        std::max<std::uint64_t>(hot_cust_blocks_per_d * d_cnt,
                                hot_stock_blocks);
    for (std::uint64_t r = 0; r < hot_rounds; ++r) {
        for (std::uint32_t w = 0; w < w_cnt; ++w) {
            if (r < hot_cust_blocks_per_d * d_cnt) {
                const std::uint32_t d = static_cast<std::uint32_t>(
                    r / hot_cust_blocks_per_d);
                const std::uint64_t blk =
                    district(w, d) * cust_blocks_per_d +
                    r % hot_cust_blocks_per_d;
                if (!cb(custBase_ + blk))
                    return;
            }
            if (r < hot_stock_blocks) {
                if (!cb(stockBase_ + w * stock_per_w + r))
                    return;
            }
            if (r < d_cnt) {
                const std::uint64_t key = customerKey(
                    w, static_cast<std::uint32_t>(r), 0);
                if (!cb(custIdx_->leafOf(key)))
                    return;
                if (!cb(nameIdx_->leafOf(key)))
                    return;
            }
            if (r < hot_stock_leaves) {
                const std::uint64_t key =
                    stockKey(w, 0) + r * stockIdxKeysPerLeaf;
                if (!cb(stockIdx_->leafOf(key)))
                    return;
            }
        }
    }

    // Stage 5: the delivery window — a few order and order-line
    // blocks past the delivery frontier, plus the index leaves over
    // them.
    for (std::uint32_t w = 0; w < w_cnt; ++w) {
        for (std::uint32_t d = 0; d < d_cnt; ++d) {
            const std::uint64_t dd = district(w, d);
            const BlockId ord_lo = orderRow(w, d, nextDelivery_[dd]).block;
            for (BlockId b = ord_lo; b <= ord_lo + 3; ++b) {
                if (!cb(b))
                    return;
            }
            const BlockId ol_lo =
                orderLineRow(w, d, nextDelivery_[dd] * 10).block;
            for (BlockId b = ol_lo; b <= ol_lo + 8; ++b) {
                if (!cb(b))
                    return;
            }
            if (!cb(ordersIdx_->leafOf(orderKey(w, d, nextDelivery_[dd]))))
                return;
            if (!cb(noIdx_->leafOf(newOrderKey(w, d, nextOid_[dd]))))
                return;
        }
    }

    // Stage 6: cold blocks, round-robin across warehouses — a uniform
    // LRU sample of the remaining heaps and leaves.
    const std::uint64_t cust_per_w = cust_blocks_per_d * d_cnt;
    const std::uint64_t cil_per_w =
        static_cast<std::uint64_t>(d_cnt) * cfg_.customersPerDistrict /
        custIdxKeysPerLeaf;
    const std::uint64_t nil_per_w =
        static_cast<std::uint64_t>(d_cnt) * cfg_.customersPerDistrict /
        nameIdxKeysPerLeaf;
    const std::uint64_t sil_per_w =
        static_cast<std::uint64_t>(cfg_.stockPerWarehouse) /
        stockIdxKeysPerLeaf;
    const std::uint64_t max_round = std::max(cust_per_w, stock_per_w);
    for (std::uint64_t r = 0; r < max_round; ++r) {
        for (std::uint32_t w = 0; w < w_cnt; ++w) {
            if (r < cil_per_w) {
                const std::uint64_t key =
                    customerKey(w, 0, 0) + r * custIdxKeysPerLeaf;
                if (!cb(custIdx_->leafOf(key)))
                    return;
            }
            if (r < nil_per_w) {
                const std::uint64_t key =
                    customerKey(w, 0, 0) + r * nameIdxKeysPerLeaf;
                if (!cb(nameIdx_->leafOf(key)))
                    return;
            }
            if (r < sil_per_w) {
                const std::uint64_t key =
                    stockKey(w, 0) + r * stockIdxKeysPerLeaf;
                if (!cb(stockIdx_->leafOf(key)))
                    return;
            }
            if (r < cust_per_w) {
                if (!cb(custBase_ + w * cust_per_w + r))
                    return;
            }
            if (r < stock_per_w) {
                if (!cb(stockBase_ + w * stock_per_w + r))
                    return;
            }
        }
    }
    if (fill > 0)
        sink(std::span<const BlockId>(chunk, fill));
}

} // namespace odbsim::db
