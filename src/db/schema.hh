/**
 * @file
 * The ODB order-entry schema: warehouses, districts, customers,
 * orders, order lines, items, stock, history — plus undo segments —
 * laid out over a virtual volume of 8 KB blocks.
 *
 * Storage is *implicit*: every row maps deterministically to a
 * (block, slot) via fixed per-table geometry, and indexes are
 * ImplicitBTrees, so an 800-warehouse database (millions of blocks)
 * costs O(warehouses) memory. Mutable state (sequence counters, stock
 * quantities, balances) is materialized lazily.
 *
 * Geometry summary (blocks per warehouse, at the default row sizes):
 * customer heap 2500, stock heap 4000, orders 32, order-line 300,
 * new-order 2, history 200, warehouse 1, district 1, plus global item
 * heap and index extents — about 7.8 K blocks (~61 MB) per warehouse.
 * The paper quotes ~100 MB per warehouse including all overheads; the
 * DatabaseConfig default scales the buffer cache so the working-set /
 * cache ratio at a given W matches the paper's machine.
 */

#ifndef ODBSIM_DB_SCHEMA_HH
#define ODBSIM_DB_SCHEMA_HH

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "db/btree.hh"
#include "db/trace.hh"
#include "db/types.hh"
#include "sim/flat_map.hh"

namespace odbsim::db
{

/** Logical sizing of the database. */
struct SchemaConfig
{
    unsigned warehouses = 10;
    std::uint32_t districtsPerWarehouse = 10;
    std::uint32_t customersPerDistrict = 3000;
    std::uint32_t itemCount = 100000;
    std::uint32_t stockPerWarehouse = 100000;
    /** Orders pre-loaded per district. */
    std::uint32_t initialOrdersPerDistrict = 3000;
    /** Order key-space capacity per district (addressing wraps). */
    std::uint32_t ordersPerDistrictCap = 8000;
    /** Order-line key-space capacity per district. */
    std::uint32_t olPerDistrictCap = 45000;
    /** New-order ring capacity per district. */
    std::uint32_t newOrderCap = 2000;
    /** History ring capacity per warehouse. */
    std::uint32_t historyCap = 36000;
    /** Undo-segment ring, in blocks (shared). */
    std::uint32_t undoBlocks = 65536;
    /**
     * Two-tier access skew: the hot fraction of picks lands in a
     * small prefix of the key domain (recently active customers /
     * popular items) — what keeps the buffer-cache hit ratio high on
     * a 2.8 GB cache even at hundreds of warehouses. @{
     */
    std::uint32_t hotCustomersPerDistrict() const
    {
        return customersPerDistrict / 30;
    }
    std::uint32_t hotItems() const { return itemCount / 40; }
    /** @} */
    std::uint64_t seed = 0x5eedULL;
};

/** Where a row lives. */
struct RowLoc
{
    BlockId block = 0;
    std::uint32_t slot = 0;
    std::uint32_t rowBytes = 0;
};

/** Facts about one order. */
struct OrderInfo
{
    std::uint32_t olSeqStart = 0;
    std::uint32_t customer = 0;
    std::uint8_t olCnt = 10;
};

/**
 * Schema geometry + functional database state.
 */
class Schema
{
  public:
    explicit Schema(const SchemaConfig &cfg);

    const SchemaConfig &config() const { return cfg_; }
    unsigned warehouses() const { return cfg_.warehouses; }

    /** Total blocks of the volume (heaps + indexes + undo). */
    std::uint64_t totalBlocks() const { return totalBlocks_; }

    /** Blocks regularly read by transactions, per warehouse (used to
     *  size buffer caches comparably to the paper's setup). */
    double readableBlocksPerWarehouse() const;

    /** @name Row addressing @{ */
    RowLoc warehouseRow(std::uint32_t w) const;
    RowLoc districtRow(std::uint32_t w, std::uint32_t d) const;
    RowLoc customerRow(std::uint32_t w, std::uint32_t d,
                       std::uint32_t c) const;
    RowLoc itemRow(std::uint32_t i) const;
    RowLoc stockRow(std::uint32_t w, std::uint32_t i) const;
    RowLoc orderRow(std::uint32_t w, std::uint32_t d,
                    std::uint32_t o) const;
    RowLoc orderLineRow(std::uint32_t w, std::uint32_t d,
                        std::uint32_t seq) const;
    RowLoc newOrderRow(std::uint32_t w, std::uint32_t d,
                       std::uint32_t o) const;
    RowLoc historyRow(std::uint32_t w, std::uint32_t seq) const;
    BlockId undoBlockAt(std::uint64_t cursor) const;
    /** @} */

    /** @name Index geometry @{ */
    const ImplicitBTree &customerIndex() const { return *custIdx_; }
    const ImplicitBTree &customerNameIndex() const { return *nameIdx_; }
    const ImplicitBTree &itemIndex() const { return *itemIdx_; }
    const ImplicitBTree &stockIndex() const { return *stockIdx_; }
    const ImplicitBTree &ordersIndex() const { return *ordersIdx_; }
    const ImplicitBTree &newOrderIndex() const { return *noIdx_; }
    /** @} */

    /** @name Index key builders @{ */
    std::uint64_t
    customerKey(std::uint32_t w, std::uint32_t d, std::uint32_t c) const
    {
        return (static_cast<std::uint64_t>(w) *
                    cfg_.districtsPerWarehouse +
                d) *
                   cfg_.customersPerDistrict +
               c;
    }
    std::uint64_t
    stockKey(std::uint32_t w, std::uint32_t i) const
    {
        return static_cast<std::uint64_t>(w) * cfg_.stockPerWarehouse + i;
    }
    std::uint64_t
    orderKey(std::uint32_t w, std::uint32_t d, std::uint32_t o) const
    {
        return district(w, d) * cfg_.ordersPerDistrictCap +
               o % cfg_.ordersPerDistrictCap;
    }
    std::uint64_t
    newOrderKey(std::uint32_t w, std::uint32_t d, std::uint32_t o) const
    {
        return district(w, d) * cfg_.newOrderCap + o % cfg_.newOrderCap;
    }
    /** @} */

    /** @name Mutable transactional state @{ */
    std::uint32_t nextOid(std::uint32_t w, std::uint32_t d) const;
    /** Create a new order for @p customer; returns its oid. */
    std::uint32_t allocateOrder(std::uint32_t w, std::uint32_t d,
                                std::uint32_t customer,
                                std::uint8_t ol_cnt);
    OrderInfo orderInfo(std::uint32_t w, std::uint32_t d,
                        std::uint32_t o) const;
    /** Oldest undelivered order of (w, d), if any. */
    std::optional<std::uint32_t> popDeliveryOrder(std::uint32_t w,
                                                  std::uint32_t d);
    std::uint64_t allocateUndo(std::uint32_t bytes);
    std::uint32_t allocateHistory(std::uint32_t w);
    /** Adjust a stock quantity (TPC-C restock rule applies). When
     *  @p net_applied is non-null it receives the net change actually
     *  made — the exact amount a rollback must subtract back out. */
    std::int32_t adjustStock(std::uint32_t w, std::uint32_t i,
                             std::int32_t delta,
                             std::int32_t *net_applied = nullptr);
    double adjustCustomerBalance(std::uint32_t w, std::uint32_t d,
                                 std::uint32_t c, double delta);
    double addWarehouseYtd(std::uint32_t w, double amt);
    double addDistrictYtd(std::uint32_t w, std::uint32_t d, double amt);

    /**
     * Reverse one plan-time mutation (transaction rollback). Applied
     * back to front over ActionTrace::undo; see PlanUndo for the
     * delta-reversal and sequence-gap semantics.
     */
    void applyPlanUndo(const PlanUndo &u);
    /** @} */

    /**
     * Deterministic attribute derivation. Inline: it is instant
     * warm-up's dirty rule, run once per warmed block, and the
     * planner's attribute hash.
     */
    static std::uint64_t
    mix(std::uint64_t a, std::uint64_t b, std::uint64_t c)
    {
        std::uint64_t x = a * 0x9e3779b97f4a7c15ULL + b;
        x ^= x >> 30;
        x *= 0xbf58476d1ce4e5b9ULL;
        x += c;
        x ^= x >> 27;
        x *= 0x94d049bb133111ebULL;
        x ^= x >> 31;
        return x;
    }

    /** Line count of a pre-loaded order. */
    std::uint8_t initialOlCnt(std::uint32_t w, std::uint32_t d,
                              std::uint32_t o) const;

    /**
     * Growth events of the lazily materialized row-state tables
     * (live orders, stock quantities, customer balances). The tables
     * start at FlatMap's default size whatever the warehouse count
     * and double when a population reaches a new high-water mark, so
     * this advances only while the rows a run touches keep growing —
     * planner steady state over a stable working set must keep it
     * flat.
     */
    std::uint64_t
    stateAllocations() const
    {
        return liveOrders_.allocations() + stockQty_.allocations() +
               custBalance_.allocations();
    }

    /** Receives warm blocks a chunk at a time; false stops the
     *  stream. */
    using WarmSink = std::function<bool(std::span<const BlockId>)>;

    /** Most blocks enumerateWarm() hands its sink per call. */
    static constexpr std::size_t warmChunk = 256;

    /**
     * Emit block ids from hottest to coldest (for warm pre-fill) to
     * @p sink, up to warmChunk of them per call, in order; stops after
     * the call that returns false.
     */
    void enumerateWarm(const WarmSink &sink) const;

  private:
    std::uint64_t
    district(std::uint32_t w, std::uint32_t d) const
    {
        return static_cast<std::uint64_t>(w) * cfg_.districtsPerWarehouse +
               d;
    }

    SchemaConfig cfg_;

    /** @name Heap extents @{ */
    BlockId whBase_, distBase_, custBase_, histBase_, noBase_,
        ordBase_, olBase_, itemBase_, stockBase_, undoBase_;
    /** @} */
    std::uint64_t totalBlocks_ = 0;

    std::unique_ptr<ImplicitBTree> custIdx_, nameIdx_, itemIdx_,
        stockIdx_, ordersIdx_, noIdx_;

    /** Per-district counters (index = w * districts + d). */
    std::vector<std::uint32_t> nextOid_;
    std::vector<std::uint32_t> nextDelivery_;
    std::vector<std::uint32_t> nextOlSeq_;
    std::vector<double> districtYtd_;
    std::vector<double> warehouseYtd_;
    std::vector<std::uint32_t> historySeq_;
    std::uint64_t undoCursor_ = 0;

    /**
     * Orders created during the run (others are derived), and the
     * lazily materialized stock quantities / balances. Flat tables on
     * the planner hot path, sized by the rows the run touches, not by
     * the warehouse count: each starts small and doubles at a
     * high-water mark. Stock and balance populations level off at the
     * skew-hot working set; live orders gain one entry per New-Order
     * for the whole run (oids are unbounded), so that table keeps
     * doubling on long runs. @{
     */
    sim::FlatMap<std::uint64_t, OrderInfo> liveOrders_;
    sim::FlatMap<std::uint64_t, std::int32_t> stockQty_;
    sim::FlatMap<std::uint64_t, double> custBalance_;
    /** @} */
};

} // namespace odbsim::db

#endif // ODBSIM_DB_SCHEMA_HH
