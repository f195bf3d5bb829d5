#include "db/database.hh"

#include <vector>

#include "sim/flat_map.hh"
#include "sim/logging.hh"

namespace odbsim::db
{

Database::Database(os::System &sys, const DatabaseConfig &cfg)
    : sys_(sys), cfg_(cfg), schema_(cfg.schema),
      bufcache_(resolveFrames(cfg, schema_), cfg.shards),
      locks_(cfg.shards), log_(sys, cfg_.costs),
      dbwr_(sys, cfg_.costs, bufcache_, cfg.dbwr)
{
    locks_.bind(&sys);
    dbwr_.bindLog(&log_);
}

std::uint64_t
Database::resolveFrames(const DatabaseConfig &cfg, const Schema &schema)
{
    if (cfg.sgaFrames)
        return cfg.sgaFrames;
    const double frames = cfg.cacheWarehouseEquivalents *
                          schema.readableBlocksPerWarehouse();
    return static_cast<std::uint64_t>(frames);
}

void
Database::start()
{
    log_.start();
    dbwr_.start();
}

void
Database::instantWarm(const std::vector<std::uint32_t> &active_warehouses)
{
    // Collect hottest-first, then prefill coldest-first so the LRU
    // order in the cache matches hotness (hottest prefilled last ends
    // up at MRU).
    const std::uint64_t budget =
        bufcache_.numFrames() - bufcache_.residentBlocks();
    std::vector<BlockId> hot;
    hot.reserve(budget);
    // Flat dedupe table sized once for the whole budget. The stream
    // repeats blocks (neighbouring districts' rows share one, and
    // later stages revisit blocks earlier ones emitted); only a
    // block's first, hottest occurrence keeps its place in the order.
    sim::FlatMap<BlockId, bool> seen;
    seen.reserve(budget);
    schema_.enumerateWarm(
        [&](BlockId b) {
            bool inserted;
            seen.findOrInsert(b, inserted);
            if (inserted)
                hot.push_back(b);
            return hot.size() < budget;
        },
        active_warehouses.empty() ? nullptr : &active_warehouses);
    for (auto it = hot.rbegin(); it != hot.rend(); ++it) {
        const bool dirty =
            Schema::mix(*it, 0xd1d1, 0) % 1000 <
            static_cast<std::uint64_t>(cfg_.warmDirtyFraction * 1000.0);
        bufcache_.prefill(*it, dirty);
    }
    bufcache_.resetStats();
}

void
Database::resetStats()
{
    bufcache_.resetStats();
    locks_.resetStats();
    log_.resetStats();
    dbwr_.resetStats();
}

} // namespace odbsim::db
